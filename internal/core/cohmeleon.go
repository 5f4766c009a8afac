package core

import (
	"fmt"

	"cohmeleon/internal/esp"
	"cohmeleon/internal/learn"
	"cohmeleon/internal/policy"
	"cohmeleon/internal/sim"
	"cohmeleon/internal/soc"
)

// Config parameterizes a Cohmeleon agent. The zero value is not valid;
// use DefaultConfig as a base and Validate to check a modified copy.
type Config struct {
	// Weights are the reward coefficients (x, y, z).
	Weights RewardWeights
	// Epsilon0 is the initial exploration rate (paper: 0.5).
	Epsilon0 float64
	// Alpha0 is the initial learning rate (paper: 0.25).
	Alpha0 float64
	// DecayIterations is the training-iteration count over which the
	// schedule decays ε and α (to zero for the default linear schedule).
	DecayIterations int
	// OverheadCycles is the CPU cost charged per invocation for status
	// tracking, value-table lookup and bookkeeping.
	OverheadCycles sim.Cycles
	// Seed drives the learner's exploration draws.
	Seed uint64
	// Learner selects the algorithm seam by registry name; empty means
	// the paper's tabular Q-learning ("q"). See learn.AlgorithmNames.
	Learner string
	// Schedule selects the ε/α trajectory by registry name; empty means
	// the paper's linear decay ("linear"). See learn.ScheduleNames.
	Schedule string
	// Featurizer maps contexts to states; nil means the full Table-3
	// five-attribute encoder (set an ablated encoder for the
	// state-ablation study).
	Featurizer learn.Featurizer
	// TrueDDRReward feeds the reward the simulator's ground-truth
	// off-chip counts instead of the monitor approximation — the
	// attribution ablation.
	TrueDDRReward bool
	// FineGrain offers the learner the fine-grain (hot+cold) split
	// actions in addition to the uniform modes, for invocations whose
	// footprint exceeds the private-cache size (smaller buffers have no
	// cold remainder worth specializing). Off by default; the default
	// mode-only agent is byte-identical to the pre-action-space one.
	FineGrain bool
}

// DefaultConfig returns the paper's training setup: ε0 = 0.5, α0 = 0.25
// decaying over 10 iterations, reward weights (67.5, 7.5, 25), and the
// default learner stack (Table-3 featurizer, tabular Q, linear decay).
func DefaultConfig() Config {
	return Config{
		Weights:         DefaultWeights(),
		Epsilon0:        0.5,
		Alpha0:          0.25,
		DecayIterations: 10,
		OverheadCycles:  policy.CohmeleonOverheadCycles,
		Seed:            1,
	}
}

// validateBasics checks everything except the learner-stack names,
// which New validates as a side effect of constructing the seams (so
// an agent build never allocates throwaway value tables just to check
// a registry name).
func (cfg Config) validateBasics() error {
	if cfg.Epsilon0 < 0 || cfg.Epsilon0 > 1 || cfg.Alpha0 < 0 || cfg.Alpha0 > 1 {
		return fmt.Errorf("core: ε0=%g α0=%g outside [0,1]", cfg.Epsilon0, cfg.Alpha0)
	}
	if cfg.DecayIterations < 1 {
		return fmt.Errorf("core: DecayIterations %d must be ≥ 1", cfg.DecayIterations)
	}
	if cfg.OverheadCycles < 0 {
		return fmt.Errorf("core: OverheadCycles %d must be ≥ 0", cfg.OverheadCycles)
	}
	if err := cfg.Weights.Validate(); err != nil {
		return err
	}
	if cfg.Featurizer != nil && cfg.Featurizer.NumStates() > learn.NumStates {
		return fmt.Errorf("core: featurizer %q spans %d states, the value tables hold %d",
			cfg.Featurizer.Name(), cfg.Featurizer.NumStates(), learn.NumStates)
	}
	return nil
}

// Validate reports configuration errors before an agent is built:
// rates outside [0, 1], a degenerate decay horizon, non-positive reward
// weights, an oversized featurizer, or unknown learner/schedule names.
func (cfg Config) Validate() error {
	if err := cfg.validateBasics(); err != nil {
		return err
	}
	if _, err := learn.NewAlgorithm(cfg.Learner); err != nil {
		return err
	}
	if _, err := learn.NewSchedule(cfg.Schedule, learn.ScheduleParams{
		Epsilon0: cfg.Epsilon0, Alpha0: cfg.Alpha0, DecayIterations: cfg.DecayIterations,
	}); err != nil {
		return err
	}
	return nil
}

// Cohmeleon is the learning coherence policy (esp.Policy): a thin
// composition of the three learn seams — a Featurizer senses the state,
// an Algorithm decides a mode and learns from each invocation's reward,
// and a Schedule drives the per-iteration ε/α trajectories. Training
// proceeds in iterations (whole application runs); call EndIteration
// after each to advance the schedule, and Freeze to evaluate the
// learned policy without exploration or updates.
type Cohmeleon struct {
	cfg     Config
	name    string
	feat    learn.Featurizer
	alg     learn.Algorithm
	sched   learn.Schedule
	rewards *RewardComputer
	rng     *sim.RNG

	iter    int
	frozen  bool
	pending []pendingDecision // indexed by accelerator tile ID, grown on demand

	// actScratch is the reused offered-action list (one decision at a
	// time per agent; Decide never yields).
	actScratch []soc.Action

	// Decision counters for the Figure-7 breakdown.
	decisions [soc.NumActions]int64
}

// pendingDecision is an accelerator's decision awaiting its result; ok
// marks a live entry.
type pendingDecision struct {
	state  learn.State
	action soc.Action
	ok     bool
}

// New creates an agent from the configuration.
func New(cfg Config) (*Cohmeleon, error) {
	if err := cfg.validateBasics(); err != nil {
		return nil, err
	}
	feat := cfg.Featurizer
	if feat == nil {
		feat = learn.NewEncoder()
	}
	alg, err := learn.NewAlgorithm(cfg.Learner)
	if err != nil {
		return nil, err
	}
	sched, err := learn.NewSchedule(cfg.Schedule, learn.ScheduleParams{
		Epsilon0: cfg.Epsilon0, Alpha0: cfg.Alpha0, DecayIterations: cfg.DecayIterations,
	})
	if err != nil {
		return nil, err
	}
	rewards, err := NewRewardComputer(cfg.Weights)
	if err != nil {
		return nil, err
	}
	name := "cohmeleon"
	if alg.Name() != learn.DefaultAlgorithm || sched.Name() != learn.DefaultSchedule {
		name = fmt.Sprintf("cohmeleon-%s-%s", alg.Name(), sched.Name())
	}
	c := &Cohmeleon{
		cfg:        cfg,
		name:       name,
		feat:       feat,
		alg:        alg,
		sched:      sched,
		rewards:    rewards,
		rng:        sim.NewRNG(cfg.Seed ^ 0xc0de1e0f),
		actScratch: make([]soc.Action, 0, soc.NumActions),
	}
	c.rewards.UseTrueDDR(cfg.TrueDDRReward)
	return c, nil
}

// Name implements esp.Policy: "cohmeleon" for the paper's default
// stack, "cohmeleon-<algorithm>-<schedule>" for any other combination
// so comparison reports stay unambiguous.
func (c *Cohmeleon) Name() string { return c.name }

// OverheadCycles implements esp.Policy.
func (c *Cohmeleon) OverheadCycles() sim.Cycles { return c.cfg.OverheadCycles }

// Epsilon returns the current exploration rate.
func (c *Cohmeleon) Epsilon() float64 {
	if c.frozen {
		return 0
	}
	return c.sched.Epsilon(c.iter)
}

// Alpha returns the current learning rate.
func (c *Cohmeleon) Alpha() float64 {
	if c.frozen {
		return 0
	}
	return c.sched.Alpha(c.iter)
}

// availableActions assembles the offered action list: the uniform
// action of every available mode (in ctx order — a numeric prefix of
// the action space, so a mode-only agent indexes and draws exactly as
// the pre-action-space one did), plus, when fine-grain is enabled and
// the footprint overflows the private cache, every ordered (hot, cold)
// pair of distinct available modes.
func (c *Cohmeleon) availableActions(ctx *esp.Context) []soc.Action {
	acts := c.actScratch[:0]
	for _, m := range ctx.Available {
		acts = append(acts, soc.ModeAction(m))
	}
	if c.cfg.FineGrain && ctx.FootprintBytes > ctx.L2Bytes && len(ctx.Available) > 1 {
		for _, hot := range ctx.Available {
			for _, cold := range ctx.Available {
				if hot != cold {
					acts = append(acts, soc.SplitAction(hot, cold))
				}
			}
		}
	}
	c.actScratch = acts
	return acts
}

// DecideAction implements esp.ActionPolicy: featurize the context, then
// let the algorithm select over the offered actions. Frozen agents
// exploit greedily without consuming RNG draws, so a train/test/train
// sequence sees the same exploration stream as uninterrupted training.
func (c *Cohmeleon) DecideAction(ctx *esp.Context) soc.Action {
	s := c.feat.Featurize(ctx)
	avail := c.availableActions(ctx)
	var act soc.Action
	if c.frozen {
		act = c.alg.Exploit(s, avail)
	} else {
		act = c.alg.Decide(c.rng, s, avail, c.sched.Epsilon(c.iter))
	}
	id := ctx.Acc.ID
	if id >= len(c.pending) {
		c.pending = append(c.pending, make([]pendingDecision, id+1-len(c.pending))...)
	}
	c.pending[id] = pendingDecision{state: s, action: act, ok: true}
	c.decisions[act]++
	return act
}

// Decide implements esp.Policy for mode-only callers: the decided
// action's hot-region mode (identical to the action for uniform
// decisions; the ESP API itself routes through DecideAction).
func (c *Cohmeleon) Decide(ctx *esp.Context) soc.Mode {
	return c.DecideAction(ctx).Hot()
}

// Observe implements esp.Policy: compute the reward and hand it to the
// algorithm for the recorded (state, action).
func (c *Cohmeleon) Observe(res *esp.Result) {
	var pd pendingDecision
	if id := res.Acc.ID; id < len(c.pending) {
		pd = c.pending[id]
	}
	if !pd.ok || pd.action != res.Action {
		// Result from a forced-mode invocation or an unmatched decision:
		// nothing to update, but history still accumulates so future
		// rewards are normalized against everything the system has seen.
		c.rewards.Reward(res)
		return
	}
	c.pending[res.Acc.ID].ok = false
	reward := c.rewards.Reward(res)
	if alpha := c.Alpha(); alpha > 0 {
		c.alg.Update(c.rng, pd.state, pd.action, reward, alpha)
	}
}

// EndIteration advances the ε/α schedule by one training iteration.
func (c *Cohmeleon) EndIteration() { c.iter++ }

// Iteration returns the number of completed training iterations.
func (c *Cohmeleon) Iteration() int { return c.iter }

// Freeze stops exploration and learning (evaluation mode).
func (c *Cohmeleon) Freeze() { c.frozen = true }

// Unfreeze resumes training.
func (c *Cohmeleon) Unfreeze() { c.frozen = false }

// Frozen reports whether the agent is in evaluation mode.
func (c *Cohmeleon) Frozen() bool { return c.frozen }

// Featurizer exposes the state-encoding seam.
func (c *Cohmeleon) Featurizer() learn.Featurizer { return c.feat }

// Algorithm exposes the decide/update seam.
func (c *Cohmeleon) Algorithm() learn.Algorithm { return c.alg }

// Schedule exposes the ε/α-trajectory seam.
func (c *Cohmeleon) Schedule() learn.Schedule { return c.sched }

// Table exposes the algorithm's primary value table (reports,
// checkpoints, the sweep's merge). Multi-table algorithms expose the
// rest through LearnerState.
func (c *Cohmeleon) Table() *QTable { return c.alg.Tables()[0].Table }

// SetTable replaces the algorithm's primary value table (restoring a
// checkpoint); secondary tables reset.
func (c *Cohmeleon) SetTable(t *QTable) { c.alg.SetPrimary(t) }

// LearnerState snapshots the full algorithm state for the versioned
// persistence codec (learn.SaveStateFile).
func (c *Cohmeleon) LearnerState() *learn.TabularState { return learn.Snapshot(c.alg) }

// SetLearnerState replaces the whole algorithm from a persisted
// snapshot — unlike SetTable this restores every table of a
// multi-table algorithm, and the agent adopts the snapshot's algorithm
// even if it differs from the configured one (the transfer workflow
// evaluates whatever was trained).
func (c *Cohmeleon) SetLearnerState(st *learn.TabularState) error {
	alg, err := learn.Restore(st)
	if err != nil {
		return err
	}
	c.alg = alg
	if alg.Name() != learn.DefaultAlgorithm || c.sched.Name() != learn.DefaultSchedule {
		c.name = fmt.Sprintf("cohmeleon-%s-%s", alg.Name(), c.sched.Name())
	} else {
		c.name = "cohmeleon"
	}
	return nil
}

// Decisions returns how many times each mode has been selected; a
// fine-grain split counts towards its hot-region mode, keeping the
// Figure-7 breakdown shape stable.
func (c *Cohmeleon) Decisions() [soc.NumModes]int64 {
	var out [soc.NumModes]int64
	for a, n := range c.decisions {
		out[soc.Action(a).Hot()] += n
	}
	return out
}

// ActionDecisions returns the selection counters over the full
// fine-grain action space.
func (c *Cohmeleon) ActionDecisions() [soc.NumActions]int64 { return c.decisions }

// ResetDecisions clears the selection counters (e.g. before an
// evaluation pass whose breakdown will be reported).
func (c *Cohmeleon) ResetDecisions() { c.decisions = [soc.NumActions]int64{} }
