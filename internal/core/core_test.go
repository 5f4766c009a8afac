package core

import (
	"math"
	"testing"
	"testing/quick"

	"cohmeleon/internal/esp"
	"cohmeleon/internal/learn"
	"cohmeleon/internal/policy"
	"cohmeleon/internal/sim"
	"cohmeleon/internal/soc"
)

// ctxWith builds a minimal context with the given sensed values.
func ctxWith(fullyCoh int, nonCoh, toLLC, tileFoot float64, accFoot int64) *esp.Context {
	return &esp.Context{
		Acc:                &soc.AccTile{ID: 0},
		Available:          []soc.Mode{soc.NonCohDMA, soc.LLCCohDMA, soc.CohDMA, soc.FullyCoh},
		FullyCohActive:     fullyCoh,
		NonCohPerTile:      nonCoh,
		ToLLCPerTile:       toLLC,
		TileFootprintBytes: tileFoot,
		FootprintBytes:     accFoot,
		L2Bytes:            32 << 10,
		LLCSliceBytes:      256 << 10,
		TotalLLCBytes:      1 << 20,
	}
}

// mustNew builds an agent from a config that must be valid.
func mustNew(t *testing.T, cfg Config) *Cohmeleon {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return c
}

// mustRewards builds a computer from weights that must be valid.
func mustRewards(t *testing.T, w RewardWeights) *RewardComputer {
	t.Helper()
	rc, err := NewRewardComputer(w)
	if err != nil {
		t.Fatalf("NewRewardComputer: %v", err)
	}
	return rc
}

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"epsilon-above-one", func(c *Config) { c.Epsilon0 = 1.5 }},
		{"negative-alpha", func(c *Config) { c.Alpha0 = -0.1 }},
		{"zero-decay", func(c *Config) { c.DecayIterations = 0 }},
		{"negative-overhead", func(c *Config) { c.OverheadCycles = -1 }},
		{"zero-weights", func(c *Config) { c.Weights = RewardWeights{} }},
		{"unknown-learner", func(c *Config) { c.Learner = "sarsa" }},
		{"unknown-schedule", func(c *Config) { c.Schedule = "cosine" }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			tc.mut(&cfg)
			if err := cfg.Validate(); err == nil {
				t.Fatal("invalid config validated")
			}
			if _, err := New(cfg); err == nil {
				t.Fatal("New accepted an invalid config")
			}
		})
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
}

// wideFeaturizer claims a state space larger than the value tables.
type wideFeaturizer struct{}

func (wideFeaturizer) Name() string                       { return "wide" }
func (wideFeaturizer) NumStates() int                     { return 4 * NumStates }
func (wideFeaturizer) Featurize(*esp.Context) learn.State { return 0 }

func TestConfigValidateRejectsOversizedFeaturizer(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Featurizer = wideFeaturizer{}
	if err := cfg.Validate(); err == nil {
		t.Fatal("featurizer wider than the value tables validated")
	}
	// An ablated encoder (same state space) stays valid.
	cfg.Featurizer = NewAblatedEncoder(AttrAccFootprint)
	if err := cfg.Validate(); err != nil {
		t.Fatalf("ablated encoder rejected: %v", err)
	}
}

func TestSetLearnerStateRestoresEveryTable(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Learner = "double-q"
	trained := mustNew(t, cfg)
	ctx := ctxWith(0, 0, 0, 0, 16<<10)
	for i := 0; i < 30; i++ {
		mode := trained.Decide(ctx)
		trained.Observe(&esp.Result{
			Acc: ctx.Acc, Mode: mode, FootprintBytes: 16 << 10,
			ExecCycles: sim.Cycles(1000 + i), ActiveCycles: 900, CommCycles: 100, OffChipApprox: 50,
		})
	}
	st := trained.LearnerState()
	if len(st.Tables) != 2 {
		t.Fatalf("double-q snapshot has %d tables", len(st.Tables))
	}

	restored := mustNew(t, DefaultConfig()) // default "q" config adopts the snapshot's algorithm
	if err := restored.SetLearnerState(st); err != nil {
		t.Fatal(err)
	}
	if restored.Algorithm().Name() != "double-q" {
		t.Fatalf("restored algorithm = %q", restored.Algorithm().Name())
	}
	if restored.Name() == "cohmeleon" {
		t.Fatal("restored non-default stack kept the default name")
	}
	trained.Freeze()
	restored.Freeze()
	if got, want := restored.Decide(ctx), trained.Decide(ctx); got != want {
		t.Fatalf("restored agent decides %v, trained %v", got, want)
	}
	if err := restored.SetLearnerState(&learn.TabularState{Algo: "nope"}); err == nil {
		t.Fatal("bogus state accepted")
	}
}

func TestNewBuildsEveryRegisteredStack(t *testing.T) {
	for _, algo := range learn.AlgorithmNames() {
		for _, sched := range learn.ScheduleNames() {
			cfg := DefaultConfig()
			cfg.Learner = algo
			cfg.Schedule = sched
			c := mustNew(t, cfg)
			if c.Algorithm().Name() != algo || c.Schedule().Name() != sched {
				t.Fatalf("stack (%s, %s) built as (%s, %s)",
					algo, sched, c.Algorithm().Name(), c.Schedule().Name())
			}
			if algo == learn.DefaultAlgorithm && sched == learn.DefaultSchedule {
				if c.Name() != "cohmeleon" {
					t.Fatalf("default stack named %q", c.Name())
				}
			} else if c.Name() == "cohmeleon" {
				t.Fatalf("stack (%s, %s) shadows the default name", algo, sched)
			}
		}
	}
}

func TestWeightsNormalized(t *testing.T) {
	w, err := RewardWeights{Exec: 67.5, Comm: 7.5, Mem: 25}.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(w.Exec+w.Comm+w.Mem-1) > 1e-12 {
		t.Fatal("normalization broken")
	}
	if math.Abs(w.Exec-0.675) > 1e-12 {
		t.Fatalf("Exec = %g", w.Exec)
	}
	def := DefaultWeights()
	if math.Abs(def.Exec-0.675) > 1e-9 || math.Abs(def.Mem-0.25) > 1e-9 {
		t.Fatalf("DefaultWeights = %+v", def)
	}
}

func TestWeightsNormalizedRejectsNonPositive(t *testing.T) {
	for _, w := range []RewardWeights{{}, {Exec: -1, Comm: 0.5, Mem: 0.5}} {
		if _, err := w.Normalized(); err == nil {
			t.Fatalf("weights %+v normalized without error", w)
		}
		if err := w.Validate(); err == nil {
			t.Fatalf("weights %+v validated", w)
		}
		if _, err := NewRewardComputer(w); err == nil {
			t.Fatalf("NewRewardComputer accepted %+v", w)
		}
	}
	// String must not panic on degenerate weights.
	if s := (RewardWeights{}).String(); s == "" {
		t.Fatal("String on zero weights is empty")
	}
}

func TestRewardFirstInvocationIsMaximal(t *testing.T) {
	rc := mustRewards(t, RewardWeights{Exec: 1, Comm: 1, Mem: 2})
	res := &esp.Result{
		Acc: &soc.AccTile{ID: 1}, FootprintBytes: 1000,
		ExecCycles: 5000, ActiveCycles: 4000, CommCycles: 2000, OffChipApprox: 100,
	}
	r := rc.Reward(res)
	if math.Abs(r-1) > 1e-12 {
		t.Fatalf("first reward = %g, want 1 (all components maximal)", r)
	}
}

func TestRewardPenalizesWorseExec(t *testing.T) {
	rc := mustRewards(t, RewardWeights{Exec: 1, Comm: 0, Mem: 0})
	base := &esp.Result{
		Acc: &soc.AccTile{ID: 1}, FootprintBytes: 1000,
		ExecCycles: 1000, ActiveCycles: 800, CommCycles: 100, OffChipApprox: 0,
	}
	rc.Reward(base)
	worse := &esp.Result{
		Acc: &soc.AccTile{ID: 1}, FootprintBytes: 1000,
		ExecCycles: 2000, ActiveCycles: 1600, CommCycles: 200, OffChipApprox: 0,
	}
	r := rc.Reward(worse)
	if math.Abs(r-0.5) > 1e-12 {
		t.Fatalf("reward = %g, want 0.5 (twice the best exec)", r)
	}
}

func TestRewardMemComponentRange(t *testing.T) {
	rc := mustRewards(t, RewardWeights{Exec: 0.0001, Comm: 0.0001, Mem: 1})
	mk := func(mem float64) *esp.Result {
		return &esp.Result{
			Acc: &soc.AccTile{ID: 2}, FootprintBytes: 1000,
			ExecCycles: 1000, ActiveCycles: 1000, CommCycles: 100, OffChipApprox: mem,
		}
	}
	rc.Reward(mk(0))    // establishes min
	rc.Reward(mk(1000)) // establishes max
	_, _, low := rc.Components(mk(1000))
	if low != 0 {
		t.Fatalf("worst mem Rmem = %g, want 0", low)
	}
	_, _, high := rc.Components(mk(0))
	if high != 1 {
		t.Fatalf("best mem Rmem = %g, want 1", high)
	}
	_, _, mid := rc.Components(mk(500))
	if math.Abs(mid-0.5) > 1e-12 {
		t.Fatalf("middle Rmem = %g, want 0.5", mid)
	}
}

func TestRewardZeroCommGetsFullComponent(t *testing.T) {
	rc := mustRewards(t, RewardWeights{Exec: 0, Comm: 1, Mem: 0})
	res := &esp.Result{
		Acc: &soc.AccTile{ID: 3}, FootprintBytes: 1000,
		ExecCycles: 1000, ActiveCycles: 1000, CommCycles: 0, OffChipApprox: 0,
	}
	if r := rc.Reward(res); r != 1 {
		t.Fatalf("zero-comm reward = %g, want 1", r)
	}
}

func TestRewardHistoriesIndependentPerAccelerator(t *testing.T) {
	rc := mustRewards(t, RewardWeights{Exec: 1, Comm: 0, Mem: 0})
	fast := &esp.Result{Acc: &soc.AccTile{ID: 1}, FootprintBytes: 1000,
		ExecCycles: 100, ActiveCycles: 100, CommCycles: 10}
	slow := &esp.Result{Acc: &soc.AccTile{ID: 2}, FootprintBytes: 1000,
		ExecCycles: 10000, ActiveCycles: 100, CommCycles: 10}
	rc.Reward(fast)
	if r := rc.Reward(slow); math.Abs(r-1) > 1e-12 {
		t.Fatalf("different accelerator shares history: %g", r)
	}
}

// Property: rewards always lie in [0, 1] for non-negative inputs.
func TestRewardBoundedProperty(t *testing.T) {
	f := func(execs []uint16) bool {
		rc, err := NewRewardComputer(DefaultWeights())
		if err != nil {
			return false
		}
		for i, e := range execs {
			res := &esp.Result{
				Acc:            &soc.AccTile{ID: int(e % 3)},
				FootprintBytes: 1000,
				ExecCycles:     sim64(int64(e) + 1),
				ActiveCycles:   sim64(int64(e) + 1),
				CommCycles:     sim64(int64(e) / 2),
				OffChipApprox:  float64(i * 10),
			}
			r := rc.Reward(res)
			if r < 0 || r > 1+1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAgentDecaySchedule(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DecayIterations = 10
	c := mustNew(t, cfg)
	if c.Epsilon() != 0.5 || c.Alpha() != 0.25 {
		t.Fatalf("initial ε=%g α=%g", c.Epsilon(), c.Alpha())
	}
	for i := 0; i < 5; i++ {
		c.EndIteration()
	}
	if math.Abs(c.Epsilon()-0.25) > 1e-12 || math.Abs(c.Alpha()-0.125) > 1e-12 {
		t.Fatalf("halfway ε=%g α=%g", c.Epsilon(), c.Alpha())
	}
	for i := 0; i < 10; i++ {
		c.EndIteration()
	}
	if c.Epsilon() != 0 || c.Alpha() != 0 {
		t.Fatalf("post-decay ε=%g α=%g", c.Epsilon(), c.Alpha())
	}
	if c.Iteration() != 15 {
		t.Fatalf("Iteration = %d", c.Iteration())
	}
}

func TestAgentFreeze(t *testing.T) {
	c := mustNew(t, DefaultConfig())
	c.Freeze()
	if c.Epsilon() != 0 || c.Alpha() != 0 || !c.Frozen() {
		t.Fatal("freeze should zero ε and α")
	}
	c.Unfreeze()
	if c.Epsilon() == 0 {
		t.Fatal("unfreeze should restore exploration")
	}
}

func TestAgentLearnsFromObservation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Epsilon0 = 0 // pure exploitation: deterministic decisions
	c := mustNew(t, cfg)
	ctx := ctxWith(0, 0, 0, 0, 16<<10)
	mode := c.Decide(ctx)
	if mode != soc.NonCohDMA {
		t.Fatalf("untrained agent chose %v, want first mode", mode)
	}
	res := &esp.Result{
		Acc: ctx.Acc, Mode: mode, FootprintBytes: 16 << 10,
		ExecCycles: 1000, ActiveCycles: 900, CommCycles: 100, OffChipApprox: 50,
	}
	c.Observe(res)
	s := NewEncoder().Encode(ctx)
	if c.Table().Q(s, soc.ModeAction(mode)) <= 0 {
		t.Fatal("observation did not update the Q-table")
	}
}

func TestAgentChoosesHigherValuedMode(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Epsilon0 = 0
	c := mustNew(t, cfg)
	ctx := ctxWith(0, 0, 0, 0, 16<<10)
	s := NewEncoder().Encode(ctx)
	c.Table().Update(s, soc.ModeAction(soc.FullyCoh), 1.0, 1.0)
	if got := c.Decide(ctx); got != soc.FullyCoh {
		t.Fatalf("Decide = %v, want trained FullyCoh", got)
	}
}

func TestAgentRespectsAvailability(t *testing.T) {
	for _, algo := range learn.AlgorithmNames() {
		cfg := DefaultConfig()
		cfg.Epsilon0 = 1 // always explore
		cfg.Learner = algo
		c := mustNew(t, cfg)
		ctx := ctxWith(0, 0, 0, 0, 16<<10)
		ctx.Available = []soc.Mode{soc.NonCohDMA, soc.LLCCohDMA, soc.CohDMA}
		for i := 0; i < 200; i++ {
			if got := c.Decide(ctx); got == soc.FullyCoh {
				t.Fatalf("%s explored into unavailable mode", algo)
			}
		}
	}
}

func TestAgentFrozenDoesNotLearn(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Epsilon0 = 0
	c := mustNew(t, cfg)
	c.Freeze()
	ctx := ctxWith(0, 0, 0, 0, 16<<10)
	mode := c.Decide(ctx)
	res := &esp.Result{
		Acc: ctx.Acc, Mode: mode, FootprintBytes: 16 << 10,
		ExecCycles: 1000, ActiveCycles: 900, CommCycles: 100,
	}
	c.Observe(res)
	if c.Table().TotalVisits() != 0 {
		t.Fatal("frozen agent updated its table")
	}
}

func TestAgentObserveUnmatchedResultIsSafe(t *testing.T) {
	c := mustNew(t, DefaultConfig())
	res := &esp.Result{
		Acc: &soc.AccTile{ID: 9}, Mode: soc.CohDMA, FootprintBytes: 1 << 10,
		ExecCycles: 100, ActiveCycles: 90, CommCycles: 10,
	}
	c.Observe(res) // no pending decision: must not panic or update
	if c.Table().TotalVisits() != 0 {
		t.Fatal("unmatched observe updated the table")
	}

	// After a decision on tile 0, a result for an ID beyond every
	// decided one is still safe, and a result whose action differs from
	// the pending one leaves the decision in place: the matching result
	// that follows updates once, and a repeat of it finds nothing.
	ctx := ctxWith(0, 0, 0, 0, 16<<10)
	act := c.DecideAction(ctx)
	c.Observe(res)
	if c.Table().TotalVisits() != 0 {
		t.Fatal("a result beyond every decided ID updated the table")
	}
	other := soc.ModeAction((act.Hot() + 1) % soc.NumModes)
	result := func(a soc.Action) *esp.Result {
		return &esp.Result{
			Acc: ctx.Acc, Mode: a.Hot(), Action: a, FootprintBytes: ctx.FootprintBytes,
			ExecCycles: 100, ActiveCycles: 90, CommCycles: 10,
		}
	}
	c.Observe(result(other))
	if c.Table().TotalVisits() != 0 {
		t.Fatal("a mismatched action updated the table")
	}
	c.Observe(result(act))
	if got := c.Table().TotalVisits(); got != 1 {
		t.Fatalf("matching result after a mismatched one: %d updates, want 1", got)
	}
	c.Observe(result(act))
	if got := c.Table().TotalVisits(); got != 1 {
		t.Fatalf("a second result for one decision: %d updates, want 1", got)
	}
}

// TestRewardResetClearsEveryHistory: after Reset, every accelerator's
// next result is its first again (maximal reward), however far apart
// the IDs that had history were.
func TestRewardResetClearsEveryHistory(t *testing.T) {
	rc := mustRewards(t, RewardWeights{Exec: 1, Comm: 0, Mem: 0})
	mk := func(id int, exec int64) *esp.Result {
		return &esp.Result{Acc: &soc.AccTile{ID: id}, FootprintBytes: 1000,
			ExecCycles: sim64(exec), ActiveCycles: 100, CommCycles: 10}
	}
	ids := []int{0, 3, 17}
	for _, id := range ids {
		rc.Reward(mk(id, 100))
		if r := rc.Reward(mk(id, 200)); math.Abs(r-0.5) > 1e-12 {
			t.Fatalf("ID %d before Reset: reward %g, want 0.5", id, r)
		}
	}
	rc.Reset()
	for _, id := range append(ids, 5) {
		if r := rc.Reward(mk(id, 200)); math.Abs(r-1) > 1e-12 {
			t.Fatalf("ID %d after Reset: reward %g, want 1 (no history)", id, r)
		}
	}
}

func TestAgentDecisionCounters(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Epsilon0 = 0
	c := mustNew(t, cfg)
	ctx := ctxWith(0, 0, 0, 0, 16<<10)
	c.Decide(ctx)
	c.Decide(ctx)
	d := c.Decisions()
	if d[soc.NonCohDMA] != 2 {
		t.Fatalf("decisions = %v", d)
	}
	c.ResetDecisions()
	if c.Decisions()[soc.NonCohDMA] != 0 {
		t.Fatal("ResetDecisions failed")
	}
}

func TestAgentDeterministicPerSeed(t *testing.T) {
	for _, algo := range learn.AlgorithmNames() {
		run := func(seed uint64) []soc.Mode {
			cfg := DefaultConfig()
			cfg.Seed = seed
			cfg.Learner = algo
			c := mustNew(t, cfg)
			ctx := ctxWith(0, 0, 0, 0, 16<<10)
			var out []soc.Mode
			for i := 0; i < 50; i++ {
				out = append(out, c.Decide(ctx))
			}
			return out
		}
		a, b := run(7), run(7)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: same seed diverged", algo)
			}
		}
	}
}

// The composed default stack must make exactly the decisions and
// updates of the pre-refactor monolithic agent: an inline replica of
// the old ε-greedy loop (same RNG seeding, draw order, decay
// arithmetic and update rule) is driven with the same reward sequence
// and must match decision for decision.
func TestDefaultStackMatchesMonolithicReference(t *testing.T) {
	const iters, decisionsPerIter = 6, 40
	cfg := DefaultConfig()
	cfg.DecayIterations = 4
	cfg.Seed = 99
	agent := mustNew(t, cfg)

	refRNG := sim.NewRNG(cfg.Seed ^ 0xc0de1e0f)
	refTable := NewQTable()
	enc := NewEncoder()
	rewardOf := func(i, j int) float64 { return float64((i*decisionsPerIter+j)%17) / 17 }

	for i := 0; i < iters; i++ {
		factor := 1 - float64(i)/float64(cfg.DecayIterations)
		if factor < 0 {
			factor = 0
		}
		for j := 0; j < decisionsPerIter; j++ {
			ctx := ctxWith(j%3, float64(j%2), float64(j%4), float64(j<<12), int64(1+j)<<10)
			got := agent.Decide(ctx)

			s := enc.Encode(ctx)
			// The monolithic agent drew over modes; the composed stack draws
			// over the uniform-action prefix, which has the same length and
			// order, so index draws (and Best tie-breaks) line up exactly.
			var want soc.Action
			if refRNG.Float64() < cfg.Epsilon0*factor {
				want = soc.ModeAction(ctx.Available[refRNG.Intn(len(ctx.Available))])
			} else {
				want = refTable.Best(s, soc.UniformActions[:])
			}
			if soc.ModeAction(got) != want {
				t.Fatalf("iter %d decision %d: agent chose %v, reference %v", i, j, got, want)
			}
			// Feed both learners the identical reward; the agent's is driven
			// through the algorithm seam (a crafted esp.Result cannot pin
			// the reward exactly, as history normalization intervenes).
			if alpha := cfg.Alpha0 * factor; alpha > 0 {
				refTable.Update(s, want, rewardOf(i, j), alpha)
				agent.Algorithm().Update(nil, s, soc.ModeAction(got), rewardOf(i, j), agent.Alpha())
			}
			agent.pending[ctx.Acc.ID].ok = false
		}
		agent.EndIteration()
	}
	for s := State(0); s < NumStates; s++ {
		for _, m := range soc.UniformActions {
			if agent.Table().Q(s, m) != refTable.Q(s, m) {
				t.Fatalf("Q(%d,%v) diverged: %g vs %g", s, m, agent.Table().Q(s, m), refTable.Q(s, m))
			}
		}
	}
}

func TestDefaultOverheadMatchesPolicyTable(t *testing.T) {
	if got := DefaultConfig().OverheadCycles; got != policy.CohmeleonOverheadCycles {
		t.Fatalf("DefaultConfig overhead %d != policy table %d", got, policy.CohmeleonOverheadCycles)
	}
}

func sim64(v int64) sim.Cycles { return sim.Cycles(v) }
