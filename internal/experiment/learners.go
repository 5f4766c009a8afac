package experiment

import (
	"crypto/sha256"
	"fmt"
	"sync"

	"cohmeleon/internal/core"
	"cohmeleon/internal/costmodel"
	"cohmeleon/internal/learn"
	"cohmeleon/internal/policy"
	"cohmeleon/internal/scenario"
	"cohmeleon/internal/soc"
	"cohmeleon/internal/stats"
	"cohmeleon/internal/workload"
)

// The learners experiment is the comparison the pluggable engine
// exists for: the same randomized scenario grid the sweep uses, but
// instead of racing Cohmeleon against the paper's fixed baselines it
// races learner stacks against each other — every curated (algorithm ×
// schedule) combination trains and is evaluated frozen on each
// scenario, normalized to the fixed non-coherent-DMA baseline, with a
// per-stack geomean aggregate and the decision mix of the frozen test
// runs. The "q+linear" row is the paper's agent and doubles as the
// reference point.

// LearnerStack names one (algorithm, schedule) combination.
type LearnerStack struct {
	Algorithm string
	Schedule  string
}

// Label is the stack's report name.
func (ls LearnerStack) Label() string { return ls.Algorithm + "+" + ls.Schedule }

// LearnerGrid returns the curated comparison grid: all four algorithms,
// each under the schedules where the combination is informative (UCB1's
// exploration is count-based, so only the update gating differs across
// its schedules and one entry suffices; the constant schedule is the
// no-decay ablation and rides along with the default algorithm).
func LearnerGrid() []LearnerStack {
	return []LearnerStack{
		{"q", "linear"}, // the paper's stack
		{"q", "exp"},
		{"q", "const"},
		{"double-q", "linear"},
		{"double-q", "exp"},
		{"ucb1", "linear"},
		{"boltzmann", "linear"},
		{"boltzmann", "exp"},
	}
}

// stacksFor resolves the grid against the options: with no stack
// override the full curated grid runs; -learner/-schedule narrow it to
// the matching entries, and an uncurated (but valid) combination runs
// as a single-stack grid, so the flags are never a silent no-op here.
func stacksFor(opt Options) []LearnerStack {
	if opt.Learner == "" && opt.Schedule == "" {
		return LearnerGrid()
	}
	var out []LearnerStack
	for _, st := range LearnerGrid() {
		if (opt.Learner == "" || st.Algorithm == opt.Learner) &&
			(opt.Schedule == "" || st.Schedule == opt.Schedule) {
			out = append(out, st)
		}
	}
	if len(out) == 0 {
		algo, sched := opt.Learner, opt.Schedule
		if algo == "" {
			algo = learn.DefaultAlgorithm
		}
		if sched == "" {
			sched = learn.DefaultSchedule
		}
		out = []LearnerStack{{Algorithm: algo, Schedule: sched}}
	}
	return out
}

// LearnerRow is one stack's aggregate across all scenarios.
type LearnerRow struct {
	Stack    string
	NormExec float64
	NormMem  float64
	// DecisionShare is the mode mix of the frozen test runs, in percent
	// of all invocations across scenarios.
	DecisionShare [soc.NumModes]float64
}

// LearnersResult is the learner-comparison artifact.
type LearnersResult struct {
	Scenarios []SweepScenarioInfo
	Rows      []LearnerRow
	// Notes carries the fidelity provenance of non-full runs (calibration
	// error bounds, escalation coverage); empty — and the rendered report
	// byte-identical to before the field existed — at full fidelity.
	Notes []string
}

// learnerCell is one (scenario, stack) measurement, collected by index.
type learnerCell struct {
	exec, mem float64
	decisions [soc.NumModes]int64
	// screened marks analytical estimates; escalated marks auto cells
	// re-run cycle-accurately after an ambiguous screen.
	screened  bool
	escalated bool
}

// learnerCellImage is the persisted (exported-field) form of one cell.
// Screened/Escalated are zero-valued in pre-existing checkpoints, which
// gob decodes fine; full-fidelity cells never set them.
type learnerCellImage struct {
	Exec      float64
	Mem       float64
	Decisions [soc.NumModes]int64
	Screened  bool
	Escalated bool
}

// learnersParamHash fingerprints every input that determines a grid
// cell's value, including the resolved stack list (a -learner/-schedule
// narrowing changes cell indices, so it changes the hash and therefore
// the checkpoint identity).
func learnersParamHash(opt Options, stacks []LearnerStack) runKey {
	h := sha256.New()
	fmt.Fprintf(h, "learners|ckpt%d|rc%d|seed%d|train%d|inv%d|scen%d|proto=%s|fg=%t\n",
		checkpointVersion, runCacheVersion, opt.Seed, opt.TrainIterations,
		opt.MinInvocations, opt.LearnerScenarios, opt.Protocol, opt.FineGrain)
	for _, st := range stacks {
		fmt.Fprintf(h, "stack|%s\n", st.Label())
	}
	// Appended only for non-full runs, so pre-existing full-fidelity
	// checkpoints keep their hash and the fidelities never cross-replay.
	if fid := opt.fidelityMode(); fid != FidelityFull {
		fmt.Fprintf(h, "fidelity|%s|cmv%d\n", fid, costmodel.FormatVersion)
	}
	var k runKey
	h.Sum(k[:0])
	return k
}

// Learners runs the (learner stack × scenario) grid. Baselines fan out
// per scenario, then every (scenario, stack) trial fans out
// independently — each owns its agent and seeds derived from the
// scenario, so results collected by index aggregate byte-identically
// for any worker count. Grid cells checkpoint like the sweep's; the
// stage-1 preparations (app generation and the per-scenario baseline)
// are not checkpointed, because on resume the apps regenerate
// deterministically and the static-policy baseline run is served by the
// content-keyed run store from the same cache directory.
func Learners(opt Options) (*LearnersResult, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	ctx := opt.ctx()
	scens, err := scenario.Sample(scenarioSpec(opt, opt.MinInvocations), opt.LearnerScenarios, opt.Seed)
	if err != nil {
		return nil, err
	}
	stacks := stacksFor(opt)

	// Non-full fidelity calibrates (or revives) the analytical model
	// before any fan-out; one model serves every cell.
	fid := opt.fidelityMode()
	var model *costmodel.Model
	if fid != FidelityFull {
		if model, err = calibratedModel(ctx, opt); err != nil {
			return nil, fmt.Errorf("learners: %w", err)
		}
	}

	// Replay is on whenever shared mode is, so workers adopt the cells
	// their peers publish; single-process resume semantics are unchanged.
	ck, err := openCheckpoint("learners", learnersParamHash(opt, stacks), opt.Resume || opt.Shared)
	if err != nil {
		return nil, err
	}

	// Stage 1: per scenario, generate the (deterministic) training and
	// test applications once — every stack reuses them read-only, like
	// fig7's concurrent trials share one test app — pick the scenario's
	// evaluator, and run the normalization baseline under it: a screened
	// cell must normalize against the same model that produced it.
	// Escalated auto cells fetch the cycle-accurate baseline lazily
	// through the memoized run path, deduped across cells.
	type prep struct {
		train, test *workload.App
		ev          evaluator
		baseline    *workload.AppResult
	}
	preps := make([]prep, len(scens))
	if err := forEachOpt(opt, len(scens), func(i int) error {
		sc := scens[i]
		p := &preps[i]
		var err error
		if p.train, err = sc.App(1000); err != nil {
			return err
		}
		if p.test, err = sc.App(2000); err != nil {
			return err
		}
		if fid == FidelityFull {
			p.ev = simulator{ctx, sc.Cfg}
		} else if p.ev, err = newEstimator(sc.Cfg, model); err != nil {
			return err
		}
		p.baseline, err = p.ev.run(policy.NewFixed(soc.NonCohDMA), p.test, sc.Seed+3)
		return err
	}); err != nil {
		return nil, err
	}

	// trial trains one stack's agent under ev and measures it frozen,
	// normalized to baseline. Seeds mirror the sweep's per-scenario
	// derivation, so the "q+linear" row of a 1-scenario run matches the
	// sweep's "cohmeleon" measurement on the same scenario.
	trial := func(ev evaluator, i int, baseline *workload.AppResult) (learnerCell, error) {
		si, ki := i/len(stacks), i%len(stacks)
		sc, st, p := scens[si], stacks[ki], &preps[si]
		agentCfg := agentConfig(opt)
		agentCfg.Seed = opt.Seed + sc.Seed
		agentCfg.Learner = st.Algorithm
		agentCfg.Schedule = st.Schedule
		agent, err := core.New(agentCfg)
		if err != nil {
			return learnerCell{}, err
		}
		if err := trainCohmeleon(ev, agent, p.train, opt.TrainIterations, sc.Seed+7); err != nil {
			return learnerCell{}, fmt.Errorf("%s: %s: training: %w", sc.Cfg.Name, st.Label(), err)
		}
		agent.ResetDecisions()
		res, err := testPolicy(ev, agent, p.test, sc.Seed+3)
		if err != nil {
			return learnerCell{}, fmt.Errorf("%s: %s: %w", sc.Cfg.Name, st.Label(), err)
		}
		exec, mem := geoNormalized(res, baseline)
		return learnerCell{exec: exec, mem: mem, decisions: agent.Decisions(), screened: fid != FidelityFull}, nil
	}

	// Auto screens a scenario lazily, the first time one of its cells
	// computes, so fully replayed scenarios cost nothing: every stack of
	// the scenario is screened serially, in stack order, and its
	// contenders are marked for escalation — the same decision for any
	// worker count. Cells outside the band keep their screened values;
	// the contenders re-run under the simulator below.
	cells := make([]learnerCell, len(scens)*len(stacks))
	type screening struct {
		once     sync.Once
		cells    []learnerCell
		escalate []bool // nil: a clear winner, nothing escalates
		err      error
	}
	screens := make([]screening, len(scens))
	screen := func(si int) *screening {
		sg := &screens[si]
		sg.once.Do(func() {
			p := &preps[si]
			sg.cells = make([]learnerCell, len(stacks))
			execs := make([]float64, len(stacks))
			for ki := range stacks {
				if sg.cells[ki], sg.err = trial(p.ev, si*len(stacks)+ki, p.baseline); sg.err != nil {
					return
				}
				bump(screenedCells, 1)
				execs[ki] = sg.cells[ki].exec
			}
			sg.escalate = contenders(execs, escalationBand(model))
		})
		return sg
	}

	// Stage 2: the full grid.
	loadCell := func(i int) bool {
		var img learnerCellImage
		if !ck.load(i, &img) {
			return false
		}
		cells[i] = learnerCell{exec: img.Exec, mem: img.Mem, decisions: img.Decisions,
			screened: img.Screened, escalated: img.Escalated}
		opt.cellDone(CellEvent{Experiment: "learners", Index: i, Total: len(cells), Replayed: true})
		return true
	}
	computeCell := func(i int) error {
		si, ki := i/len(stacks), i%len(stacks)
		p := &preps[si]
		var err error
		switch {
		case fid == FidelityAuto:
			sg := screen(si)
			if sg.err != nil {
				return sg.err
			}
			if sg.escalate == nil || !sg.escalate[ki] {
				cells[i] = sg.cells[ki]
				break
			}
			// Escalated: cycle-accurate values need the cycle-accurate
			// baseline (memoized, shared across cells).
			sc := scens[si]
			sim := simulator{ctx, sc.Cfg}
			var baseline *workload.AppResult
			if baseline, err = sim.run(policy.NewFixed(soc.NonCohDMA), p.test, sc.Seed+3); err != nil {
				return fmt.Errorf("%s: %s: baseline: %w", sc.Cfg.Name, stacks[ki].Label(), err)
			}
			if cells[i], err = trial(sim, i, baseline); err != nil {
				return err
			}
			cells[i].escalated = true
			bump(escalatedCells, 1)
		default:
			if cells[i], err = trial(p.ev, i, p.baseline); err != nil {
				return err
			}
			if fid == FidelityScreening {
				bump(screenedCells, 1)
			}
		}
		ck.save(i, &learnerCellImage{Exec: cells[i].exec, Mem: cells[i].mem,
			Decisions: cells[i].decisions, Screened: cells[i].screened, Escalated: cells[i].escalated})
		opt.cellDone(CellEvent{Experiment: "learners", Index: i, Total: len(cells)})
		return nil
	}
	if err := runGrid(opt, ck, len(cells), loadCell, computeCell); err != nil {
		return nil, err
	}

	out := &LearnersResult{}
	for ki, st := range stacks {
		execs := make([]float64, len(scens))
		mems := make([]float64, len(scens))
		var decisions [soc.NumModes]int64
		var total int64
		for si := range scens {
			c := cells[si*len(stacks)+ki]
			execs[si], mems[si] = c.exec, c.mem
			for m, n := range c.decisions {
				decisions[m] += n
				total += n
			}
		}
		row := LearnerRow{
			Stack:    st.Label(),
			NormExec: stats.GeoMean(execs),
			NormMem:  stats.GeoMean(mems),
		}
		if total > 0 {
			for m := range decisions {
				row.DecisionShare[m] = 100 * float64(decisions[m]) / float64(total)
			}
		}
		out.Rows = append(out.Rows, row)
	}
	for si, sc := range scens {
		out.Scenarios = append(out.Scenarios, scenarioInfo(sc, preps[si].test.Invocations()))
	}
	if fid != FidelityFull {
		escalated := 0
		for i := range cells {
			if cells[i].escalated {
				escalated++
			}
		}
		out.Notes = append(out.Notes, fidelityNotes(fid, model, escalated, len(cells))...)
	}
	return out, nil
}

// Render formats the per-stack aggregate.
func (r *LearnersResult) Render() string {
	t := &Table{
		Title: fmt.Sprintf("Learners — %d stacks × %d randomized scenarios (geomean, normalized to fixed-non-coh-dma)",
			len(r.Rows), len(r.Scenarios)),
		Header: []string{"stack", "norm exec", "norm off-chip", "non-coh%", "llc-coh%", "coh-dma%", "full-coh%"},
	}
	for _, row := range r.Rows {
		t.AddRow(row.Stack, f2(row.NormExec), f2(row.NormMem),
			f1(row.DecisionShare[soc.NonCohDMA]), f1(row.DecisionShare[soc.LLCCohDMA]),
			f1(row.DecisionShare[soc.CohDMA]), f1(row.DecisionShare[soc.FullyCoh]))
	}
	t.AddNote("q+linear is the paper's agent; decision mix is from the frozen test runs")
	for _, n := range r.Notes {
		t.AddNote("%s", n)
	}
	return t.Render()
}
