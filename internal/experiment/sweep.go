package experiment

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"os"

	"cohmeleon/internal/core"
	"cohmeleon/internal/costmodel"
	"cohmeleon/internal/esp"
	"cohmeleon/internal/learn"
	"cohmeleon/internal/policy"
	"cohmeleon/internal/scenario"
	"cohmeleon/internal/soc"
	"cohmeleon/internal/stats"
	"cohmeleon/internal/workload"
)

// The sweep experiment scales the paper's Figure-9 question — does the
// learned policy hold up across SoC configurations? — from eight
// hand-built SoCs to an arbitrary randomized scenario set: N sampled
// (SoC topology × workload mix) scenarios, each running the policy
// roster, reported as per-policy geomeans normalized per scenario to
// the fixed non-coherent-DMA baseline. With Options.QTableSave the
// per-scenario Cohmeleon tables are merged (visit-weighted) and written
// out; with Options.QTableLoad a previously saved table is evaluated
// frozen on this run's scenarios as "cohmeleon-transfer" — train on one
// seed's scenario set, test on a disjoint seed's, and the transfer row
// answers the paper's generalization question at sweep scale.
//
// The roster deliberately omits the fixed-heterogeneous baseline: its
// per-spec profiling fan-out would dwarf the per-scenario cost at sweep
// scale without adding information the Figure-9 run doesn't already
// give.

// sweepPerScenario is one scenario's measurements, collected by index.
type sweepPerScenario struct {
	info  SweepScenarioInfo
	names []string  // policy names, roster order
	execs []float64 // per policy, geomean over phases vs baseline
	mems  []float64
	state *learn.TabularState // the trained agent's full learner state
	// screened marks values estimated by the analytical cost model;
	// escalated marks auto-mode cells re-run cycle-accurately after an
	// ambiguous screen. Both persist in the checkpoint image so resumed
	// runs render the same fidelity notes.
	screened  bool
	escalated bool
}

// SweepScenarioInfo summarizes one sampled scenario for the report.
type SweepScenarioInfo struct {
	Name        string
	MeshW       int
	MeshH       int
	CPUs        int
	MemTiles    int
	LLCSliceKB  int
	L2KB        int
	Accs        int
	Invocations int
}

// SweepRow is one policy's aggregate across all scenarios.
type SweepRow struct {
	Policy   string
	NormExec float64
	NormMem  float64
}

// SweepResult is the sweep's rendered artifact.
type SweepResult struct {
	Scenarios []SweepScenarioInfo
	Rows      []SweepRow
	Notes     []string
}

// renamedPolicy reports a distinct name for a wrapped policy, so the
// transferred frozen agent and the per-scenario trained agent stay
// distinguishable in the same report. It forwards the freezer methods,
// so testPolicy's freeze-for-measurement safety sees through the
// wrapper even for a future non-frozen learning policy.
type renamedPolicy struct {
	esp.Policy
	name string
}

func (r renamedPolicy) Name() string { return r.name }

func (r renamedPolicy) Freeze() {
	if f, ok := r.Policy.(freezer); ok {
		f.Freeze()
	}
}

func (r renamedPolicy) Unfreeze() {
	if f, ok := r.Policy.(freezer); ok {
		f.Unfreeze()
	}
}

// Frozen reports true for non-learning wrapped policies: there is
// nothing to freeze, so testPolicy must not try to unfreeze either.
func (r renamedPolicy) Frozen() bool {
	f, ok := r.Policy.(freezer)
	return !ok || f.Frozen()
}

// sweepPolicies builds one scenario's policy roster. The first entry is
// the normalization baseline. loaded, when non-nil, contributes a
// frozen pre-trained agent evaluated without further learning. The
// trained agent's learner stack follows the options (-learner,
// -schedule); the transfer agent adopts whatever algorithm the loaded
// state was trained with (a PR-3-era file restores as "q").
func sweepPolicies(sc scenario.Scenario, opt Options, loaded *learn.TabularState) ([]esp.Policy, *core.Cohmeleon, error) {
	agentCfg := agentConfig(opt)
	agentCfg.Seed = opt.Seed + sc.Seed
	agent, err := core.New(agentCfg)
	if err != nil {
		return nil, nil, err
	}
	pols := []esp.Policy{
		policy.NewFixed(soc.NonCohDMA),
		policy.NewFixed(soc.LLCCohDMA),
		policy.NewFixed(soc.CohDMA),
		policy.NewFixed(soc.FullyCoh),
		policy.NewRandom(sc.Seed),
		policy.NewManual(),
		agent,
	}
	if loaded != nil {
		transferCfg := core.DefaultConfig()
		transferCfg.Seed = opt.Seed + sc.Seed
		transfer, err := core.New(transferCfg)
		if err != nil {
			return nil, nil, err
		}
		if err := transfer.SetLearnerState(loaded); err != nil {
			return nil, nil, err
		}
		transfer.Freeze()
		pols = append(pols, renamedPolicy{Policy: transfer, name: "cohmeleon-transfer"})
	}
	return pols, agent, nil
}

// sweepScenario trains and measures one scenario under ev: the agent
// learns on the scenario's training application, then every policy runs
// the test application, normalized to the first. All seeds derive from
// the scenario, so the outcome is independent of which worker runs it.
// The trained agent is returned for the caller to snapshot.
func sweepScenario(ev evaluator, sc scenario.Scenario, opt Options, loaded *learn.TabularState) (sweepPerScenario, *core.Cohmeleon, error) {
	out := sweepPerScenario{}
	train, err := sc.App(1000)
	if err != nil {
		return out, nil, err
	}
	test, err := sc.App(2000)
	if err != nil {
		return out, nil, err
	}
	pols, agent, err := sweepPolicies(sc, opt, loaded)
	if err != nil {
		return out, nil, err
	}
	if err := trainCohmeleon(ev, agent, train, opt.TrainIterations, sc.Seed+7); err != nil {
		return out, nil, fmt.Errorf("%s: training: %w", sc.Cfg.Name, err)
	}
	results := make([]*workload.AppResult, len(pols))
	for i, pol := range pols {
		res, err := testPolicy(ev, pol, test, sc.Seed+3)
		if err != nil {
			return out, nil, fmt.Errorf("%s: %s: %w", sc.Cfg.Name, pol.Name(), err)
		}
		results[i] = res
	}
	baseline := results[0]
	for i, res := range results {
		exec, mem := geoNormalized(res, baseline)
		out.names = append(out.names, pols[i].Name())
		out.execs = append(out.execs, exec)
		out.mems = append(out.mems, mem)
	}
	out.info = scenarioInfo(sc, test.Invocations())
	return out, agent, nil
}

// scenarioInfo summarizes a scenario for a report's inventory.
func scenarioInfo(sc scenario.Scenario, invocations int) SweepScenarioInfo {
	return SweepScenarioInfo{
		Name:  sc.Cfg.Name,
		MeshW: sc.Cfg.MeshW, MeshH: sc.Cfg.MeshH,
		CPUs: sc.Cfg.CPUs, MemTiles: sc.Cfg.MemTiles,
		LLCSliceKB: sc.Cfg.LLCSliceKB, L2KB: sc.Cfg.L2KB,
		Accs:        len(sc.Cfg.Accs),
		Invocations: invocations,
	}
}

// sweepCell evaluates one scenario at the requested fidelity; the
// fidelity only picks the evaluator. Full runs the simulator and keeps
// the trained agent's learner state (the only state Q-table export may
// merge). Screening runs the estimator. Auto screens first, then — when
// the screened per-policy execs hold contenders too close to call at
// the model's demonstrated accuracy — discards the estimate and re-runs
// the cell under the simulator, so escalated cells carry exact
// full-fidelity values.
func sweepCell(ctx context.Context, sc scenario.Scenario, opt Options, loaded *learn.TabularState, fid string, model *costmodel.Model) (sweepPerScenario, error) {
	sim := simulator{ctx, sc.Cfg}
	if fid == FidelityFull {
		out, agent, err := sweepScenario(sim, sc, opt, loaded)
		if err == nil {
			out.state = agent.LearnerState()
		}
		return out, err
	}
	est, err := newEstimator(sc.Cfg, model)
	if err != nil {
		return sweepPerScenario{}, err
	}
	out, _, err := sweepScenario(est, sc, opt, loaded)
	if err != nil {
		return out, err
	}
	bump(screenedCells, 1)
	if fid == FidelityAuto && contenders(out.execs, escalationBand(model)) != nil {
		bump(escalatedCells, 1)
		out, _, err = sweepScenario(sim, sc, opt, loaded)
		out.escalated = true
	}
	out.screened = true
	return out, err
}

// sweepParamHash fingerprints every input that determines a sweep
// cell's value: the option fields the cells observe, the content of any
// loaded learner state (it adds the transfer row), and the format
// versions (runCacheVersion is the simulator timing model's proxy — a
// model change invalidates checkpoints exactly like it invalidates the
// run store). QTableSave is deliberately absent: it only affects the
// post-aggregation merge, so a run interrupted without it can resume
// with it.
func sweepParamHash(opt Options, loadedRaw []byte) runKey {
	h := sha256.New()
	fmt.Fprintf(h, "sweep|ckpt%d|rc%d|seed%d|train%d|inv%d|scen%d|learner=%s|sched=%s|proto=%s|fg=%t|load=%d\n",
		checkpointVersion, runCacheVersion, opt.Seed, opt.TrainIterations,
		opt.MinInvocations, opt.SweepScenarios, opt.Learner, opt.Schedule,
		opt.Protocol, opt.FineGrain, len(loadedRaw))
	h.Write(loadedRaw)
	// The fidelity token is appended only for non-full runs, so every
	// pre-existing full-fidelity checkpoint keeps its hash — and full and
	// screened cells can never replay into each other's runs.
	if fid := opt.fidelityMode(); fid != FidelityFull {
		fmt.Fprintf(h, "fidelity|%s|cmv%d\n", fid, costmodel.FormatVersion)
	}
	var k runKey
	h.Sum(k[:0])
	return k
}

// sweepCellImage is the persisted (exported-field) form of one
// scenario's measurements; the learner state rides along as its own
// versioned encoding so the checkpoint inherits learn's integrity
// checks.
type sweepCellImage struct {
	Info  SweepScenarioInfo
	Names []string
	Execs []float64
	Mems  []float64
	State []byte
	// Screened/Escalated are zero-valued in every pre-existing
	// checkpoint, which gob decodes fine — and full-fidelity cells never
	// set them, so full checkpoints stay byte-compatible both ways.
	Screened  bool
	Escalated bool
}

// image converts a completed cell for persistence.
func (s *sweepPerScenario) image() (*sweepCellImage, error) {
	img := &sweepCellImage{Info: s.info, Names: s.names, Execs: s.execs, Mems: s.mems,
		Screened: s.screened, Escalated: s.escalated}
	if s.state != nil {
		var buf bytes.Buffer
		if err := learn.EncodeState(&buf, s.state); err != nil {
			return nil, err
		}
		img.State = buf.Bytes()
	}
	return img, nil
}

// sweepCellFromImage revives a replayed cell, re-validating the
// embedded learner state.
func sweepCellFromImage(img *sweepCellImage) (sweepPerScenario, error) {
	out := sweepPerScenario{info: img.Info, names: img.Names, execs: img.Execs, mems: img.Mems,
		screened: img.Screened, escalated: img.Escalated}
	if len(img.State) > 0 {
		st, err := learn.DecodeState(bytes.NewReader(img.State))
		if err != nil {
			return out, err
		}
		out.state = st
	}
	return out, nil
}

// Sweep runs the randomized scenario grid. Scenarios fan out on the
// worker pool; each cell draws its own scenario (scenario.Draw is a
// pure function of spec, index and seed), so no scenario list lives for
// the grid and replayed cells draw nothing. Each cell is self-contained
// (own SoC, policies, seeds) and results are collected by index, then
// aggregated in index order, so the report is byte-identical for any
// worker count. With a cache directory configured every completed
// scenario checkpoints, and with Options.Resume the checkpointed cells
// replay instead of re-running — interrupt, resume, and uninterrupted
// runs all render byte-identical reports.
func Sweep(opt Options) (*SweepResult, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	ctx := opt.ctx()
	var loaded *learn.TabularState
	var loadedRaw []byte
	if opt.QTableLoad != "" {
		raw, err := os.ReadFile(opt.QTableLoad)
		if err != nil {
			return nil, fmt.Errorf("sweep: loading learner state: %w", err)
		}
		st, err := learn.DecodeState(bytes.NewReader(raw))
		if err != nil {
			return nil, fmt.Errorf("sweep: loading learner state: %w", err)
		}
		loaded, loadedRaw = st, raw
	}

	// The spec is checked before calibration; the cells draw from it.
	spec := scenarioSpec(opt, opt.MinInvocations)
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	n := opt.SweepScenarios

	// Non-full fidelity calibrates (or revives) the analytical model
	// before the fan-out: one model serves every cell, and its
	// cycle-accurate calibration runs flow through the ordinary memoized
	// run path.
	fid := opt.fidelityMode()
	var model *costmodel.Model
	if fid != FidelityFull {
		var err error
		if model, err = calibratedModel(ctx, opt); err != nil {
			return nil, fmt.Errorf("sweep: %w", err)
		}
	}

	// Shared workers must adopt the cells their peers publish, so replay
	// is on whenever the mode is — resume semantics within one process
	// are unchanged.
	ck, err := openCheckpoint("sweep", sweepParamHash(opt, loadedRaw), opt.Resume || opt.Shared)
	if err != nil {
		return nil, err
	}

	perScenario := make([]sweepPerScenario, n)
	load := func(i int) bool {
		var img sweepCellImage
		if !ck.load(i, &img) {
			return false
		}
		cell, err := sweepCellFromImage(&img)
		if err != nil {
			bump(ckptReplayed, -1) // envelope verified but the payload didn't revive
			ck.invalidate(i, err)
			return false
		}
		perScenario[i] = cell
		opt.cellDone(CellEvent{Experiment: "sweep", Index: i, Total: n, Replayed: true})
		return true
	}
	compute := func(i int) error {
		sc, err := scenario.Draw(spec, i, opt.Seed)
		if err != nil {
			return err
		}
		res, err := sweepCell(ctx, sc, opt, loaded, fid, model)
		perScenario[i] = res
		if err == nil {
			if img, ierr := res.image(); ierr == nil {
				ck.save(i, img)
			}
			opt.cellDone(CellEvent{Experiment: "sweep", Index: i, Total: n})
		}
		return err
	}
	if err := runGrid(opt, ck, n, load, compute); err != nil {
		return nil, err
	}

	// Labels come from the roster itself (renamedPolicy supplies
	// "cohmeleon-transfer"), so the report can never drift out of sync
	// with sweepPolicies; every scenario runs the same roster.
	policyNames := perScenario[0].names
	out := &SweepResult{}
	for pi, name := range policyNames {
		execs := make([]float64, len(perScenario))
		mems := make([]float64, len(perScenario))
		for si := range perScenario {
			execs[si] = perScenario[si].execs[pi]
			mems[si] = perScenario[si].mems[pi]
		}
		out.Rows = append(out.Rows, SweepRow{
			Policy:   name,
			NormExec: stats.GeoMean(execs),
			NormMem:  stats.GeoMean(mems),
		})
	}
	for si := range perScenario {
		out.Scenarios = append(out.Scenarios, perScenario[si].info)
	}

	if fid != FidelityFull {
		escalated := 0
		for si := range perScenario {
			if perScenario[si].escalated {
				escalated++
			}
		}
		out.Notes = append(out.Notes, fidelityNotes(fid, model, escalated, len(perScenario))...)
	}

	if loaded != nil {
		out.Notes = append(out.Notes, fmt.Sprintf(
			"cohmeleon-transfer evaluates the %s state from %s frozen (no training on these scenarios)",
			loaded.Algo, opt.QTableLoad))
	}
	if opt.QTableSave != "" {
		states := make([]*learn.TabularState, len(perScenario))
		for si := range perScenario {
			states[si] = perScenario[si].state
		}
		merged, err := learn.MergeStates(states)
		if err != nil {
			return nil, fmt.Errorf("sweep: merging learner states: %w", err)
		}
		if err := learn.SaveStateFile(opt.QTableSave, merged); err != nil {
			return nil, fmt.Errorf("sweep: saving learner state: %w", err)
		}
		out.Notes = append(out.Notes, fmt.Sprintf(
			"merged %s learner state (%d visits from %d scenarios) saved to %s",
			merged.Algo, merged.TotalVisits(), len(perScenario), opt.QTableSave))
	}
	return out, nil
}

// Row returns the aggregate for a policy.
func (r *SweepResult) Row(pol string) (SweepRow, bool) {
	for _, row := range r.Rows {
		if row.Policy == pol {
			return row, true
		}
	}
	return SweepRow{}, false
}

// Render formats the per-policy aggregate and the scenario inventory.
func (r *SweepResult) Render() string {
	mt := &MultiTable{}
	summary := &Table{
		Title: fmt.Sprintf("Sweep — %d randomized scenarios (geomean across scenarios, normalized to fixed-non-coh-dma)",
			len(r.Scenarios)),
		Header: []string{"policy", "norm exec", "norm off-chip"},
	}
	for _, row := range r.Rows {
		summary.AddRow(row.Policy, f2(row.NormExec), f2(row.NormMem))
	}
	summary.Notes = append(summary.Notes, r.Notes...)
	mt.Tables = append(mt.Tables, summary)

	inv := &Table{
		Title:  "Sweep — scenario inventory",
		Header: []string{"scenario", "mesh", "cpus", "mem", "llc-slice", "l2", "accs", "invocations"},
	}
	for _, s := range r.Scenarios {
		inv.AddRow(s.Name, fmt.Sprintf("%dx%d", s.MeshW, s.MeshH),
			fmt.Sprintf("%d", s.CPUs), fmt.Sprintf("%d", s.MemTiles),
			fmt.Sprintf("%dK", s.LLCSliceKB), fmt.Sprintf("%dK", s.L2KB),
			fmt.Sprintf("%d", s.Accs), fmt.Sprintf("%d", s.Invocations))
	}
	mt.Tables = append(mt.Tables, inv)
	return mt.Render()
}
