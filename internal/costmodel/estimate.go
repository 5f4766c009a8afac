package costmodel

import (
	"fmt"

	"cohmeleon/internal/esp"
	"cohmeleon/internal/mem"
	"cohmeleon/internal/sim"
	"cohmeleon/internal/soc"
	"cohmeleon/internal/workload"
)

// Estimator drives whole applications through the analytical model,
// producing workload.AppResult phase and app totals shaped like the
// cycle-accurate runner's, so the experiment layer's normalization
// code consumes estimates unchanged; it keeps no invocation records.
// It replays the runner's structure — phases in sequence, threads in a
// phase concurrent, each thread serially looping over its accelerator
// chain — but replaces the event-driven simulation of each invocation
// with one model evaluation: policies still sense a (synthesized)
// system status and still observe a (synthesized) result, so learning
// policies train against the model exactly as they would against the
// simulator.
//
// The synthesized sensing makes one deliberate approximation: all
// datasets are treated as resident on a single memory partition, which
// is exact for the footprints scenarios draw (at most a few times the
// aggregate LLC, far below the 256 MB partition stripe the sequential
// heap allocates from).
type Estimator struct {
	ex  *Extractor
	m   *Model
	pms *soc.Params
	// tiles are synthetic read-only accelerator tiles, config order;
	// policies key internal state by ID and read InstName/Spec/Agent.
	tiles []soc.AccTile
	avail [][]soc.Mode
}

// NewEstimator pairs an extractor with a fitted model.
func NewEstimator(ex *Extractor, m *Model) *Estimator {
	cfg := ex.Config()
	e := &Estimator{ex: ex, m: m, pms: &cfg.Params}
	e.tiles = make([]soc.AccTile, len(cfg.Accs))
	e.avail = make([][]soc.Mode, len(cfg.Accs))
	for i := range cfg.Accs {
		inst := &cfg.Accs[i]
		agent := soc.NoAgent
		if inst.PrivateCache {
			agent = i
		}
		e.tiles[i] = soc.AccTile{ID: i, InstName: inst.InstName, Spec: inst.Spec, Agent: agent}
		e.avail[i] = e.tiles[i].AvailableModes()
	}
	return e
}

// threadState tracks one thread's analytic execution through a phase.
type threadState struct {
	spec    *workload.ThreadSpec
	lines   int64
	steps   int
	started bool
	last    soc.Action
	time    float64
	offchip float64
}

// Run estimates an application run under pol. The returned AppResult
// carries the cycle-accurate runner's per-phase cycle and off-chip
// totals and the app totals, but no invocation records: the
// synthesized invocation results reach only pol.Observe, in the same
// deterministic order the runner decides them.
func (e *Estimator) Run(pol esp.Policy, app *workload.App) (*workload.AppResult, error) {
	res := &workload.AppResult{App: app, Policy: pol.Name(),
		Phases: make([]workload.PhaseResult, 0, len(app.Phases))}
	if err := e.replay(pol, app, res); err != nil {
		return nil, err
	}
	return res, nil
}

// Train replays app under pol exactly as Run does — the same decisions,
// observations and policy state afterwards — but builds no result.
// Training loops keep only what the policy learned, so they use Train.
func (e *Estimator) Train(pol esp.Policy, app *workload.App) error {
	return e.replay(pol, app, nil)
}

// replay is the step-major analytic replay behind Run and Train; it
// appends each phase's totals to res unless res is nil. One esp.Result
// is reused for every observation, which is safe under the esp.Policy
// contract (policies retain neither the context nor the result past
// the call). The scratch space — the sensed context, the result and
// the thread states — is allocated per call, so concurrent replays on
// one Estimator never share it and a replay's allocations do not grow
// with its invocation count.
func (e *Estimator) replay(pol esp.Policy, app *workload.App, res *workload.AppResult) error {
	cfg := e.ex.Config()
	if err := app.Validate(cfg); err != nil {
		return err
	}
	ap, fineGrain := pol.(esp.ActionPolicy)
	ctx := &esp.Context{}
	r := &esp.Result{}
	maxThreads := 0
	for pi := range app.Phases {
		maxThreads = max(maxThreads, len(app.Phases[pi].Threads))
	}
	ths := make([]threadState, maxThreads)
	var x FeatureVec

	for pi := range app.Phases {
		phase := &app.Phases[pi]
		ths := ths[:len(phase.Threads)]
		maxSteps := 0
		for ti := range phase.Threads {
			ts := &phase.Threads[ti]
			st := &ths[ti]
			*st = threadState{
				spec:  ts,
				lines: (ts.FootprintBytes + mem.LineBytes - 1) / mem.LineBytes,
				steps: ts.Invocations(),
				last:  soc.ModeAction(soc.NonCohDMA),
			}
			// Dataset initialization (the runner's warm-up touch).
			e.touch(st, st.lines)
			maxSteps = max(maxSteps, st.steps)
		}

		// Step-major replay: at step k every live thread decides and runs
		// its k-th invocation. Sensing sees the other live threads at
		// their most recent action — threads before this one in index
		// order have already decided step k, later ones are still at
		// k−1 — which mirrors the simultaneous thread start of the
		// event-driven runner and is deterministic by construction.
		for k := 0; k < maxSteps; k++ {
			for ti := range ths {
				st := &ths[ti]
				if k >= st.steps {
					continue
				}
				loop := k / len(st.spec.Chain)
				link := k % len(st.spec.Chain)
				if link == 0 && loop > 0 && st.spec.RewriteFraction > 0 {
					e.touch(st, int64(float64(st.lines)*st.spec.RewriteFraction))
				}

				ai, ok := e.ex.AccIndex(st.spec.Chain[link])
				if !ok {
					return fmt.Errorf("costmodel: unknown accelerator %q", st.spec.Chain[link])
				}
				e.sense(ctx, ai, st.spec.FootprintBytes, ths, ti, k)
				var act soc.Action
				if fineGrain {
					act = ap.DecideAction(ctx)
				} else {
					act = soc.ModeAction(pol.Decide(ctx))
				}
				if !ctx.Allows(act.Hot()) || (act.IsSplit() && !ctx.Allows(act.Cold())) {
					return fmt.Errorf("costmodel: policy %s chose unavailable action %s on %s",
						pol.Name(), act, st.spec.Chain[link])
				}

				e.ex.Features(ai, act, st.spec.FootprintBytes, len(ths), &x)
				estExec, estMem := e.m.Estimate(&x)
				estExec += float64(pol.OverheadCycles())

				e.result(r, ai, act, st.spec.FootprintBytes, estExec, estMem, pol)
				pol.Observe(r)
				st.last = act
				st.started = true
				st.time += estExec
				st.offchip += estMem
			}
		}
		pr := workload.PhaseResult{Name: phase.Name}
		for ti := range ths {
			st := &ths[ti]
			if st.spec.ReadbackFraction > 0 {
				e.touch(st, int64(float64(st.lines)*st.spec.ReadbackFraction))
			}
			if st.time > float64(pr.Cycles) {
				pr.Cycles = sim.Cycles(st.time)
			}
			pr.OffChip += int64(st.offchip)
		}
		if pr.Cycles < 1 {
			pr.Cycles = 1
		}
		if res != nil {
			res.Phases = append(res.Phases, pr)
			res.Cycles += pr.Cycles
			res.OffChip += pr.OffChip
		}
	}
	return nil
}

// touch charges a CPU touch of n lines to the thread: datapath time per
// line plus a DRAM stream (one activation, then channel occupancy).
func (e *Estimator) touch(st *threadState, n int64) {
	if n <= 0 {
		return
	}
	st.time += float64(e.pms.DRAMLatencyCycles) +
		float64(n)*float64(e.pms.CPUTouchPerLine+e.pms.DRAMPerLineCycles)
	st.offchip += float64(n)
}

// sense fills ctx with the decision context the tracker would assemble:
// the other live threads of the phase are the active invocations, each
// at its most recent action's hot mode, all sharing one partition.
func (e *Estimator) sense(ctx *esp.Context, ai int, footprint int64, ths []threadState, self, k int) {
	cfg := e.ex.Config()
	*ctx = esp.Context{
		Acc:            &e.tiles[ai],
		Available:      e.avail[ai],
		FootprintBytes: footprint,
		L2Bytes:        cfg.L2Bytes(),
		LLCSliceBytes:  cfg.LLCSliceBytes(),
		TotalLLCBytes:  cfg.TotalLLCBytes(),
	}
	var nonCoh, toLLC int
	for ti := range ths {
		if ti == self {
			continue
		}
		st := &ths[ti]
		// Live: already decided at least once and not past its last step
		// at this decision point (threads after self decided step k−1).
		lastDone := k
		if ti > self {
			lastDone = k - 1
		}
		if !st.started || lastDone >= st.steps {
			continue
		}
		mode := st.last.Hot()
		ctx.ActiveCount++
		ctx.ActiveFootprintBytes += st.spec.FootprintBytes
		switch mode {
		case soc.NonCohDMA:
			ctx.ActiveNonCoh++
			nonCoh++
		case soc.LLCCohDMA:
			ctx.ActiveLLCCoh++
			toLLC++
		case soc.CohDMA:
			ctx.ActiveCohDMA++
			toLLC++
		case soc.FullyCoh:
			ctx.ActiveFullyCoh++
			ctx.FullyCohActive++
			toLLC++
		}
	}
	ctx.NonCohPerTile = float64(nonCoh)
	ctx.ToLLCPerTile = float64(toLLC)
	ctx.TileFootprintBytes = float64(footprint + ctx.ActiveFootprintBytes)
}

// result fills r with the esp.Result of an estimated invocation. The
// hardware-counter split is approximate: busy time is the estimate
// minus the fixed software costs the simulator charges outside the
// accelerator (driver, TLB load, interrupt, policy overhead), and
// communication is attributed half of busy time.
func (e *Estimator) result(r *esp.Result, ai int, act soc.Action, footprint int64, estExec, estMem float64, pol esp.Policy) {
	pages := (footprint + mem.PageBytes - 1) / mem.PageBytes
	software := float64(e.pms.DriverCycles+e.pms.IRQCycles) +
		float64(pages)*float64(e.pms.TLBPerPageCycles) +
		float64(pol.OverheadCycles())
	active := estExec - software
	if active < 1 {
		active = 1
	}
	*r = esp.Result{
		Acc:            &e.tiles[ai],
		Mode:           act.Hot(),
		Action:         act,
		FootprintBytes: footprint,
		ExecCycles:     sim.Cycles(estExec),
		ActiveCycles:   sim.Cycles(active),
		CommCycles:     sim.Cycles(active / 2),
		OffChipApprox:  estMem,
		OffChipTrue:    int64(estMem),
	}
}
