package costmodel

import (
	"fmt"
	"sync"

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
// Everything about an invocation that does not depend on the policy's
// decision is compiled once per application into a plan (see begin):
// the first replay of an app validates it and evaluates the model for
// every chain link under every available uniform mode, and later
// replays of the same app — training iterations, then every policy on
// the test app — only look the estimates up. Apps must not change
// after their first replay. Plans are built under a mutex and never
// mutated afterwards, so concurrent replays on one Estimator (the
// learners experiment shares one per scenario) are safe. A finished
// replay leaves its scratch space for the next, so serial replays
// allocate it once per Estimator.
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

	mu    sync.Mutex
	plans map[*workload.App][]linkPlan
	spare *scratch // a finished replay's scratch, for the next replay
}

// NewEstimator pairs an extractor with a fitted model.
func NewEstimator(ex *Extractor, m *Model) *Estimator {
	cfg := ex.Config()
	e := &Estimator{ex: ex, m: m, pms: &cfg.Params, plans: make(map[*workload.App][]linkPlan)}
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

// linkPlan is one chain link of a planned app: the accelerator's config
// index and the model's (execution cycles, off-chip lines) estimate of
// the link under each uniform mode the accelerator offers (zero for the
// modes it does not).
type linkPlan struct {
	acc       int32
	exec, mem [soc.NumModes]float64
}

// scratch is a replay's working space: the sensed context, the
// observed result, the thread states and a static policy's mode per
// accelerator.
type scratch struct {
	ctx   esp.Context
	r     esp.Result
	ths   []threadState
	modes []soc.Mode
}

// begin returns app's plan, compiling it on the app's first replay, and
// scratch space for the replay: the spare one if no other replay holds
// it. A plan is one flat slice: every thread's chain, threads in phase
// and index order, so a replay walking the app in that order finds each
// thread's links at a running offset. An invalid app is not cached:
// every replay of it reports the validation error.
func (e *Estimator) begin(app *workload.App) ([]linkPlan, *scratch, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	p, ok := e.plans[app]
	if !ok {
		var err error
		if p, err = e.compile(app); err != nil {
			return nil, nil, err
		}
		e.plans[app] = p
	}
	s := e.spare
	if s == nil {
		s = new(scratch)
	}
	e.spare = nil
	return p, s, nil
}

// end hands a finished replay's scratch back as the spare.
func (e *Estimator) end(s *scratch) {
	e.mu.Lock()
	e.spare = s
	e.mu.Unlock()
}

// compile validates app and evaluates the model for every chain link.
// The features of a uniform-mode invocation depend only on the
// accelerator, the mode, the thread's footprint and the phase's thread
// count, so each estimate is exactly what the per-invocation
// evaluation would produce.
func (e *Estimator) compile(app *workload.App) ([]linkPlan, error) {
	if err := app.Validate(e.ex.Config()); err != nil {
		return nil, err
	}
	n := 0
	for pi := range app.Phases {
		for ti := range app.Phases[pi].Threads {
			n += len(app.Phases[pi].Threads[ti].Chain)
		}
	}
	p := make([]linkPlan, 0, n)
	var x FeatureVec
	for pi := range app.Phases {
		phase := &app.Phases[pi]
		for ti := range phase.Threads {
			ts := &phase.Threads[ti]
			for _, inst := range ts.Chain {
				ai, ok := e.ex.AccIndex(inst)
				if !ok {
					return nil, fmt.Errorf("costmodel: unknown accelerator %q", inst)
				}
				lp := linkPlan{acc: int32(ai)}
				shape := shapeFor(&e.ex.cfg.Accs[ai], ts.FootprintBytes)
				for _, m := range e.avail[ai] {
					e.ex.shapedFeatures(ai, soc.ModeAction(m), ts.FootprintBytes, len(phase.Threads), &shape, &x)
					lp.exec[m], lp.mem[m] = e.m.Estimate(&x)
				}
				p = append(p, lp)
			}
		}
	}
	return p, nil
}

// threadState tracks one thread's analytic execution through a phase.
type threadState struct {
	spec    *workload.ThreadSpec
	links   []linkPlan // the thread's chain in the app's plan
	lines   int64
	steps   int
	mode    soc.Mode // hot mode of the thread's latest decision
	time    float64
	offchip float64
}

// tally sums the phase's live threads — those that have decided at
// least once and are not past their last step — as sensing sees them,
// each at its latest decision's hot mode. Every field is an integer
// sum, so keeping it incrementally senses exactly what a scan of the
// threads would.
type tally struct {
	count     int
	footprint int64
	modes     [soc.NumModes]int
}

func (t *tally) add(st *threadState) {
	t.count++
	t.footprint += st.spec.FootprintBytes
	t.modes[st.mode]++
}

func (t *tally) remove(st *threadState) {
	t.count--
	t.footprint -= st.spec.FootprintBytes
	t.modes[st.mode]--
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
// appends each phase's totals to res unless res is nil. Per invocation
// it senses from the phase's live-thread tally, asks the policy, and
// looks the estimate up in the app's plan; only split actions (the
// fine-grain action space) evaluate the model in the loop. A static
// policy (esp.StaticPolicy) decides once per accelerator before the
// first phase, and its invocations only add their planned estimates:
// it reads no sensed status and learns nothing, so skipping sense,
// Decide, result and Observe changes no total, and each thread's sums
// take the same terms in the same order. One esp.Result is reused for
// every observation, which is safe under the esp.Policy contract
// (policies retain neither the context nor the result past the call),
// and for the same reason the scratch space — the context, the result,
// the thread states and the static modes — passes from one replay to
// the next. Concurrent replays on one Estimator never share it (only
// one holds the spare), and a replay's allocations do not grow with
// its invocation count.
func (e *Estimator) replay(pol esp.Policy, app *workload.App, res *workload.AppResult) error {
	links, s, err := e.begin(app)
	if err != nil {
		return err
	}
	defer e.end(s)
	ap, fineGrain := pol.(esp.ActionPolicy)
	sp, static := pol.(esp.StaticPolicy)
	static = static && !fineGrain && sp.Static()
	ctx, r := &s.ctx, &s.r
	overhead := float64(pol.OverheadCycles())
	if static {
		if err := e.decideStatic(pol, s); err != nil {
			return err
		}
	}
	maxThreads := 0
	for pi := range app.Phases {
		maxThreads = max(maxThreads, len(app.Phases[pi].Threads))
	}
	if cap(s.ths) < maxThreads {
		s.ths = make([]threadState, maxThreads)
	}
	ths := s.ths[:maxThreads]
	var x FeatureVec

	off := 0
	for pi := range app.Phases {
		phase := &app.Phases[pi]
		ths := ths[:len(phase.Threads)]
		maxSteps := 0
		for ti := range phase.Threads {
			ts := &phase.Threads[ti]
			st := &ths[ti]
			*st = threadState{
				spec:  ts,
				links: links[off : off+len(ts.Chain)],
				lines: (ts.FootprintBytes + mem.LineBytes - 1) / mem.LineBytes,
				steps: ts.Invocations(),
			}
			off += len(ts.Chain)
			// Dataset initialization (the runner's warm-up touch).
			e.touch(st, st.lines)
			maxSteps = max(maxSteps, st.steps)
		}

		// Step-major replay: at step k every live thread decides and runs
		// its k-th invocation. Sensing sees the other live threads at
		// their most recent action — threads before this one in index
		// order have already decided step k, later ones are still at
		// k−1 — which mirrors the simultaneous thread start of the
		// event-driven runner and is deterministic by construction. A
		// thread joins the tally at its first decision and leaves it at
		// its turn in the first step past its last, and its own entry is
		// out of the tally while it senses.
		var live tally
		for k := 0; k < maxSteps; k++ {
			for ti := range ths {
				st := &ths[ti]
				if k >= st.steps {
					if k == st.steps && !static {
						live.remove(st)
					}
					continue
				}
				loop := k / len(st.links)
				link := k % len(st.links)
				if link == 0 && loop > 0 && st.spec.RewriteFraction > 0 {
					e.touch(st, int64(float64(st.lines)*st.spec.RewriteFraction))
				}

				lp := &st.links[link]
				ai := int(lp.acc)
				if static {
					m := s.modes[ai]
					st.time += lp.exec[m] + overhead
					st.offchip += lp.mem[m]
					continue
				}
				if k > 0 {
					live.remove(st)
				}
				e.sense(ctx, ai, st.spec.FootprintBytes, &live)
				var act soc.Action
				if fineGrain {
					act = ap.DecideAction(ctx)
				} else {
					act = soc.ModeAction(pol.Decide(ctx))
				}
				if !ctx.Allows(act.Hot()) || !ctx.Allows(act.Cold()) {
					return fmt.Errorf("costmodel: policy %s chose unavailable action %s on %s",
						pol.Name(), act, st.spec.Chain[link])
				}

				var estExec, estMem float64
				if act.IsSplit() {
					e.ex.Features(ai, act, st.spec.FootprintBytes, len(ths), &x)
					estExec, estMem = e.m.Estimate(&x)
				} else {
					estExec, estMem = lp.exec[act.Hot()], lp.mem[act.Hot()]
				}
				estExec += overhead

				e.result(r, ai, act, st.spec.FootprintBytes, estExec, estMem, overhead)
				pol.Observe(r)
				st.mode = act.Hot()
				live.add(st)
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

// decideStatic asks a static policy for every accelerator's mode, in
// config order, into s.modes. The context is sensed as for an
// invocation with no other live thread; a static policy reads only its
// accelerator and available modes.
func (e *Estimator) decideStatic(pol esp.Policy, s *scratch) error {
	if cap(s.modes) < len(e.tiles) {
		s.modes = make([]soc.Mode, len(e.tiles))
	}
	s.modes = s.modes[:len(e.tiles)]
	var none tally
	for ai := range e.tiles {
		e.sense(&s.ctx, ai, 0, &none)
		m := pol.Decide(&s.ctx)
		if !s.ctx.Allows(m) {
			return fmt.Errorf("costmodel: policy %s chose unavailable action %s on %s",
				pol.Name(), soc.ModeAction(m), e.tiles[ai].InstName)
		}
		s.modes[ai] = m
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
// the live threads in the tally are the other active invocations, each
// at its most recent action's hot mode, all sharing one partition. The
// fields are assigned in place (a composite literal would be built in a
// temporary and copied, once per decision); every field it does not
// sense is zeroed, so ctx equals a freshly built literal.
func (e *Estimator) sense(ctx *esp.Context, ai int, footprint int64, live *tally) {
	cfg := e.ex.Config()
	nonCoh := live.modes[soc.NonCohDMA]
	toLLC := live.modes[soc.LLCCohDMA] + live.modes[soc.CohDMA] + live.modes[soc.FullyCoh]
	ctx.Acc = &e.tiles[ai]
	ctx.Available = e.avail[ai]
	ctx.FootprintBytes = footprint
	ctx.Partitions = nil
	ctx.FullyCohActive = live.modes[soc.FullyCoh]
	ctx.NonCohPerTile = float64(nonCoh)
	ctx.ToLLCPerTile = float64(toLLC)
	ctx.TileFootprintBytes = float64(footprint + live.footprint)
	ctx.ActiveCount = live.count
	ctx.ActiveNonCoh = nonCoh
	ctx.ActiveLLCCoh = live.modes[soc.LLCCohDMA]
	ctx.ActiveCohDMA = live.modes[soc.CohDMA]
	ctx.ActiveFullyCoh = live.modes[soc.FullyCoh]
	ctx.ActiveFootprintBytes = live.footprint
	ctx.L2Bytes = cfg.L2Bytes()
	ctx.LLCSliceBytes = cfg.LLCSliceBytes()
	ctx.TotalLLCBytes = cfg.TotalLLCBytes()
}

// result fills r with the esp.Result of an estimated invocation. The
// hardware-counter split is approximate: busy time is the estimate
// minus the fixed software costs the simulator charges outside the
// accelerator (driver, TLB load, interrupt, the policy's overhead), and
// communication is attributed half of busy time.
func (e *Estimator) result(r *esp.Result, ai int, act soc.Action, footprint int64, estExec, estMem, overhead float64) {
	pages := (footprint + mem.PageBytes - 1) / mem.PageBytes
	software := float64(e.pms.DriverCycles+e.pms.IRQCycles) +
		float64(pages)*float64(e.pms.TLBPerPageCycles) +
		overhead
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
