package costmodel

import (
	"bytes"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"cohmeleon/internal/core"
	"cohmeleon/internal/esp"
	"cohmeleon/internal/learn"
	"cohmeleon/internal/mem"
	"cohmeleon/internal/policy"
	"cohmeleon/internal/sim"
	"cohmeleon/internal/soc"
	"cohmeleon/internal/workload"
)

// testEstimator pairs a SoC6 extractor with a model fitted on the
// synthetic calibration set.
func testEstimator(tb testing.TB) *Estimator {
	tb.Helper()
	ex, err := NewExtractor(soc.SoC6())
	if err != nil {
		tb.Fatal(err)
	}
	m, err := Fit(syntheticSamples(200), "mesi")
	if err != nil {
		tb.Fatal(err)
	}
	return NewEstimator(ex, m)
}

// testApp generates a multi-phase, multi-thread application on the
// estimator's SoC.
func testApp(tb testing.TB, est *Estimator, seed uint64) *workload.App {
	tb.Helper()
	app, err := workload.Generate(est.ex.Config(), workload.GenConfig{}, seed)
	if err != nil {
		tb.Fatal(err)
	}
	return app
}

// doubledLoops returns app's twin with every thread looping twice as
// often: the same phases, threads and chains, twice the invocations.
func doubledLoops(app *workload.App) *workload.App {
	twin := &workload.App{Name: app.Name + "-x2", Phases: make([]workload.PhaseSpec, len(app.Phases))}
	for pi, ph := range app.Phases {
		twin.Phases[pi] = workload.PhaseSpec{Name: ph.Name, Threads: append([]workload.ThreadSpec(nil), ph.Threads...)}
		for ti := range twin.Phases[pi].Threads {
			twin.Phases[pi].Threads[ti].Loops *= 2
		}
	}
	return twin
}

func testAgent(tb testing.TB, fineGrain bool) *core.Cohmeleon {
	tb.Helper()
	cfg := core.DefaultConfig()
	cfg.Seed = 7
	cfg.FineGrain = fineGrain
	agent, err := core.New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return agent
}

// refThread is a thread of the reference replay: the estimator's
// thread state plus what the scan-based sensing reads.
type refThread struct {
	threadState
	started bool
	last    soc.Action
}

// referenceRun is the replay as first written: a fresh Context per
// decision and a fresh Result per invocation, the app validated and
// every accelerator resolved and estimated per invocation, and sensing
// by a scan of the phase's threads. Run must reproduce its totals and,
// field for field, the contexts it senses and the results it observes.
func referenceRun(e *Estimator, pol esp.Policy, app *workload.App) (*workload.AppResult, error) {
	if err := app.Validate(e.ex.Config()); err != nil {
		return nil, err
	}
	ap, fineGrain := pol.(esp.ActionPolicy)
	res := &workload.AppResult{App: app, Policy: pol.Name()}
	var x FeatureVec
	for pi := range app.Phases {
		phase := &app.Phases[pi]
		pr := workload.PhaseResult{Name: phase.Name}
		ths := make([]refThread, len(phase.Threads))
		maxSteps := 0
		for ti := range phase.Threads {
			ts := &phase.Threads[ti]
			st := &ths[ti]
			st.spec = ts
			st.lines = (ts.FootprintBytes + mem.LineBytes - 1) / mem.LineBytes
			st.steps = ts.Invocations()
			st.last = soc.ModeAction(soc.NonCohDMA)
			e.touch(&st.threadState, st.lines)
			maxSteps = max(maxSteps, st.steps)
		}
		for k := 0; k < maxSteps; k++ {
			for ti := range ths {
				st := &ths[ti]
				if k >= st.steps {
					continue
				}
				loop, link := k/len(st.spec.Chain), k%len(st.spec.Chain)
				if link == 0 && loop > 0 && st.spec.RewriteFraction > 0 {
					e.touch(&st.threadState, int64(float64(st.lines)*st.spec.RewriteFraction))
				}
				ai, ok := e.ex.AccIndex(st.spec.Chain[link])
				if !ok {
					return nil, fmt.Errorf("unknown accelerator %q", st.spec.Chain[link])
				}
				ctx := &esp.Context{}
				scanSense(e, ctx, ai, st.spec.FootprintBytes, ths, ti, k)
				var act soc.Action
				if fineGrain {
					act = ap.DecideAction(ctx)
				} else {
					act = soc.ModeAction(pol.Decide(ctx))
				}
				e.ex.Features(ai, act, st.spec.FootprintBytes, len(ths), &x)
				estExec, estMem := e.m.Estimate(&x)
				estExec += float64(pol.OverheadCycles())
				r := &esp.Result{}
				e.result(r, ai, act, st.spec.FootprintBytes, estExec, estMem, float64(pol.OverheadCycles()))
				pol.Observe(r)
				st.last = act
				st.started = true
				st.time += estExec
				st.offchip += estMem
			}
		}
		for ti := range ths {
			st := &ths[ti]
			if st.spec.ReadbackFraction > 0 {
				e.touch(&st.threadState, int64(float64(st.lines)*st.spec.ReadbackFraction))
			}
			if st.time > float64(pr.Cycles) {
				pr.Cycles = sim.Cycles(st.time)
			}
			pr.OffChip += int64(st.offchip)
		}
		if pr.Cycles < 1 {
			pr.Cycles = 1
		}
		res.Phases = append(res.Phases, pr)
		res.Cycles += pr.Cycles
		res.OffChip += pr.OffChip
	}
	return res, nil
}

// scanSense fills ctx with the decision context the tracker would
// assemble, by scanning the phase's threads: the other live threads are
// the active invocations, each at its most recent action's hot mode,
// all sharing one partition.
func scanSense(e *Estimator, ctx *esp.Context, ai int, footprint int64, ths []refThread, self, k int) {
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

// recorder wraps a policy and copies every context it senses and every
// result it observes, in decision order: the streams a learning policy
// decides and trains on.
type recorder struct {
	esp.Policy
	sensed []esp.Context
	seen   []esp.Result
}

func (r *recorder) Decide(ctx *esp.Context) soc.Mode {
	r.sensed = append(r.sensed, *ctx)
	return r.Policy.Decide(ctx)
}

func (r *recorder) Observe(res *esp.Result) {
	r.seen = append(r.seen, *res)
	r.Policy.Observe(res)
}

// actionRecorder keeps an action policy's fine-grain decisions visible
// through the wrapper.
type actionRecorder struct{ *recorder }

func (r actionRecorder) DecideAction(ctx *esp.Context) soc.Action {
	r.sensed = append(r.sensed, *ctx)
	return r.Policy.(esp.ActionPolicy).DecideAction(ctx)
}

// recording wraps pol in a recorder that keeps pol's interfaces.
func recording(pol esp.Policy) (esp.Policy, *recorder) {
	rec := &recorder{Policy: pol}
	if _, ok := pol.(esp.ActionPolicy); ok {
		return actionRecorder{rec}, rec
	}
	return rec, rec
}

// recordedRun runs pol through run under a recorder and returns the
// result with the recorded streams.
func recordedRun(t *testing.T, run func(esp.Policy, *workload.App) (*workload.AppResult, error),
	pol esp.Policy, app *workload.App) (*workload.AppResult, *recorder) {
	t.Helper()
	wrapped, rec := recording(pol)
	res, err := run(wrapped, app)
	if err != nil {
		t.Fatal(err)
	}
	return res, rec
}

// compareResults pins got against want field by field: totals, every
// phase's cycles and off-chip count, and every sensed context and
// observed result in decision order. got must carry no invocation
// records.
func compareResults(t *testing.T, got, want *workload.AppResult, gotRec, wantRec *recorder) {
	t.Helper()
	if err := diffResults(got, want, gotRec, wantRec); err != nil {
		t.Fatal(err)
	}
}

// diffResults is compareResults' check, reporting the first difference
// as an error so goroutines can use it.
func diffResults(got, want *workload.AppResult, gotRec, wantRec *recorder) error {
	if err := diffTotals(got, want); err != nil {
		return err
	}
	n := got.App.Invocations()
	if len(gotRec.seen) != len(wantRec.seen) || len(gotRec.seen) != n ||
		len(gotRec.sensed) != len(wantRec.sensed) || len(gotRec.sensed) != n {
		return fmt.Errorf("sensed %d contexts and observed %d results, want %d and %d (app has %d invocations)",
			len(gotRec.sensed), len(gotRec.seen), len(wantRec.sensed), len(wantRec.seen), n)
	}
	for i := range wantRec.sensed {
		if !reflect.DeepEqual(gotRec.sensed[i], wantRec.sensed[i]) {
			return fmt.Errorf("context %d: got %+v, want %+v", i, gotRec.sensed[i], wantRec.sensed[i])
		}
	}
	for i := range wantRec.seen {
		if gotRec.seen[i] != wantRec.seen[i] {
			return fmt.Errorf("observation %d: got %+v, want %+v", i, gotRec.seen[i], wantRec.seen[i])
		}
	}
	return nil
}

// diffTotals reports the first difference in the app and phase totals;
// got must carry no invocation records.
func diffTotals(got, want *workload.AppResult) error {
	if got.App != want.App || got.Policy != want.Policy || got.Cycles != want.Cycles || got.OffChip != want.OffChip {
		return fmt.Errorf("totals: got (%p %s %d cycles %d off-chip), want (%p %s %d %d)",
			got.App, got.Policy, got.Cycles, got.OffChip, want.App, want.Policy, want.Cycles, want.OffChip)
	}
	if len(got.Phases) != len(want.Phases) {
		return fmt.Errorf("%d phases, want %d", len(got.Phases), len(want.Phases))
	}
	for pi := range want.Phases {
		g, w := &got.Phases[pi], &want.Phases[pi]
		if g.Name != w.Name || g.Cycles != w.Cycles || g.OffChip != w.OffChip {
			return fmt.Errorf("phase %d: got (%s %d cycles %d off-chip), want (%s %d %d)",
				pi, g.Name, g.Cycles, g.OffChip, w.Name, w.Cycles, w.OffChip)
		}
		if len(g.Invocations) != 0 {
			return fmt.Errorf("phase %d: %d invocation records, want none", pi, len(g.Invocations))
		}
	}
	return nil
}

// raggedApp returns a copy of app whose threads loop 1, 2, 3 or 4
// times by index, so the threads of a phase run different step counts
// and most finish while others are still deciding.
func raggedApp(t *testing.T, app *workload.App) *workload.App {
	t.Helper()
	ragged := &workload.App{Name: app.Name + "-ragged", Phases: make([]workload.PhaseSpec, len(app.Phases))}
	finishEarly := false
	for pi, ph := range app.Phases {
		ragged.Phases[pi] = workload.PhaseSpec{Name: ph.Name, Threads: append([]workload.ThreadSpec(nil), ph.Threads...)}
		ths := ragged.Phases[pi].Threads
		for ti := range ths {
			ths[ti].Loops = 1 + ti%4
			finishEarly = finishEarly || ths[ti].Invocations() < ths[0].Invocations()
		}
	}
	if !finishEarly {
		t.Fatal("no thread of the ragged app finishes before its phase's first thread")
	}
	return ragged
}

// TestEstimatorRunMatchesReference: Run reproduces the reference replay
// for fixed policies and, run after run, for learning agents trained
// through it (the agent's observations feed its next decisions, so any
// divergence compounds), with and without the fine-grain action space.
// Run keeps no invocation records, so the comparison is of the sensed
// contexts, of the observation streams, which carry every field the
// records did, and of the phase totals. The ragged app's threads finish
// mid-phase, so live-thread sensing is checked as threads leave; it
// replays again after a second app, so cached plans are checked too.
func TestEstimatorRunMatchesReference(t *testing.T) {
	est := testEstimator(t)
	ragged := raggedApp(t, testApp(t, est, 3))
	apps := []*workload.App{ragged, testApp(t, est, 4), ragged}
	reference := func(pol esp.Policy, app *workload.App) (*workload.AppResult, error) {
		return referenceRun(est, pol, app)
	}
	for _, mode := range []soc.Mode{soc.NonCohDMA, soc.FullyCoh} {
		for _, app := range apps {
			got, gotRec := recordedRun(t, est.Run, policy.NewFixed(mode), app)
			want, wantRec := recordedRun(t, reference, policy.NewFixed(mode), app)
			compareResults(t, got, want, gotRec, wantRec)
		}
	}
	for _, fineGrain := range []bool{false, true} {
		a, b := testAgent(t, fineGrain), testAgent(t, fineGrain)
		for it := 0; it < 2; it++ {
			for _, app := range apps {
				got, gotRec := recordedRun(t, est.Run, a, app)
				want, wantRec := recordedRun(t, reference, b, app)
				compareResults(t, got, want, gotRec, wantRec)
			}
			a.EndIteration()
			b.EndIteration()
		}
	}
}

// TestEstimatorConcurrentReplay: two goroutines replaying one app on one
// fresh Estimator — the learners experiment's pattern, where trials
// share a scenario's estimator — race to plan it, and each reproduces
// the reference replay (which plans nothing). Meaningful under -race.
func TestEstimatorConcurrentReplay(t *testing.T) {
	est := testEstimator(t)
	app := testApp(t, est, 3)
	const iters = 3
	trial := func(run func(esp.Policy, *workload.App) (*workload.AppResult, error)) (*workload.AppResult, *recorder, error) {
		agent := testAgent(t, true)
		for it := 0; it < iters; it++ {
			if _, err := run(agent, app); err != nil {
				return nil, nil, err
			}
			agent.EndIteration()
		}
		wrapped, rec := recording(agent)
		res, err := run(wrapped, app)
		return res, rec, err
	}
	want, wantRec, err := trial(func(pol esp.Policy, app *workload.App) (*workload.AppResult, error) {
		return referenceRun(est, pol, app)
	})
	if err != nil {
		t.Fatal(err)
	}
	errs := make([]error, 2)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			got, gotRec, err := trial(est.Run)
			if err == nil {
				err = diffResults(got, want, gotRec, wantRec)
			}
			errs[g] = err
		}()
	}
	close(start)
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Errorf("goroutine %d: %v", g, err)
		}
	}
}

func encodedState(t *testing.T, agent *core.Cohmeleon) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := learn.EncodeState(&buf, agent.LearnerState()); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestEstimatorTrainMatchesRun: training through Train leaves an agent
// byte-identical to one trained through Run — the same encoded learner
// state and the same decision counts — and the two then evaluate
// identically.
func TestEstimatorTrainMatchesRun(t *testing.T) {
	est := testEstimator(t)
	train, test := testApp(t, est, 1000), testApp(t, est, 2000)
	for _, fineGrain := range []bool{false, true} {
		viaRun, viaTrain := testAgent(t, fineGrain), testAgent(t, fineGrain)
		for it := 0; it < 6; it++ {
			if _, err := est.Run(viaRun, train); err != nil {
				t.Fatal(err)
			}
			if err := est.Train(viaTrain, train); err != nil {
				t.Fatal(err)
			}
			viaRun.EndIteration()
			viaTrain.EndIteration()
		}
		if !bytes.Equal(encodedState(t, viaRun), encodedState(t, viaTrain)) {
			t.Fatalf("fineGrain=%v: learner state differs between Run- and Train-trained agents", fineGrain)
		}
		if viaRun.Decisions() != viaTrain.Decisions() {
			t.Fatalf("fineGrain=%v: decisions %v (Run) vs %v (Train)", fineGrain, viaRun.Decisions(), viaTrain.Decisions())
		}
		viaRun.Freeze()
		viaTrain.Freeze()
		got, gotRec := recordedRun(t, est.Run, viaTrain, test)
		want, wantRec := recordedRun(t, est.Run, viaRun, test)
		compareResults(t, got, want, gotRec, wantRec)
	}
}

// TestEstimatorTrainReportsErrors: Train validates exactly as Run does.
func TestEstimatorTrainReportsErrors(t *testing.T) {
	est := testEstimator(t)
	bad := &workload.App{Name: "bad", Phases: []workload.PhaseSpec{{Name: "p", Threads: []workload.ThreadSpec{
		{Name: "t", FootprintBytes: 4096, Chain: []string{"no-such-acc"}, Loops: 1},
	}}}}
	errRun := func() error { _, err := est.Run(policy.NewFixed(soc.NonCohDMA), bad); return err }()
	errTrain := est.Train(policy.NewFixed(soc.NonCohDMA), bad)
	if errRun == nil || errTrain == nil || errRun.Error() != errTrain.Error() {
		t.Fatalf("Run error %v, Train error %v: want the same validation error", errRun, errTrain)
	}
}

// TestSenseMatchesFreshContext: sense assigns the scratch context's
// fields in place, so a context reused across decisions — pre-filled
// here with a non-zero value in every field, then sensed twice with
// different inputs — must equal a freshly built literal of the second
// reading: nothing from an earlier decision may survive.
func TestSenseMatchesFreshContext(t *testing.T) {
	est := testEstimator(t)
	cfg := est.ex.Config()
	var ctx esp.Context
	v := reflect.ValueOf(&ctx).Elem()
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		switch f.Kind() {
		case reflect.Pointer:
			f.Set(reflect.New(f.Type().Elem()))
		case reflect.Slice:
			f.Set(reflect.MakeSlice(f.Type(), 1, 1))
		case reflect.Int, reflect.Int64:
			f.SetInt(7)
		case reflect.Float64:
			f.SetFloat(7)
		default:
			t.Fatalf("esp.Context.%s: no non-zero filler for kind %s", v.Type().Field(i).Name, f.Kind())
		}
	}
	first := tally{count: 1, footprint: 1 << 20}
	first.modes[soc.FullyCoh] = 1
	est.sense(&ctx, 0, 4096, &first)
	second := tally{count: 4, footprint: 3 << 20}
	second.modes[soc.NonCohDMA] = 2
	second.modes[soc.LLCCohDMA] = 1
	second.modes[soc.CohDMA] = 1
	ai := len(cfg.Accs) - 1
	est.sense(&ctx, ai, 8192, &second)
	want := esp.Context{
		Acc:                  &est.tiles[ai],
		Available:            est.avail[ai],
		FootprintBytes:       8192,
		NonCohPerTile:        2,
		ToLLCPerTile:         2,
		TileFootprintBytes:   8192 + 3<<20,
		ActiveCount:          4,
		ActiveNonCoh:         2,
		ActiveLLCCoh:         1,
		ActiveCohDMA:         1,
		ActiveFootprintBytes: 3 << 20,
		L2Bytes:              cfg.L2Bytes(),
		LLCSliceBytes:        cfg.LLCSliceBytes(),
		TotalLLCBytes:        cfg.TotalLLCBytes(),
	}
	if !reflect.DeepEqual(ctx, want) {
		t.Fatalf("sensed context\n%+v\nwant\n%+v", ctx, want)
	}
}
