package costmodel

import (
	"bytes"
	"fmt"
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

// referenceRun is the replay as first written: a fresh Context per
// decision and a fresh Result per invocation. Run must reproduce its
// totals and, field for field, the results it observes.
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
		ths := make([]threadState, len(phase.Threads))
		maxSteps := 0
		for ti := range phase.Threads {
			ts := &phase.Threads[ti]
			st := &ths[ti]
			st.spec = ts
			st.lines = (ts.FootprintBytes + mem.LineBytes - 1) / mem.LineBytes
			st.steps = ts.Invocations()
			st.last = soc.ModeAction(soc.NonCohDMA)
			e.touch(st, st.lines)
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
					e.touch(st, int64(float64(st.lines)*st.spec.RewriteFraction))
				}
				ai, ok := e.ex.AccIndex(st.spec.Chain[link])
				if !ok {
					return nil, fmt.Errorf("unknown accelerator %q", st.spec.Chain[link])
				}
				ctx := &esp.Context{}
				e.sense(ctx, ai, st.spec.FootprintBytes, ths, ti, k)
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
				e.result(r, ai, act, st.spec.FootprintBytes, estExec, estMem, pol)
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
		res.Phases = append(res.Phases, pr)
		res.Cycles += pr.Cycles
		res.OffChip += pr.OffChip
	}
	return res, nil
}

// recorder wraps a policy and copies every result it observes, in
// decision order: the stream a learning policy trains on.
type recorder struct {
	esp.Policy
	seen []esp.Result
}

func (r *recorder) Observe(res *esp.Result) {
	r.seen = append(r.seen, *res)
	r.Policy.Observe(res)
}

// actionRecorder keeps an action policy's fine-grain decisions visible
// through the wrapper.
type actionRecorder struct{ *recorder }

func (r actionRecorder) DecideAction(ctx *esp.Context) soc.Action {
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
// result with the observed stream.
func recordedRun(t *testing.T, run func(esp.Policy, *workload.App) (*workload.AppResult, error),
	pol esp.Policy, app *workload.App) (*workload.AppResult, []esp.Result) {
	t.Helper()
	wrapped, rec := recording(pol)
	res, err := run(wrapped, app)
	if err != nil {
		t.Fatal(err)
	}
	return res, rec.seen
}

// compareResults pins got against want field by field: totals, every
// phase's cycles and off-chip count, and every observed result in
// decision order. got must carry no invocation records.
func compareResults(t *testing.T, got, want *workload.AppResult, gotSeen, wantSeen []esp.Result) {
	t.Helper()
	if got.App != want.App || got.Policy != want.Policy || got.Cycles != want.Cycles || got.OffChip != want.OffChip {
		t.Fatalf("totals: got (%p %s %d cycles %d off-chip), want (%p %s %d %d)",
			got.App, got.Policy, got.Cycles, got.OffChip, want.App, want.Policy, want.Cycles, want.OffChip)
	}
	if len(got.Phases) != len(want.Phases) {
		t.Fatalf("%d phases, want %d", len(got.Phases), len(want.Phases))
	}
	for pi := range want.Phases {
		g, w := &got.Phases[pi], &want.Phases[pi]
		if g.Name != w.Name || g.Cycles != w.Cycles || g.OffChip != w.OffChip {
			t.Fatalf("phase %d: got (%s %d cycles %d off-chip), want (%s %d %d)",
				pi, g.Name, g.Cycles, g.OffChip, w.Name, w.Cycles, w.OffChip)
		}
		if len(g.Invocations) != 0 {
			t.Fatalf("phase %d: %d invocation records, want none", pi, len(g.Invocations))
		}
	}
	if len(gotSeen) != len(wantSeen) || len(gotSeen) != got.App.Invocations() {
		t.Fatalf("observed %d results, want %d (app has %d invocations)",
			len(gotSeen), len(wantSeen), got.App.Invocations())
	}
	for i := range wantSeen {
		if gotSeen[i] != wantSeen[i] {
			t.Fatalf("observation %d: got %+v, want %+v", i, gotSeen[i], wantSeen[i])
		}
	}
}

// TestEstimatorRunMatchesReference: Run reproduces the reference replay
// for a fixed policy and, run after run, for a learning agent trained
// through it (the agent's observations feed its next decisions, so any
// divergence in an observation compounds). Run keeps no invocation
// records, so the comparison is of the observation streams, which
// carry every field the records did, and of the phase totals.
func TestEstimatorRunMatchesReference(t *testing.T) {
	est := testEstimator(t)
	app := testApp(t, est, 3)
	reference := func(pol esp.Policy, app *workload.App) (*workload.AppResult, error) {
		return referenceRun(est, pol, app)
	}
	for _, mode := range []soc.Mode{soc.NonCohDMA, soc.FullyCoh} {
		got, gotSeen := recordedRun(t, est.Run, policy.NewFixed(mode), app)
		want, wantSeen := recordedRun(t, reference, policy.NewFixed(mode), app)
		compareResults(t, got, want, gotSeen, wantSeen)
	}
	for _, fineGrain := range []bool{false, true} {
		a, b := testAgent(t, fineGrain), testAgent(t, fineGrain)
		for it := 0; it < 4; it++ {
			got, gotSeen := recordedRun(t, est.Run, a, app)
			want, wantSeen := recordedRun(t, reference, b, app)
			compareResults(t, got, want, gotSeen, wantSeen)
			a.EndIteration()
			b.EndIteration()
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
		got, gotSeen := recordedRun(t, est.Run, viaTrain, test)
		want, wantSeen := recordedRun(t, est.Run, viaRun, test)
		compareResults(t, got, want, gotSeen, wantSeen)
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
