//go:build !race

package costmodel

// Zero-allocation guard for the screening hot path: feature extraction
// and estimation run once per (invocation × policy × grid cell), so a
// stray allocation taxes every screened sweep. The race detector's
// shadow allocations would trip the guard, so it runs only in non-race
// builds (CI runs it as a dedicated step alongside the kernel and
// learner guards).

import (
	"runtime"
	"testing"

	"cohmeleon/internal/policy"
	"cohmeleon/internal/soc"
	"cohmeleon/internal/workload"
)

func TestZeroAllocFeaturesEstimate(t *testing.T) {
	ex, err := NewExtractor(soc.SoC6())
	if err != nil {
		t.Fatal(err)
	}
	m, err := Fit(syntheticSamples(200), "mesi")
	if err != nil {
		t.Fatal(err)
	}
	var x FeatureVec
	var sinkE, sinkM float64
	allocs := testing.AllocsPerRun(1000, func() {
		ex.Features(0, soc.ModeAction(soc.CohDMA), 1<<20, 2, &x)
		sinkE, sinkM = m.Estimate(&x)
	})
	if allocs != 0 {
		t.Fatalf("Features+Estimate allocates %.1f times per call, want 0", allocs)
	}
	if sinkE < 1 || sinkM < 0 {
		t.Fatalf("nonsensical estimate: %g cycles, %g lines", sinkE, sinkM)
	}
}

// TestZeroAllocValidate: validating an application against its SoC
// allocates nothing — planning an app validates it first.
func TestZeroAllocValidate(t *testing.T) {
	est := testEstimator(t)
	app := testApp(t, est, 3)
	cfg := est.ex.Config()
	allocs := testing.AllocsPerRun(100, func() {
		if err := app.Validate(cfg); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("App.Validate allocates %.1f times per call, want 0", allocs)
	}
}

// TestZeroAllocPlan: compiling an app's plan is one flat allocation
// whatever the app's link count, and a replay of an already-planned app
// reuses the previous replay's scratch: Train allocates nothing, and
// Run only its result — the AppResult, its phase slice and the fixed
// policy's name.
func TestZeroAllocPlan(t *testing.T) {
	est := testEstimator(t)
	app := testApp(t, est, 3)
	twice := &workload.App{Name: app.Name + "-twice", Phases: append(append([]workload.PhaseSpec(nil), app.Phases...), app.Phases...)}
	for _, a := range []*workload.App{app, twice} {
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := est.compile(a); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 1 {
			t.Errorf("compiling %s (%d invocations) allocates %.1f times, want 1", a.Name, a.Invocations(), allocs)
		}
	}
	fixed := policy.NewFixed(soc.CohDMA)
	train := testing.AllocsPerRun(20, func() {
		if err := est.Train(fixed, app); err != nil {
			t.Fatal(err)
		}
	})
	if train != 0 {
		t.Errorf("Train of a planned app allocates %.1f times, want 0", train)
	}
	run := testing.AllocsPerRun(20, func() {
		if _, err := est.Run(fixed, app); err != nil {
			t.Fatal(err)
		}
	})
	if run > 3 {
		t.Errorf("Run of a planned app allocates %.1f times, want at most 3", run)
	}
}

// TestZeroAllocPerInvocationReplay: Run and Train allocate per run, not
// per invocation — an app and its twin with twice the loops (twice the
// invocations, the same phases and threads) cost the same number of
// allocations and the same bytes, for a fixed policy and for a learning
// agent. The byte check sees what the count cannot: one allocation
// whose size grows with the app. A fixed policy's Run, which takes the
// static branch, allocates only its result (maxStaticRunAllocs): its
// per-accelerator decisions reuse the replay's scratch context.
func TestZeroAllocPerInvocationReplay(t *testing.T) {
	est := testEstimator(t)
	app := testApp(t, est, 3)
	twin := doubledLoops(app)
	if twin.Invocations() != 2*app.Invocations() {
		t.Fatalf("twin has %d invocations, want %d", twin.Invocations(), 2*app.Invocations())
	}
	fixed := policy.NewFixed(soc.CohDMA)
	agent := testAgent(t, true)
	cases := []struct {
		name string
		run  func(*workload.App)
	}{
		{"Run/fixed", func(a *workload.App) {
			if _, err := est.Run(fixed, a); err != nil {
				t.Fatal(err)
			}
		}},
		{"Run/agent", func(a *workload.App) {
			if _, err := est.Run(agent, a); err != nil {
				t.Fatal(err)
			}
		}},
		{"Train/fixed", func(a *workload.App) {
			if err := est.Train(fixed, a); err != nil {
				t.Fatal(err)
			}
		}},
		{"Train/agent", func(a *workload.App) {
			if err := est.Train(agent, a); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, c := range cases {
		base := testing.AllocsPerRun(20, func() { c.run(app) })
		if c.name == "Run/fixed" && base > maxStaticRunAllocs {
			t.Errorf("%s: %.1f allocs per run, want at most %d", c.name, base, maxStaticRunAllocs)
		}
		doubled := testing.AllocsPerRun(20, func() { c.run(twin) })
		if doubled > base {
			t.Errorf("%s: %.1f allocs for %d invocations, %.1f for %d — allocations grow with invocations",
				c.name, base, app.Invocations(), doubled, twin.Invocations())
		}
		baseB := bytesPerRun(20, func() { c.run(app) })
		doubledB := bytesPerRun(20, func() { c.run(twin) })
		if doubledB > baseB+byteSlack {
			t.Errorf("%s: %d bytes for %d invocations, %d for %d — allocated volume grows with invocations",
				c.name, baseB, app.Invocations(), doubledB, twin.Invocations())
		}
	}
}

// maxStaticRunAllocs is what a fixed policy's Run allocated before the
// static branch: the AppResult, its phase slice and the policy's name.
const maxStaticRunAllocs = 3

// byteSlack absorbs the runtime's own occasional small allocations in
// a byte-count comparison (a record per invocation would add hundreds
// of bytes).
const byteSlack = 64

// bytesPerRun is testing.AllocsPerRun for volume: the heap bytes one
// call of f allocates, averaged over runs after a warm-up call.
func bytesPerRun(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}
