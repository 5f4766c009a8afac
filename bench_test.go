package cohmeleon

import (
	"fmt"
	"os"
	"strconv"
	"testing"

	"cohmeleon/internal/experiment"
	"cohmeleon/internal/soc/protocol"
)

// Benchmarks regenerate the paper's tables and figures. Each benchmark
// iteration runs the complete experiment; the benchmark time is the
// wall-clock cost of reproducing that artifact.
//
// By default the Quick protocol runs (same code paths, fewer
// repetitions) with the worker pool sized to GOMAXPROCS. Set
// COHMELEON_BENCH=full for the paper-faithful protocol,
// COHMELEON_WORKERS=n to pin the trial pool (1 reproduces the
// sequential run; reports are byte-identical either way), and
// COHMELEON_RENDER=1 to print each artifact.

func benchOptions() experiment.Options {
	opt := experiment.Quick()
	if os.Getenv("COHMELEON_BENCH") == "full" {
		opt = experiment.Default()
	}
	if w, err := strconv.Atoi(os.Getenv("COHMELEON_WORKERS")); err == nil && w > 0 {
		opt.Workers = w
	}
	return opt
}

func runExperimentBench(b *testing.B, id string) {
	b.Helper()
	entry, err := experiment.Lookup(id)
	if err != nil {
		b.Fatal(err)
	}
	opt := benchOptions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Each iteration regenerates cold: the in-process run cache would
		// otherwise serve repeated (and cross-benchmark) static runs and
		// silently shift the series.
		experiment.ResetRunCache()
		rep, err := entry.Run(opt)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 && os.Getenv("COHMELEON_RENDER") != "" {
			fmt.Println(rep.Render())
		}
	}
}

// BenchmarkTable4 regenerates Table 4 (SoC parameters).
func BenchmarkTable4(b *testing.B) { runExperimentBench(b, "table4") }

// BenchmarkFigure2 regenerates Figure 2 (accelerators in isolation).
func BenchmarkFigure2(b *testing.B) { runExperimentBench(b, "fig2") }

// BenchmarkFigure3 regenerates Figure 3 (parallel accelerators).
func BenchmarkFigure3(b *testing.B) { runExperimentBench(b, "fig3") }

// BenchmarkFigure5 regenerates Figure 5 (phase analysis, 8 policies).
func BenchmarkFigure5(b *testing.B) { runExperimentBench(b, "fig5") }

// BenchmarkFigure6 regenerates Figure 6 (reward-function DSE).
func BenchmarkFigure6(b *testing.B) { runExperimentBench(b, "fig6") }

// BenchmarkFigure7 regenerates Figure 7 (decision breakdown).
func BenchmarkFigure7(b *testing.B) { runExperimentBench(b, "fig7") }

// BenchmarkFigure8 regenerates Figure 8 (training-time study).
func BenchmarkFigure8(b *testing.B) { runExperimentBench(b, "fig8") }

// BenchmarkFigure9 regenerates Figure 9 (cross-SoC comparison).
func BenchmarkFigure9(b *testing.B) { runExperimentBench(b, "fig9") }

// BenchmarkHeadline regenerates the §6 headline aggregates and reports
// the measured speedup and off-chip reduction as benchmark metrics.
func BenchmarkHeadline(b *testing.B) {
	opt := benchOptions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiment.ResetRunCache()
		h, err := experiment.Headline(opt)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(h.AvgSpeedup*100, "%speedup")
		b.ReportMetric(h.AvgMemReduction*100, "%offchip-reduction")
		if i == 0 && os.Getenv("COHMELEON_RENDER") != "" {
			fmt.Println(h.Render())
		}
	}
}

// BenchmarkOverhead regenerates the §6 overhead measurement.
func BenchmarkOverhead(b *testing.B) {
	opt := benchOptions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiment.ResetRunCache()
		r, err := experiment.Overhead(opt)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Points[0].Fraction*100, "%overhead-16kB")
		if i == 0 && os.Getenv("COHMELEON_RENDER") != "" {
			fmt.Println(r.Render())
		}
	}
}

// BenchmarkAblation runs the design-choice ablations from DESIGN.md.
func BenchmarkAblation(b *testing.B) { runExperimentBench(b, "ablation") }

// BenchmarkSweep runs the randomized scenario grid at a fixed 8
// scenarios (not the profile's default count), so samples stay
// comparable across PRs regardless of profile-default changes; the
// per-scenario cost is what the trend tracks.
func BenchmarkSweep(b *testing.B) {
	entry, err := experiment.Lookup("sweep")
	if err != nil {
		b.Fatal(err)
	}
	opt := benchOptions()
	opt.SweepScenarios = 8
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Each iteration measures a cold regeneration: the run cache is
		// cleared so the series stays comparable across PRs (warm-cache
		// regeneration is BenchmarkSweepCached's series).
		experiment.ResetRunCache()
		if _, err := entry.Run(opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSweep16 is BenchmarkSweep at 16 scenarios: a second point on
// the scenario-count axis, so the sweep's scaling (not just its
// 8-scenario absolute cost) is tracked across PRs.
func BenchmarkSweep16(b *testing.B) {
	entry, err := experiment.Lookup("sweep")
	if err != nil {
		b.Fatal(err)
	}
	opt := benchOptions()
	opt.SweepScenarios = 16
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiment.ResetRunCache()
		if _, err := entry.Run(opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSweepScreening is BenchmarkSweep through the analytical cost
// model: the same fixed 8-scenario grid at screening fidelity, with the
// calibration fitted once before the timer (its cycle-accurate runs are
// a fixed cost that amortizes over every screened grid; the run cache is
// deliberately NOT reset per iteration — that would discard the fitted
// model and re-measure calibration, not screening). The ratio to
// BenchmarkSweep is the screening speedup the two-fidelity pipeline
// claims.
func BenchmarkSweepScreening(b *testing.B) {
	entry, err := experiment.Lookup("sweep")
	if err != nil {
		b.Fatal(err)
	}
	opt := benchOptions()
	opt.SweepScenarios = 8
	opt.Fidelity = experiment.FidelityScreening
	experiment.ResetRunCache()
	if _, err := entry.Run(opt); err != nil {
		b.Fatal(err) // fits and memoizes the calibration
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := entry.Run(opt); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	st := experiment.Snapshot().Fidelity
	if st.ScreenedCells == 0 {
		b.Fatal("screening benchmark screened no cells")
	}
	experiment.ResetRunCache()
}

// BenchmarkSweepCached measures warm-cache artifact regeneration: the
// same fixed 8-scenario sweep as BenchmarkSweep, but every static-policy
// run is served from the content-keyed run cache (one cold run primes it
// before the timer starts). The gap to BenchmarkSweep is the
// duplicate-run elimination the cache buys on repeated regeneration.
func BenchmarkSweepCached(b *testing.B) {
	entry, err := experiment.Lookup("sweep")
	if err != nil {
		b.Fatal(err)
	}
	opt := benchOptions()
	opt.SweepScenarios = 8
	experiment.ResetRunCache()
	if _, err := entry.Run(opt); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := entry.Run(opt); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	st := experiment.Snapshot().RunCache
	if st.Hits == 0 {
		b.Fatal("warm sweep served no cache hits")
	}
	experiment.ResetRunCache()
}

// BenchmarkLearners runs the (algorithm × schedule) learner grid at a
// fixed 4 scenarios, so samples stay comparable across PRs regardless
// of profile-default changes; the per-stack training cost is what the
// trend tracks.
func BenchmarkLearners(b *testing.B) {
	entry, err := experiment.Lookup("learners")
	if err != nil {
		b.Fatal(err)
	}
	opt := benchOptions()
	opt.LearnerScenarios = 4
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Cold regeneration per iteration, as in BenchmarkSweep.
		experiment.ResetRunCache()
		if _, err := entry.Run(opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAppRun measures the simulator itself: one full evaluation
// application on SoC0 under the manual policy (≈300 invocations).
func BenchmarkAppRun(b *testing.B) {
	cfg := SoC0(TrafficMixed, 42)
	app, err := GenerateApp(cfg, GenConfig{}, 7)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunApp(cfg, NewManual(), app, 7); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAppRunProtocol runs the same evaluation application once
// per registered coherence-protocol stack, so the cost of a
// non-default stack (and any regression on the default one) is
// tracked per protocol.
func BenchmarkAppRunProtocol(b *testing.B) {
	for _, proto := range protocol.Names() {
		b.Run(proto, func(b *testing.B) {
			cfg := SoC0(TrafficMixed, 42)
			cfg.Protocol = proto
			app, err := GenerateApp(cfg, GenConfig{}, 7)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := RunApp(cfg, NewManual(), app, 7); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
