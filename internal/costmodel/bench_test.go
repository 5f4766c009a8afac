package costmodel

import (
	"testing"

	"cohmeleon/internal/esp"
	"cohmeleon/internal/policy"
	"cohmeleon/internal/soc"
)

var benchSinkExec, benchSinkMem float64

// BenchmarkCostModelEstimate measures the screening hot path — one
// feature extraction plus one model evaluation — and records allocs/op:
// the pair must stay 0 allocs/op (TestZeroAllocFeaturesEstimate
// enforces the same in CI).
func BenchmarkCostModelEstimate(b *testing.B) {
	ex, err := NewExtractor(soc.SoC6())
	if err != nil {
		b.Fatal(err)
	}
	m, err := Fit(syntheticSamples(200), "mesi")
	if err != nil {
		b.Fatal(err)
	}
	var x FeatureVec
	act := soc.ModeAction(soc.CohDMA)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ex.Features(0, act, 1<<20, 2, &x)
		benchSinkExec, benchSinkMem = m.Estimate(&x)
	}
}

// BenchmarkEstimatorRun measures one analytical replay of a ~300-
// invocation generated app on SoC6 that returns the phase totals, as
// the screened roster's evaluation runs do: "fixed" under a fixed
// policy (the static branch: one decision per accelerator, then planned
// estimates summed) and "agent" under a frozen agent trained on the app
// for four iterations (sensing, deciding and observing every
// invocation). Its allocs/op and B/op are per run:
// TestZeroAllocPerInvocationReplay enforces that they do not grow with
// the invocation count.
func BenchmarkEstimatorRun(b *testing.B) {
	est := testEstimator(b)
	app := testApp(b, est, 1000)
	agent := testAgent(b, false)
	for it := 0; it < 4; it++ {
		if err := est.Train(agent, app); err != nil {
			b.Fatal(err)
		}
		agent.EndIteration()
	}
	agent.Freeze()
	for _, c := range []struct {
		name string
		pol  esp.Policy
	}{
		{"fixed", policy.NewFixed(soc.CohDMA)},
		{"agent", agent},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := est.Run(c.pol, app); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEstimatorTrain measures one training replay of the same app
// by a learning agent (the screened cell's training iterations), which
// builds no result.
func BenchmarkEstimatorTrain(b *testing.B) {
	est := testEstimator(b)
	app := testApp(b, est, 1000)
	agent := testAgent(b, false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := est.Train(agent, app); err != nil {
			b.Fatal(err)
		}
		agent.EndIteration()
	}
}
