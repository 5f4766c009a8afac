package costmodel

import (
	"testing"

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
// invocation generated app on SoC6 under a fixed policy, returning the
// phase totals (the screened roster's evaluation runs). Its allocs/op
// and B/op are per run: TestZeroAllocPerInvocationReplay enforces that
// they do not grow with the invocation count.
func BenchmarkEstimatorRun(b *testing.B) {
	est := testEstimator(b)
	app := testApp(b, est, 1000)
	pol := policy.NewFixed(soc.CohDMA)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := est.Run(pol, app); err != nil {
			b.Fatal(err)
		}
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
