package experiment

import (
	"math"
	"math/rand/v2"
	"testing"

	"cohmeleon/internal/sim"
	"cohmeleon/internal/stats"
	"cohmeleon/internal/workload"
)

// TestGeoNormalizedMatchesStats: the one-pass geoNormalized is bit for
// bit the geometric mean of the normalized series stats computes, over
// random results that include zero-off-chip phases (in the result, in
// the baseline and in both), ratios below the Epsilon clamp, and the
// empty result.
func TestGeoNormalizedMatchesStats(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	offChip := func() int64 {
		switch rng.IntN(4) {
		case 0:
			return 0
		case 1:
			return 1 + rng.Int64N(3)
		default:
			return rng.Int64N(1 << 44)
		}
	}
	pair := func(phases int) (res, base *workload.AppResult) {
		res, base = &workload.AppResult{}, &workload.AppResult{}
		for i := 0; i < phases; i++ {
			res.Phases = append(res.Phases, workload.PhaseResult{Cycles: sim.Cycles(1 + rng.Int64N(1<<40)), OffChip: offChip()})
			base.Phases = append(base.Phases, workload.PhaseResult{Cycles: sim.Cycles(1 + rng.Int64N(1<<40)), OffChip: offChip()})
		}
		return res, base
	}
	zeroOffChip := 0
	for trial := 0; trial < 2000; trial++ {
		res, base := pair(trial % 9)
		for i := range res.Phases {
			if res.Phases[i].OffChip == 0 || base.Phases[i].OffChip == 0 {
				zeroOffChip++
			}
		}
		exec, mem := geoNormalized(res, base)
		wantExec := stats.GeoMean(stats.Normalize(res.ExecSeries(), base.ExecSeries()))
		wantMem := stats.GeoMean(stats.Normalize(res.MemSeries(), base.MemSeries()))
		if math.Float64bits(exec) != math.Float64bits(wantExec) || math.Float64bits(mem) != math.Float64bits(wantMem) {
			t.Fatalf("trial %d: geoNormalized = (%v, %v), stats = (%v, %v)", trial, exec, mem, wantExec, wantMem)
		}
	}
	if zeroOffChip == 0 {
		t.Fatal("no trial had a zero-off-chip phase")
	}
}
