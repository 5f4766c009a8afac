package costmodel

import (
	"fmt"
	"math"
)

// Bounds is the model's held-out calibration error: the mean absolute
// percentage error and the maximum relative error of the execution-time
// estimate on the held-out samples, plus the split sizes. Every
// screening report carries these so estimated numbers are honest about
// their fidelity.
type Bounds struct {
	// MAPE is mean(|est-true|/true) over held-out samples, in [0, ∞).
	MAPE float64
	// MaxRel is max(|est-true|/true) over held-out samples.
	MaxRel float64
	// AggMAPE and AggMax are the same statistics over per-run aggregates:
	// each calibration run's held-out execution cycles are summed for
	// estimate and truth, and the relative error of the sums is taken.
	// Per-invocation noise (contention, queueing position) averages out
	// in sums, so these bound the error of the whole-app quantities the
	// experiments actually compare far more tightly than the
	// per-invocation MaxRel does.
	AggMAPE float64
	AggMax  float64
	// FitSamples and HeldOut are the calibration split sizes.
	FitSamples int
	HeldOut    int
}

// Model is a fitted analytical cost model: linear coefficients over the
// feature vector for execution cycles and off-chip line traffic, plus
// the held-out error bounds of the calibration that produced it.
type Model struct {
	// Protocol names the coherence protocol the calibration runs used.
	Protocol string
	ExecCoef [NumFeatures]float64
	MemCoef  [NumFeatures]float64
	Err      Bounds
}

// Estimate predicts one invocation's execution cycles and off-chip line
// traffic from a filled feature vector. The hot path of screening-mode
// sweeps: two fixed-size dot products, no allocation, no branching
// beyond the clamps.
func (m *Model) Estimate(x *FeatureVec) (execCycles, offChip float64) {
	var e, o float64
	for i := 0; i < NumFeatures; i++ {
		e += m.ExecCoef[i] * x[i]
		o += m.MemCoef[i] * x[i]
	}
	if e < 1 {
		e = 1
	}
	if o < 0 {
		o = 0
	}
	return e, o
}

// Sample is one calibration observation: a feature vector and the
// cycle-accurate targets it must predict.
type Sample struct {
	X    FeatureVec
	Exec float64 // measured invocation execution cycles
	Mem  float64 // measured invocation off-chip lines (ground truth)
	// Group identifies the calibration run the sample came from
	// (non-negative, dense). The aggregate error bounds sum estimates
	// and truths per group.
	Group int
}

// HoldEvery is the deterministic held-out stride: every HoldEvery-th
// sample (by index) is excluded from the fit and used to measure the
// error bounds. Index-based splitting keeps calibration bit-identical
// across worker counts — no RNG is involved anywhere in the fit.
const HoldEvery = 5

// Fit calibrates a model by ridge-stabilized weighted least squares
// over the samples, holding out every HoldEvery-th sample for the error
// bounds. Each sample is weighted by the inverse of its target, so the
// fit minimizes relative error — the quantity MAPE and MaxRel are
// defined over — rather than letting the largest invocations
// dominate. Iteration order is fixed, so identical inputs yield
// bit-identical coefficients. At least 4×NumFeatures samples are
// required for a meaningful fit.
func Fit(samples []Sample, protocolName string) (*Model, error) {
	if len(samples) < 4*NumFeatures {
		return nil, fmt.Errorf("costmodel: %d calibration samples, need ≥ %d", len(samples), 4*NumFeatures)
	}
	m := &Model{Protocol: protocolName}

	// Separate normal systems per target: relative weighting makes the
	// design matrix target-dependent (w = 1/target per row).
	var ataExec, ataMem [NumFeatures][NumFeatures]float64
	var atExec, atMem [NumFeatures]float64
	fit, held := 0, 0
	for i := range samples {
		if (i+1)%HoldEvery == 0 {
			held++
			continue
		}
		fit++
		x := &samples[i].X
		we := 1 / math.Max(samples[i].Exec, 1)
		wm := 1 / math.Max(samples[i].Mem, 1)
		we, wm = we*we, wm*wm
		for r := 0; r < NumFeatures; r++ {
			if x[r] == 0 {
				continue
			}
			for c := 0; c < NumFeatures; c++ {
				ataExec[r][c] += we * x[r] * x[c]
				ataMem[r][c] += wm * x[r] * x[c]
			}
			atExec[r] += we * x[r] * samples[i].Exec
			atMem[r] += wm * x[r] * samples[i].Mem
		}
	}
	// Ridge term scaled to each normal matrix's magnitude: stabilizes
	// collinear feature pairs (e.g. lines vs footprint) without visibly
	// biasing the fit.
	ridge := func(ata *[NumFeatures][NumFeatures]float64) {
		trace := 0.0
		for d := 0; d < NumFeatures; d++ {
			trace += ata[d][d]
		}
		lambda := 1e-8 * trace / NumFeatures
		if lambda <= 0 {
			lambda = 1e-8
		}
		for d := 0; d < NumFeatures; d++ {
			ata[d][d] += lambda
		}
	}
	ridge(&ataExec)
	ridge(&ataMem)

	exec, err := solve(ataExec, atExec)
	if err != nil {
		return nil, err
	}
	mem, err := solve(ataMem, atMem)
	if err != nil {
		return nil, err
	}
	m.ExecCoef, m.MemCoef = exec, mem

	// Held-out error of the execution-time estimate, per invocation and
	// per run aggregate (fixed iteration order throughout).
	maxGroup := 0
	for i := range samples {
		if samples[i].Group > maxGroup {
			maxGroup = samples[i].Group
		}
	}
	sumEst := make([]float64, maxGroup+1)
	sumTruth := make([]float64, maxGroup+1)
	var sumRel, maxRel float64
	for i := range samples {
		if (i+1)%HoldEvery != 0 {
			continue
		}
		est, _ := m.Estimate(&samples[i].X)
		truth := samples[i].Exec
		if truth <= 0 {
			continue
		}
		sumEst[samples[i].Group] += est
		sumTruth[samples[i].Group] += truth
		rel := math.Abs(est-truth) / truth
		sumRel += rel
		if rel > maxRel {
			maxRel = rel
		}
	}
	var aggSum, aggMax float64
	groups := 0
	for g := range sumTruth {
		if sumTruth[g] <= 0 {
			continue
		}
		groups++
		rel := math.Abs(sumEst[g]-sumTruth[g]) / sumTruth[g]
		aggSum += rel
		if rel > aggMax {
			aggMax = rel
		}
	}
	if groups == 0 {
		return nil, fmt.Errorf("costmodel: no held-out calibration runs to bound aggregate error")
	}
	m.Err = Bounds{
		MAPE: sumRel / float64(held), MaxRel: maxRel,
		AggMAPE: aggSum / float64(groups), AggMax: aggMax,
		FitSamples: fit, HeldOut: held,
	}
	if !isFinite(m.Err.MAPE) || !isFinite(m.Err.MaxRel) || !isFinite(m.Err.AggMAPE) || !isFinite(m.Err.AggMax) {
		return nil, fmt.Errorf("costmodel: non-finite held-out error from fit")
	}
	return m, nil
}

// solve performs Gaussian elimination with partial pivoting on a copy
// of a (symmetric positive-definite after the ridge term) system.
// Deterministic: pivots are chosen by fixed comparison order.
func solve(a [NumFeatures][NumFeatures]float64, b [NumFeatures]float64) ([NumFeatures]float64, error) {
	n := NumFeatures
	for col := 0; col < n; col++ {
		pivot := col
		for r := col + 1; r < n; r++ {
			if math.Abs(a[r][col]) > math.Abs(a[pivot][col]) {
				pivot = r
			}
		}
		if a[pivot][col] == 0 {
			return b, fmt.Errorf("costmodel: singular normal matrix at column %d (%s)", col, FeatureName(col))
		}
		if pivot != col {
			a[pivot], a[col] = a[col], a[pivot]
			b[pivot], b[col] = b[col], b[pivot]
		}
		inv := 1 / a[col][col]
		for r := col + 1; r < n; r++ {
			f := a[r][col] * inv
			if f == 0 {
				continue
			}
			for c := col; c < n; c++ {
				a[r][c] -= f * a[col][c]
			}
			b[r] -= f * b[col]
		}
	}
	var x [NumFeatures]float64
	for r := n - 1; r >= 0; r-- {
		s := b[r]
		for c := r + 1; c < n; c++ {
			s -= a[r][c] * x[c]
		}
		x[r] = s / a[r][r]
		if !isFinite(x[r]) {
			return x, fmt.Errorf("costmodel: non-finite coefficient for %s", FeatureName(r))
		}
	}
	return x, nil
}

func isFinite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }
