package main

import (
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"

	"cohmeleon/internal/experiment"
)

func TestTailIsHighestPercentileWithTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // reversed: tail must sort
		}
		return xs
	}
	for _, tc := range []struct {
		n       int
		want    float64
		wantPct float64
		ok      bool
	}{
		{n: 40, want: 30, wantPct: 75, ok: true},
		{n: 100, want: 90, wantPct: 90, ok: true},
		{n: 11, want: 1, wantPct: 100.0 / 11, ok: true},
		{n: 10, want: 10, wantPct: 100, ok: false}, // no percentile has 10 beyond it: the maximum
		{n: 1, want: 1, wantPct: 100, ok: false},
	} {
		xs := seq(tc.n)
		v, pct, ok := tail(xs)
		if v != tc.want || math.Abs(pct-tc.wantPct) > 1e-9 || ok != tc.ok {
			t.Errorf("tail(1..%d) = %v, p%v, %v; want %v, p%v, %v", tc.n, v, pct, ok, tc.want, tc.wantPct, tc.ok)
		}
		beyond := 0
		for _, x := range xs {
			if x > v {
				beyond++
			}
		}
		if ok && beyond != tailBeyond {
			t.Errorf("tail(1..%d) has %d samples beyond it, want %d", tc.n, beyond, tailBeyond)
		}
	}
	if v, _, ok := tail(nil); v != 0 || ok {
		t.Errorf("tail(nil) = %v, %v", v, ok)
	}
}

func TestMedianAndQuantile(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if got := quantile(xs, 0.9); got != 9 {
		t.Errorf("p90 = %v, want 9", got)
	}
	if got := quantile(xs, 0.5); got != 5 {
		t.Errorf("p50 = %v, want 5", got)
	}
}

func TestMetricNamesAreValid(t *testing.T) {
	for _, defs := range [][]metricDef{endToEnd, perLayer()} {
		if err := validateDefs(defs); err != nil {
			t.Error(err)
		}
	}
	for _, bad := range []string{"", "_lead", ".lead", "has space", "slash/name", "ünicode", strings.Repeat("x", 65)} {
		if err := validateDefs([]metricDef{{Name: bad, Unit: "s", Better: "lower"}}); err == nil {
			t.Errorf("name %q accepted", bad)
		}
	}
	if err := validateDefs([]metricDef{{"a", "s", "lower", 0}, {"a", "s", "lower", 0}}); err == nil {
		t.Error("duplicate name accepted")
	}
	if err := validateDefs([]metricDef{{"a", "s", "sideways", 0}}); err == nil {
		t.Error("bad direction accepted")
	}
	if len(perLayer()) > 128 {
		t.Errorf("%d per-layer metrics, at most 128 allowed", len(perLayer()))
	}
}

// The declared metric lists in BENCHMARK.json must be exactly what the
// program emits.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	compare := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json declares %d metrics, program emits %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, program %+v", kind, i, got[i], want[i])
			}
		}
	}
	compare("end_to_end", decl.EndToEnd, endToEnd)
	compare("per_layer", decl.PerLayer, perLayer())
}

func TestHeadlineMatchesHeadlineFromFormula(t *testing.T) {
	res := &experiment.SweepResult{Rows: []experiment.SweepRow{
		{Policy: "fixed-non-coh-dma", NormExec: 1.0, NormMem: 1.0},
		{Policy: "fixed-coh-dma", NormExec: 0.8, NormMem: 0.5},
		{Policy: "rand", NormExec: 2.0, NormMem: 2.0}, // not a fixed row: ignored
		{Policy: "cohmeleon", NormExec: 0.8, NormMem: 0.25},
	}}
	speedup, offchip, err := headline(res)
	if err != nil {
		t.Fatal(err)
	}
	// Speedups 1.0/0.8-1 = 25% and 0.8/0.8-1 = 0%; reductions
	// 1-0.25/1 = 75% and 1-0.25/0.5 = 50%.
	if math.Abs(speedup-12.5) > 1e-9 || math.Abs(offchip-62.5) > 1e-9 {
		t.Errorf("headline = %v%%, %v%%; want 12.5%%, 62.5%%", speedup, offchip)
	}
	if _, _, err := headline(&experiment.SweepResult{Rows: res.Rows[:3]}); err == nil {
		t.Error("missing cohmeleon row accepted")
	}
	if _, _, err := headline(&experiment.SweepResult{Rows: res.Rows[2:]}); err == nil {
		t.Error("missing fixed rows accepted")
	}
	if _, _, err := headline(nil); err == nil {
		t.Error("nil result accepted")
	}
}

func TestReportHashIsAnExactJSONInteger(t *testing.T) {
	h := reportHash("report")
	if h != math.Trunc(h) || h < 0 || h >= 1<<52 {
		t.Errorf("hash %v is not an integer below 2^52", h)
	}
	if h == reportHash("report\n") {
		t.Error("different reports hash alike")
	}
}

func TestAggMAPEParsesTheCalibrationNote(t *testing.T) {
	note := "note: fidelity=screening: analytical cost model calibrated on 784 cycle-accurate samples (held-out: per-invocation MAPE 36.2%/max 94.5% on 156 samples; per-run aggregate MAPE 30.9%/max 50.4%)"
	got, err := aggMAPE(note)
	if err != nil || got != 30.9 {
		t.Errorf("aggMAPE = %v, %v; want 30.9", got, err)
	}
	if _, err := aggMAPE("no note"); err == nil {
		t.Error("report without a note accepted")
	}
}
