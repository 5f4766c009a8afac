package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMean(t *testing.T) {
	if got := Mean([]float64{1, 2, 3}); !almostEqual(got, 2) {
		t.Fatalf("Mean = %g, want 2", got)
	}
	if got := Mean(nil); got != 0 {
		t.Fatalf("Mean(nil) = %g, want 0", got)
	}
}

func TestGeoMean(t *testing.T) {
	if got := GeoMean([]float64{1, 4}); !almostEqual(got, 2) {
		t.Fatalf("GeoMean = %g, want 2", got)
	}
	if got := GeoMean([]float64{2, 2, 2}); !almostEqual(got, 2) {
		t.Fatalf("GeoMean = %g, want 2", got)
	}
	if got := GeoMean(nil); got != 0 {
		t.Fatalf("GeoMean(nil) = %g, want 0", got)
	}
}

func TestGeoMeanZeroClamped(t *testing.T) {
	got := GeoMean([]float64{0, 1})
	if got <= 0 {
		t.Fatalf("GeoMean with zero entry should stay positive, got %g", got)
	}
	if got > 1 {
		t.Fatalf("GeoMean([0,1]) = %g, should be < 1", got)
	}
}

func TestNormalize(t *testing.T) {
	got := Normalize([]float64{2, 6}, []float64{4, 3})
	if !almostEqual(got[0], 0.5) || !almostEqual(got[1], 2) {
		t.Fatalf("Normalize = %v", got)
	}
}

func TestNormalizeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Normalize([]float64{1}, []float64{1, 2})
}

func TestMinMaxArgMin(t *testing.T) {
	xs := []float64{3, 1, 2, 1}
	if Min(xs) != 1 {
		t.Fatalf("Min = %g", Min(xs))
	}
	if Max(xs) != 3 {
		t.Fatalf("Max = %g", Max(xs))
	}
	if ArgMin(xs) != 1 {
		t.Fatalf("ArgMin = %d, want first of ties", ArgMin(xs))
	}
}

func TestRatioAvoidsDivisionByZero(t *testing.T) {
	if got := Ratio(1, 0); math.IsInf(got, 0) || math.IsNaN(got) {
		t.Fatalf("Ratio(1,0) = %g, want finite", got)
	}
}

// Property: geomean of positive values lies between min and max.
func TestGeoMeanBoundedProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, r := range raw {
			xs[i] = float64(r)/100 + 0.01 // positive
		}
		g := GeoMean(xs)
		return g >= Min(xs)-1e-9 && g <= Max(xs)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: geomean ≤ arithmetic mean (AM–GM) for positive values.
func TestAMGMProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, r := range raw {
			xs[i] = float64(r)/50 + 0.02
		}
		return GeoMean(xs) <= Mean(xs)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: normalizing a series by itself gives all ones.
func TestSelfNormalizeProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		xs := make([]float64, len(raw))
		for i, r := range raw {
			xs[i] = float64(r) + 1
		}
		for _, v := range Normalize(xs, xs) {
			if !almostEqual(v, 1) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
