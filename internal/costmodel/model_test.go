package costmodel

import (
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"math"
	"strings"
	"testing"

	"cohmeleon/internal/soc"
)

// syntheticSamples generates a deterministic, nearly linear calibration
// set: feature vectors from a fixed LCG, targets from planted
// coefficients plus a small multiplicative perturbation. No math/rand —
// the stream is pinned by construction.
func syntheticSamples(n int) []Sample {
	state := uint64(0x9e3779b97f4a7c15)
	next := func() float64 {
		state = state*6364136223846793005 + 1442695040888963407
		return float64(state>>11) / float64(1<<53)
	}
	var execCoef, memCoef [NumFeatures]float64
	for i := range execCoef {
		execCoef[i] = 1 + 10*next()
		memCoef[i] = next()
	}
	out := make([]Sample, n)
	for i := range out {
		s := &out[i]
		s.X[fIntercept] = 1
		s.X[fPages] = float64(1 + int(100*next()))
		s.X[fCompute] = 1000 * next()
		s.X[fLinesNonCoh] = 500 * next()
		s.X[fLinesLLCCoh] = 300 * next()
		s.X[fWriteLines] = 100 * next()
		s.X[fBursts] = 50 * next()
		s.X[fHopLines] = 200 * next()
		s.X[fFootprint] = 600 * next()
		s.X[fModeNonCoh] = 1
		var e, m float64
		for j := 0; j < NumFeatures; j++ {
			e += execCoef[j] * s.X[j]
			m += memCoef[j] * s.X[j]
		}
		s.Exec = e * (1 + 0.04*(next()-0.5))
		s.Mem = m * (1 + 0.04*(next()-0.5))
		if s.Exec < 1 {
			s.Exec = 1
		}
		if s.Mem < 0 {
			s.Mem = 0
		}
		s.Group = i / 25
	}
	return out
}

// TestFitDeterministic: two fits over identical samples must produce
// bit-identical coefficients and error bounds — the property that makes
// calibration reproducible across machines and worker counts.
func TestFitDeterministic(t *testing.T) {
	samples := syntheticSamples(200)
	m1, err := Fit(samples, "mesi")
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Fit(samples, "mesi")
	if err != nil {
		t.Fatal(err)
	}
	if m1.ExecCoef != m2.ExecCoef || m1.MemCoef != m2.MemCoef {
		t.Fatal("refit over identical samples changed coefficients")
	}
	if m1.Err != m2.Err {
		t.Fatalf("refit changed error bounds: %+v vs %+v", m1.Err, m2.Err)
	}
}

// TestFitRecoversPlantedModel: on nearly linear data the held-out error
// must be small — the fit actually learns the relationship rather than
// merely converging.
func TestFitRecoversPlantedModel(t *testing.T) {
	m, err := Fit(syntheticSamples(400), "mesi")
	if err != nil {
		t.Fatal(err)
	}
	if m.Err.MAPE > 0.05 {
		t.Fatalf("held-out MAPE %.3f on nearly linear data, want < 0.05", m.Err.MAPE)
	}
	if m.Err.AggMAPE > m.Err.MaxRel {
		t.Fatalf("aggregate MAPE %.3f exceeds per-invocation max %.3f", m.Err.AggMAPE, m.Err.MaxRel)
	}
	if m.Err.FitSamples+m.Err.HeldOut != 400 {
		t.Fatalf("split %d+%d does not cover 400 samples", m.Err.FitSamples, m.Err.HeldOut)
	}
}

// TestFitRejectsTooFewSamples: below the 4×NumFeatures floor the fit is
// meaningless and must refuse.
func TestFitRejectsTooFewSamples(t *testing.T) {
	if _, err := Fit(syntheticSamples(4*NumFeatures-1), "mesi"); err == nil {
		t.Fatal("underdetermined calibration accepted")
	}
}

// TestEstimateClamps: negative linear combinations must clamp (cycles
// to ≥1, traffic to ≥0) so downstream ratios stay finite.
func TestEstimateClamps(t *testing.T) {
	m := &Model{}
	for i := range m.ExecCoef {
		m.ExecCoef[i] = -1
		m.MemCoef[i] = -1
	}
	var x FeatureVec
	x[fIntercept] = 1
	e, o := m.Estimate(&x)
	if e != 1 || o != 0 {
		t.Fatalf("Estimate(-1 coefs) = %g, %g; want clamped 1, 0", e, o)
	}
}

// TestFeaturesModeSharesPartition: the mode-share intercept features
// must partition one invocation (sum to 1) for both whole and split
// actions, and the per-mode line features must partition the
// transferred lines the same way.
func TestFeaturesModeSharesPartition(t *testing.T) {
	ex, err := NewExtractor(soc.SoC6())
	if err != nil {
		t.Fatal(err)
	}
	acts := make([]soc.Action, 0, soc.NumActions)
	for _, m := range soc.AllModes {
		acts = append(acts, soc.ModeAction(m))
	}
	for _, hot := range soc.AllModes {
		for _, cold := range soc.AllModes {
			if hot != cold {
				acts = append(acts, soc.SplitAction(hot, cold))
			}
		}
	}
	var x FeatureVec
	for _, act := range acts {
		ex.Features(0, act, 1<<20, 2, &x)
		share := x[fModeNonCoh] + x[fModeLLCCoh] + x[fModeCohDMA] + x[fModeFullyCoh]
		if math.Abs(share-1) > 1e-9 {
			t.Fatalf("%v: mode shares sum to %g, want 1", act, share)
		}
		for i := range x {
			if !isFinite(x[i]) || x[i] < 0 {
				t.Fatalf("%v: feature %s = %g", act, FeatureName(i), x[i])
			}
		}
	}
}

// TestEncodeDecodeRoundTrip: a fitted model must survive persistence
// bit-exactly.
func TestEncodeDecodeRoundTrip(t *testing.T) {
	m, err := Fit(syntheticSamples(200), "mesi")
	if err != nil {
		t.Fatal(err)
	}
	data, err := Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.ExecCoef != m.ExecCoef || got.MemCoef != m.MemCoef || got.Err != m.Err || got.Protocol != m.Protocol {
		t.Fatal("decoded model differs from the encoded one")
	}
}

// validImage returns a well-formed persisted image to corrupt per test
// case, mirroring the learn package's corrupt-file regression matrix.
func validImage() modelImage {
	return modelImage{
		Version:     FormatVersion,
		NumFeatures: NumFeatures,
		Protocol:    "mesi",
		ExecCoef:    make([]float64, NumFeatures),
		MemCoef:     make([]float64, NumFeatures),
		MAPE:        0.1, MaxRel: 0.3, AggMAPE: 0.05, AggMax: 0.12,
		FitSamples: 100, HeldOut: 25,
	}
}

// modelEnvelope is the envelope type earlier builds sealed cost-model
// files with, before they shared the store's: same fields, another
// type name on the wire.
type modelEnvelope struct {
	Version int
	Sum     [sha256.Size]byte
	Payload []byte
}

// encodeForged seals an arbitrary image in a modelEnvelope, bypassing
// Encode's invariants; tamper, when non-nil, corrupts the envelope
// after the checksum is computed.
func encodeForged(t *testing.T, img modelImage, tamper func(*modelEnvelope)) []byte {
	t.Helper()
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(&img); err != nil {
		t.Fatal(err)
	}
	env := modelEnvelope{
		Version: FormatVersion,
		Sum:     sha256.Sum256(payload.Bytes()),
		Payload: payload.Bytes(),
	}
	if tamper != nil {
		tamper(&env)
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&env); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestDecodeModelEnvelopeFiles: cost-model files sealed by earlier
// builds, whose envelope type was named modelEnvelope, still decode.
// Gob matches the envelope by field, not by type name.
func TestDecodeModelEnvelopeFiles(t *testing.T) {
	want := validImage()
	want.ExecCoef[1], want.MemCoef[3] = 2.5, 0.75
	got, err := Decode(encodeForged(t, want, nil))
	if err != nil {
		t.Fatal(err)
	}
	if got.ExecCoef[1] != 2.5 || got.MemCoef[3] != 0.75 || got.Protocol != "mesi" || got.Err.HeldOut != 25 {
		t.Fatalf("decoded model lost data: %+v", got)
	}
	if !bytes.Contains(encodeForged(t, want, nil), []byte("modelEnvelope")) {
		t.Fatal("forged file does not carry the old envelope type name")
	}
}

// TestDecodeCorruptMatrix: forged files that declare a valid shape but
// carry poisoned payloads must return errors naming the defect — never
// panic, never load silently.
func TestDecodeCorruptMatrix(t *testing.T) {
	cases := []struct {
		name   string
		img    func() modelImage
		tamper func(*modelEnvelope)
		want   string
	}{
		{"envelope-version", validImage, func(e *modelEnvelope) { e.Version = 99 }, "version"},
		{"checksum-flip", validImage, func(e *modelEnvelope) { e.Payload[len(e.Payload)-1] ^= 0xff }, "checksum"},
		{"payload-version", func() modelImage { i := validImage(); i.Version = 99; return i }, nil, "version"},
		{"feature-count", func() modelImage { i := validImage(); i.NumFeatures = 7; return i }, nil, "features"},
		{"short-exec-coef", func() modelImage { i := validImage(); i.ExecCoef = i.ExecCoef[:3]; return i }, nil, "sized"},
		{"nil-mem-coef", func() modelImage { i := validImage(); i.MemCoef = nil; return i }, nil, "sized"},
		{"nan-coef", func() modelImage { i := validImage(); i.ExecCoef[2] = math.NaN(); return i }, nil, "non-finite"},
		{"inf-mem-coef", func() modelImage { i := validImage(); i.MemCoef[0] = math.Inf(1); return i }, nil, "non-finite"},
		{"negative-mape", func() modelImage { i := validImage(); i.MAPE = -1; return i }, nil, "bad error bounds"},
		{"nan-maxrel", func() modelImage { i := validImage(); i.MaxRel = math.NaN(); return i }, nil, "bad error bounds"},
		{"negative-agg-max", func() modelImage { i := validImage(); i.AggMax = -0.5; return i }, nil, "aggregate"},
		{"negative-samples", func() modelImage { i := validImage(); i.FitSamples = -1; return i }, nil, "negative sample counts"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Decode(encodeForged(t, tc.img(), tc.tamper))
			if err == nil {
				t.Fatal("forged model decoded without error")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestDecodeGarbageAndTruncated: arbitrary bytes and streams cut off
// mid-write must error, not panic.
func TestDecodeGarbageAndTruncated(t *testing.T) {
	if _, err := Decode([]byte("not a model")); err == nil {
		t.Fatal("garbage decoded without error")
	}
	m, err := Fit(syntheticSamples(200), "mesi")
	if err != nil {
		t.Fatal(err)
	}
	data, err := Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	for _, frac := range []int{2, 4, 10} {
		cut := len(data) / frac
		if _, err := Decode(data[:cut]); err == nil {
			t.Fatalf("stream cut to %d/%d bytes decoded without error", cut, len(data))
		}
	}
}
