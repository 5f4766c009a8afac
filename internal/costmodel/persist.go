package costmodel

import (
	"fmt"

	"cohmeleon/internal/store"
)

// Versioned, checksummed persistence for fitted models, so calibrated
// coefficients are cacheable under -cache-dir with the same integrity
// story as every other durable file: the store's envelope frames the
// payload with a format version and its sha256, and Decode then
// validates the payload's geometry and sanity. Decode never indexes
// before validating and rejects non-finite coefficients, mirroring the
// learn package's DecodeState hardening — a truncated, bit-rotted, or
// foreign file is an error, never a panic or a silently wrong model.

// FormatVersion tags the persisted model layout. Bump on any change to
// modelImage or the feature ordering: NumFeatures is part of the
// payload and checked on decode, so a feature-set change also
// invalidates old files even within one version.
const FormatVersion = 1

// modelImage is the persisted (exported-field, slice-based) form.
type modelImage struct {
	Version     int
	NumFeatures int
	Protocol    string
	ExecCoef    []float64
	MemCoef     []float64
	MAPE        float64
	MaxRel      float64
	AggMAPE     float64
	AggMax      float64
	FitSamples  int
	HeldOut     int
}

// Encode seals a model in the store's checksummed envelope.
func Encode(m *Model) ([]byte, error) {
	img := modelImage{
		Version:     FormatVersion,
		NumFeatures: NumFeatures,
		Protocol:    m.Protocol,
		ExecCoef:    m.ExecCoef[:],
		MemCoef:     m.MemCoef[:],
		MAPE:        m.Err.MAPE,
		MaxRel:      m.Err.MaxRel,
		AggMAPE:     m.Err.AggMAPE,
		AggMax:      m.Err.AggMax,
		FitSamples:  m.Err.FitSamples,
		HeldOut:     m.Err.HeldOut,
	}
	return store.Seal(FormatVersion, &img)
}

// Decode verifies, decodes and validates a persisted model. Any error
// means the file is unusable (corrupt, truncated, wrong version, or
// carrying nonsense coefficients); callers treat it as absent and
// refit.
func Decode(data []byte) (*Model, error) {
	var img modelImage
	if err := store.Unseal(data, FormatVersion, &img); err != nil {
		return nil, fmt.Errorf("costmodel: %w", err)
	}
	if img.Version != FormatVersion {
		return nil, fmt.Errorf("costmodel: model payload version %d, want %d", img.Version, FormatVersion)
	}
	if img.NumFeatures != NumFeatures {
		return nil, fmt.Errorf("costmodel: model spans %d features, this build uses %d", img.NumFeatures, NumFeatures)
	}
	if len(img.ExecCoef) != NumFeatures || len(img.MemCoef) != NumFeatures {
		return nil, fmt.Errorf("costmodel: coefficient vectors sized %d/%d, want %d",
			len(img.ExecCoef), len(img.MemCoef), NumFeatures)
	}
	for i := 0; i < NumFeatures; i++ {
		if !isFinite(img.ExecCoef[i]) || !isFinite(img.MemCoef[i]) {
			return nil, fmt.Errorf("costmodel: non-finite coefficient for %s", FeatureName(i))
		}
	}
	if !isFinite(img.MAPE) || !isFinite(img.MaxRel) || img.MAPE < 0 || img.MaxRel < 0 {
		return nil, fmt.Errorf("costmodel: bad error bounds (mape=%g max=%g)", img.MAPE, img.MaxRel)
	}
	if !isFinite(img.AggMAPE) || !isFinite(img.AggMax) || img.AggMAPE < 0 || img.AggMax < 0 {
		return nil, fmt.Errorf("costmodel: bad aggregate error bounds (mape=%g max=%g)", img.AggMAPE, img.AggMax)
	}
	if img.FitSamples < 0 || img.HeldOut < 0 {
		return nil, fmt.Errorf("costmodel: negative sample counts (%d fit, %d held)", img.FitSamples, img.HeldOut)
	}
	m := &Model{
		Protocol: img.Protocol,
		Err: Bounds{MAPE: img.MAPE, MaxRel: img.MaxRel,
			AggMAPE: img.AggMAPE, AggMax: img.AggMax,
			FitSamples: img.FitSamples, HeldOut: img.HeldOut},
	}
	copy(m.ExecCoef[:], img.ExecCoef)
	copy(m.MemCoef[:], img.MemCoef)
	return m, nil
}
