package learn

import (
	"fmt"
	"strings"

	"cohmeleon/internal/esp"
)

// The Table-3 featurizer: five SoC-status attributes, three buckets
// each, 3^5 = 243 states (paper §4.2). Attributes can be disabled
// (pinned to bucket 0) for the state-ablation study.

// Attribute identifies one of the five state attributes of Table 3.
type Attribute int

// The five attributes. Each takes one of three values, so the state
// space has 3^5 = 243 states.
const (
	AttrFullyCohAcc   Attribute = iota // active fully-coherent accelerators: 0, 1, 2+
	AttrNonCohPerTile                  // avg non-coh accs per needed partition: 0, 1, 2+
	AttrToLLCPerTile                   // avg LLC-bound accs per needed partition: 0, 1, 2+
	AttrTileFootprint                  // avg utilization of needed partitions: ≤L2, ≤slice, >slice
	AttrAccFootprint                   // this invocation's footprint: ≤L2, ≤slice, >slice
	NumAttributes
)

// String names the attribute as in Table 3.
func (a Attribute) String() string {
	switch a {
	case AttrFullyCohAcc:
		return "fully-coh-acc"
	case AttrNonCohPerTile:
		return "non-coh-acc-per-tile"
	case AttrToLLCPerTile:
		return "to-llc-per-tile"
	case AttrTileFootprint:
		return "tile-footprint"
	case AttrAccFootprint:
		return "acc-footprint"
	default:
		return fmt.Sprintf("Attribute(%d)", int(a))
	}
}

// valuesPerAttribute is the bucket count for each attribute.
const valuesPerAttribute = 3

// NumStates is the size of the state space: 3^5 = 243 (paper §4.2).
const NumStates = 243

// Encoder is the Table-3 Featurizer. Attributes can be disabled
// (treated as constant) for the state-ablation study; the paper's
// encoder has all five enabled.
type Encoder struct {
	disabled [NumAttributes]bool
}

// NewEncoder returns the full five-attribute encoder.
func NewEncoder() *Encoder { return &Encoder{} }

// NewAblatedEncoder returns an encoder with the listed attributes
// disabled (pinned to bucket 0).
func NewAblatedEncoder(disabled ...Attribute) *Encoder {
	e := &Encoder{}
	for _, a := range disabled {
		if a < 0 || a >= NumAttributes {
			panic(fmt.Sprintf("learn: bad attribute %d", a))
		}
		e.disabled[a] = true
	}
	return e
}

// Name implements Featurizer: "table3", with any disabled attributes
// appended ("table3-drop-acc-footprint").
func (e *Encoder) Name() string {
	var b strings.Builder
	b.WriteString("table3")
	for a := Attribute(0); a < NumAttributes; a++ {
		if e.disabled[a] {
			b.WriteString("-drop-")
			b.WriteString(a.String())
		}
	}
	return b.String()
}

// NumStates implements Featurizer.
func (e *Encoder) NumStates() int { return NumStates }

// bucketCount maps a (possibly averaged) count onto {0, 1, 2+}:
// rounds to nearest and clamps.
func bucketCount(x float64) int {
	n := int(x + 0.5)
	if n < 0 {
		n = 0
	}
	if n > 2 {
		n = 2
	}
	return n
}

// bucketFootprint maps bytes onto {≤L2, ≤LLC slice, >LLC slice}.
func bucketFootprint(bytes float64, l2, llcSlice int64) int {
	switch {
	case bytes <= float64(l2):
		return 0
	case bytes <= float64(llcSlice):
		return 1
	default:
		return 2
	}
}

// Values extracts the five attribute buckets from a context.
func (e *Encoder) Values(ctx *esp.Context) [NumAttributes]int {
	var v [NumAttributes]int
	v[AttrFullyCohAcc] = bucketCount(float64(ctx.FullyCohActive))
	v[AttrNonCohPerTile] = bucketCount(ctx.NonCohPerTile)
	v[AttrToLLCPerTile] = bucketCount(ctx.ToLLCPerTile)
	v[AttrTileFootprint] = bucketFootprint(ctx.TileFootprintBytes, ctx.L2Bytes, ctx.LLCSliceBytes)
	v[AttrAccFootprint] = bucketFootprint(float64(ctx.FootprintBytes), ctx.L2Bytes, ctx.LLCSliceBytes)
	for a := Attribute(0); a < NumAttributes; a++ {
		if e.disabled[a] {
			v[a] = 0
		}
	}
	return v
}

// Encode returns the state index for a context.
func (e *Encoder) Encode(ctx *esp.Context) State {
	v := e.Values(ctx)
	idx := 0
	for a := Attribute(0); a < NumAttributes; a++ {
		idx = idx*valuesPerAttribute + v[a]
	}
	return State(idx)
}

// Featurize implements Featurizer.
func (e *Encoder) Featurize(ctx *esp.Context) State { return e.Encode(ctx) }
