// Package policy provides the baseline coherence policies the paper
// compares Cohmeleon against (§4.3 "Decide"): Random, the four fixed
// homogeneous policies, the profiling-derived fixed heterogeneous
// policy, and the manually-tuned runtime algorithm (Algorithm 1).
// All implement esp.Policy.
package policy

import (
	"fmt"
	"sort"
	"strings"

	"cohmeleon/internal/esp"
	"cohmeleon/internal/sim"
	"cohmeleon/internal/soc"
)

// Random chooses a coherence mode uniformly at random per invocation.
type Random struct {
	rng *sim.RNG
}

// NewRandom returns a random policy seeded deterministically.
func NewRandom(seed uint64) *Random { return &Random{rng: sim.NewRNG(seed ^ 0xabcd)} }

// Name implements esp.Policy.
func (r *Random) Name() string { return "rand" }

// Decide implements esp.Policy.
func (r *Random) Decide(ctx *esp.Context) soc.Mode {
	return ctx.Available[r.rng.Intn(len(ctx.Available))]
}

// Observe implements esp.Policy.
func (r *Random) Observe(*esp.Result) {}

// OverheadCycles implements esp.Policy.
func (r *Random) OverheadCycles() sim.Cycles { return RandomOverheadCycles }

// Fixed applies one coherence mode to every invocation — the
// design-time homogeneous choice that represents nearly all prior work.
// Tiles lacking the mode (no private cache) fall back to the nearest
// available one.
type Fixed struct {
	mode soc.Mode
}

// NewFixed returns the fixed policy for a mode.
func NewFixed(mode soc.Mode) *Fixed { return &Fixed{mode: mode} }

// Name implements esp.Policy.
func (f *Fixed) Name() string { return "fixed-" + f.mode.String() }

// Decide implements esp.Policy.
func (f *Fixed) Decide(ctx *esp.Context) soc.Mode { return ctx.Clamp(f.mode) }

// Observe implements esp.Policy.
func (f *Fixed) Observe(*esp.Result) {}

// OverheadCycles implements esp.Policy.
func (f *Fixed) OverheadCycles() sim.Cycles { return FixedOverheadCycles }

// Static implements esp.StaticPolicy: Decide clamps the one mode to
// the tile's available modes and reads nothing else.
func (f *Fixed) Static() bool { return true }

// MemoKey marks Fixed as memoizable: its decisions are a pure function
// of the construction mode, and its Observe is stateless, so an app run
// under it is a pure function of (SoC config, mode, app, seed). The
// experiment run cache keys on this. Random deliberately lacks a
// MemoKey — its RNG advances per decision, so a second run of the same
// instance depends on the first having actually executed.
func (f *Fixed) MemoKey() string { return "fixed:" + f.mode.String() }

// FixedHeterogeneous assigns one design-time mode per accelerator type,
// the per-accelerator static choice of prior work (Bhardwaj et al.).
// The assignment comes from profiling each accelerator in isolation
// across workload footprints (see the experiment package's profiler).
type FixedHeterogeneous struct {
	assignment map[string]soc.Mode // keyed by spec name
	fallback   soc.Mode
}

// NewFixedHeterogeneous builds the policy from a profiling-derived
// assignment. Unknown accelerators use the fallback mode.
func NewFixedHeterogeneous(assignment map[string]soc.Mode, fallback soc.Mode) *FixedHeterogeneous {
	cp := make(map[string]soc.Mode, len(assignment))
	for k, v := range assignment {
		cp[k] = v
	}
	return &FixedHeterogeneous{assignment: cp, fallback: fallback}
}

// Name implements esp.Policy.
func (f *FixedHeterogeneous) Name() string { return "fixed-hetero" }

// Assignment returns the mode chosen for a spec name.
func (f *FixedHeterogeneous) Assignment(specName string) soc.Mode {
	if m, ok := f.assignment[specName]; ok {
		return m
	}
	return f.fallback
}

// Decide implements esp.Policy.
func (f *FixedHeterogeneous) Decide(ctx *esp.Context) soc.Mode {
	return ctx.Clamp(f.Assignment(ctx.Acc.Spec.Name))
}

// Observe implements esp.Policy.
func (f *FixedHeterogeneous) Observe(*esp.Result) {}

// OverheadCycles implements esp.Policy.
func (f *FixedHeterogeneous) OverheadCycles() sim.Cycles { return HeteroOverheadCycles }

// Static implements esp.StaticPolicy: Decide reads only the tile's
// spec name and available modes.
func (f *FixedHeterogeneous) Static() bool { return true }

// String describes the assignment (for reports).
func (f *FixedHeterogeneous) String() string {
	return fmt.Sprintf("fixed-hetero(%d accelerators profiled)", len(f.assignment))
}

// MemoKey marks FixedHeterogeneous as memoizable (see Fixed.MemoKey):
// the key encodes the full profiling-derived assignment in sorted
// order plus the fallback, so two policies behave identically exactly
// when their keys match.
func (f *FixedHeterogeneous) MemoKey() string {
	specs := make([]string, 0, len(f.assignment))
	for name := range f.assignment {
		specs = append(specs, name)
	}
	sort.Strings(specs)
	var b strings.Builder
	b.WriteString("hetero:")
	for _, name := range specs {
		fmt.Fprintf(&b, "%s=%s;", name, f.assignment[name])
	}
	fmt.Fprintf(&b, "fallback=%s", f.fallback)
	return b.String()
}
