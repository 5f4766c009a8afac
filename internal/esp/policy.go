// Package esp models the software stack of an ESP SoC: the user-space
// accelerator-invocation API, the introspective status tracker (the
// paper's "sense" phase), the device-driver and flush overheads charged
// inside the invocation window, and the per-accelerator DDR-attribution
// approximation used to evaluate invocations. Coherence policies —
// Cohmeleon's learning module and the baselines — plug in behind the
// Policy interface; the API is otherwise transparent to applications,
// as in the paper.
package esp

import (
	"cohmeleon/internal/sim"
	"cohmeleon/internal/soc"
)

// Policy selects a coherence mode for each accelerator invocation and
// learns (or not) from the outcome. Implementations: the Cohmeleon
// Q-learning module (internal/core) and the baselines (internal/policy).
//
// Implementations must not retain the *Context passed to Decide (or
// DecideAction) or the *Result passed to Observe after the call
// returns: copy out whatever they keep. Callers may reuse both — the
// analytical replay (costmodel.Estimator) fills one Context in place
// for every decision of a run and recycles one Result through every
// observation.
type Policy interface {
	// Name identifies the policy in reports.
	Name() string
	// Decide returns the coherence mode for the invocation described by
	// ctx. It must return one of ctx.Available.
	Decide(ctx *Context) soc.Mode
	// Observe delivers the evaluation of a completed invocation. Policies
	// that do not learn ignore it.
	Observe(res *Result)
	// OverheadCycles is the CPU time charged per invocation for the
	// policy's sensing, bookkeeping and decision (the paper measures
	// Cohmeleon's at 3–6% of a small invocation).
	OverheadCycles() sim.Cycles
}

// ActionPolicy is the optional fine-grain extension of Policy: a policy
// that decides over the full soc.Action space — a uniform mode or a
// (hot, cold) per-region split — instead of a single mode. The ESP API
// prefers DecideAction when a policy implements it; mode-only policies
// are unaffected.
type ActionPolicy interface {
	Policy
	// DecideAction returns the action for the invocation described by
	// ctx. The action's Hot and Cold modes must both be in ctx.Available.
	DecideAction(ctx *Context) soc.Action
}

// StaticPolicy is the optional marker of a design-time policy: one
// whose Decide reads only ctx.Acc and ctx.Available — never the sensed
// status, the footprint or anything earlier invocations taught it — and
// whose Observe ignores its argument. Its choice for an accelerator is
// therefore the same at every invocation, so a caller may decide once
// per accelerator and reuse the mode, skipping sensing, the later
// Decide calls and Observe altogether: the analytical replay
// (costmodel.Estimator) does, and the simulator's API ignores the
// marker. Such a caller still requires every decided mode to be
// available. The marker covers Decide only: an ActionPolicy that
// carries it is still asked per invocation.
type StaticPolicy interface {
	Policy
	// Static reports whether the policy keeps the contract above; a
	// caller treats a policy that returns false like any other.
	Static() bool
}

// Context is the sensed snapshot handed to Decide: what the lightweight
// software layer can know about the invocation and the SoC status. All
// footprint quantities are bytes.
type Context struct {
	// Acc is the target accelerator tile.
	Acc *soc.AccTile
	// Available are the coherence modes the tile supports.
	Available []soc.Mode
	// FootprintBytes is the dataset size of this invocation.
	FootprintBytes int64
	// Partitions are the memory partitions backing the dataset.
	Partitions []int

	// Sensed state (Table 3 inputs).
	FullyCohActive int     // active fully-coherent accelerators, SoC-wide
	NonCohPerTile  float64 // avg active non-coherent accs per needed partition
	ToLLCPerTile   float64 // avg active LLC-bound accs per needed partition
	// TileFootprintBytes is the average active data (other invocations
	// plus this one) on the partitions this invocation needs.
	TileFootprintBytes float64

	// Additional status used by the manually-tuned baseline.
	ActiveCount          int
	ActiveNonCoh         int
	ActiveLLCCoh         int
	ActiveCohDMA         int
	ActiveFullyCoh       int
	ActiveFootprintBytes int64 // total bytes of other active invocations

	// SoC geometry, for threshold bucketing.
	L2Bytes       int64
	LLCSliceBytes int64
	TotalLLCBytes int64
}

// Allows reports whether mode is available for this invocation.
func (c *Context) Allows(mode soc.Mode) bool {
	for _, m := range c.Available {
		if m == mode {
			return true
		}
	}
	return false
}

// Clamp returns mode if available, otherwise the nearest available mode
// (falling back towards less hardware coherence, which every tile
// supports).
func (c *Context) Clamp(mode soc.Mode) soc.Mode {
	if c.Allows(mode) {
		return mode
	}
	for m := mode; ; m-- {
		if c.Allows(m) {
			return m
		}
		if m == soc.NonCohDMA {
			break
		}
	}
	return c.Available[0]
}

// Result is the evaluation of a completed invocation (the paper's
// "evaluate" phase), assembled from software timers and the hardware
// monitors.
type Result struct {
	Acc *soc.AccTile
	// Mode is the invocation's coherence mode — under a fine-grain split
	// action, the hot region's mode (the cold mode is in Action).
	Mode soc.Mode
	// Action is the decision as taken: soc.ModeAction(Mode) for uniform
	// invocations, the split action otherwise.
	Action         soc.Action
	FootprintBytes int64

	// ExecCycles is the total invocation time including driver overhead,
	// TLB load, cache flushes and the policy's own overhead.
	ExecCycles sim.Cycles
	// ActiveCycles is the accelerator's busy time (hardware counter).
	ActiveCycles sim.Cycles
	// CommCycles is the accelerator's communication time (hardware
	// counter).
	CommCycles sim.Cycles
	// OffChipApprox is the paper's footprint-proportional attribution of
	// DDR counter deltas to this invocation.
	OffChipApprox float64
	// OffChipTrue is the simulator's ground truth (not observable by the
	// runtime; used for reporting and the attribution ablation).
	OffChipTrue int64
}

// ScaledExec is exec(k,i): execution time divided by footprint.
func (r *Result) ScaledExec() float64 {
	return float64(r.ExecCycles) / float64(r.FootprintBytes)
}

// CommRatio is comm(k,i): communication cycles over active cycles.
func (r *Result) CommRatio() float64 {
	if r.ActiveCycles == 0 {
		return 0
	}
	return float64(r.CommCycles) / float64(r.ActiveCycles)
}

// ScaledMem is mem(k,i): attributed off-chip accesses over footprint.
func (r *Result) ScaledMem() float64 {
	return r.OffChipApprox / float64(r.FootprintBytes)
}
