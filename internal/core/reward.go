package core

import (
	"fmt"

	"cohmeleon/internal/esp"
)

// RewardWeights are the x, y, z coefficients of the reward function
// R = x·Rexec + y·Rcomm + z·Rmem (paper §4.2). The paper's best general
// setting — used for Figures 8 and 9 — weighs execution time 67.5%,
// communication ratio 7.5% and off-chip accesses 25%.
type RewardWeights struct {
	Exec float64
	Comm float64
	Mem  float64
}

// DefaultWeights returns the (67.5, 7.5, 25) setting.
func DefaultWeights() RewardWeights { return RewardWeights{Exec: 0.675, Comm: 0.075, Mem: 0.25} }

// Validate reports whether the weights can be normalized: their sum
// must be positive (individual coefficients may be zero).
func (w RewardWeights) Validate() error {
	if w.Exec+w.Comm+w.Mem <= 0 {
		// Format the fields directly: %v would re-enter String → Normalized.
		return fmt.Errorf("core: non-positive reward weights (x=%g, y=%g, z=%g)", w.Exec, w.Comm, w.Mem)
	}
	return nil
}

// Normalized returns the weights scaled to sum to one, or an error for
// weights whose sum is not positive.
func (w RewardWeights) Normalized() (RewardWeights, error) {
	if err := w.Validate(); err != nil {
		return RewardWeights{}, err
	}
	sum := w.Exec + w.Comm + w.Mem
	return RewardWeights{Exec: w.Exec / sum, Comm: w.Comm / sum, Mem: w.Mem / sum}, nil
}

// String formats the weights as percentages (raw values for weights
// that cannot be normalized).
func (w RewardWeights) String() string {
	n, err := w.Normalized()
	if err != nil {
		return fmt.Sprintf("(%g, %g, %g)", w.Exec, w.Comm, w.Mem)
	}
	return fmt.Sprintf("(%.1f, %.1f, %.1f)", n.Exec*100, n.Comm*100, n.Mem*100)
}

// accHistory keeps the per-accelerator running extrema the reward
// components are normalized against (min over j ≤ i in the paper's
// formulas, including the current invocation); seen marks an
// accelerator with history.
type accHistory struct {
	minExec float64
	minComm float64
	minMem  float64
	maxMem  float64
	seen    bool
}

// RewardComputer turns invocation results into rewards. One instance
// accumulates history for all accelerators of a system; history
// persists across training iterations, as on the real system.
type RewardComputer struct {
	weights RewardWeights
	hist    []accHistory // indexed by AccTile.ID, grown on demand
	useTrue bool
}

// NewRewardComputer returns a computer with the given weights
// (normalized to sum to one); weights whose sum is not positive are
// rejected.
func NewRewardComputer(w RewardWeights) (*RewardComputer, error) {
	n, err := w.Normalized()
	if err != nil {
		return nil, err
	}
	return &RewardComputer{weights: n}, nil
}

// UseTrueDDR switches the mem component from the paper's footprint-
// proportional approximation to the simulator's ground truth — the
// attribution ablation. Real hardware cannot do this without extra
// support (paper §4.3).
func (rc *RewardComputer) UseTrueDDR(on bool) { rc.useTrue = on }

// Components returns the three reward components for a result, updating
// the per-accelerator history first (so min/max include this
// invocation, per the paper's min over j ≤ i).
func (rc *RewardComputer) Components(res *esp.Result) (rExec, rComm, rMem float64) {
	k := res.Acc.ID
	if k >= len(rc.hist) {
		rc.hist = append(rc.hist, make([]accHistory, k+1-len(rc.hist))...)
	}
	h := &rc.hist[k]
	exec := res.ScaledExec()
	comm := res.CommRatio()
	mem := res.ScaledMem()
	if rc.useTrue {
		mem = float64(res.OffChipTrue) / float64(res.FootprintBytes)
	}
	if !h.seen {
		*h = accHistory{minExec: exec, minComm: comm, minMem: mem, maxMem: mem, seen: true}
	} else {
		if exec < h.minExec {
			h.minExec = exec
		}
		if comm < h.minComm {
			h.minComm = comm
		}
		if mem < h.minMem {
			h.minMem = mem
		}
		if mem > h.maxMem {
			h.maxMem = mem
		}
	}

	// Rexec = min exec / exec: 1 for the best run seen, <1 otherwise.
	if exec <= 0 {
		rExec = 1
	} else {
		rExec = h.minExec / exec
	}
	// Rcomm = min comm / comm; an invocation with no communication at
	// all earns the full component.
	if comm <= 0 {
		rComm = 1
	} else {
		rComm = h.minComm / comm
	}
	// Rmem maps the observed range onto [0,1], high accesses near zero.
	if h.maxMem > h.minMem {
		rMem = 1 - (mem-h.minMem)/(h.maxMem-h.minMem)
	} else {
		rMem = 1
	}
	return rExec, rComm, rMem
}

// Reward returns the weighted reward for a result.
func (rc *RewardComputer) Reward(res *esp.Result) float64 {
	rExec, rComm, rMem := rc.Components(res)
	return rc.weights.Exec*rExec + rc.weights.Comm*rComm + rc.weights.Mem*rMem
}

// Reset clears accumulated history (a fresh deployment).
func (rc *RewardComputer) Reset() {
	clear(rc.hist)
	rc.hist = rc.hist[:0]
}
