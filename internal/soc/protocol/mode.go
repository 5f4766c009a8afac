// Package protocol defines the coherence-protocol seam of the
// simulated SoC: the accelerator coherence modes of the paper, the
// fine-grain (per-region) actions built on top of them, and the named,
// registry-backed protocol rule sets the coherence flows in
// internal/soc interpret.
//
// A protocol here is pure data (Rules): a small descriptor of the
// directory's grant, forward, recall and software-flush policy,
// consumed identically by the run-batched fast paths and the per-line
// reference flows of internal/soc. The reference flows are the
// defining spec — every registered protocol's batched path is pinned
// against its own reference by the batched-vs-reference property test
// — so a new protocol is correct by construction once its Rules are
// interpreted by both sides.
package protocol

import "fmt"

// Mode is an accelerator cache-coherence mode (paper §2).
type Mode uint8

// The four coherence modes.
const (
	// NonCohDMA: requests bypass the hierarchy and access DRAM directly;
	// software must flush caches beforehand (which ones is a protocol
	// rule; see Rules).
	NonCohDMA Mode = iota
	// LLCCohDMA: requests go to the LLC; coherent with the LLC but not
	// necessarily with private caches — the protocol decides whether
	// software flushes them or the directory recalls them.
	LLCCohDMA
	// CohDMA: requests go to the LLC and the LLC recalls/invalidates
	// private copies as needed; no software flush.
	CohDMA
	// FullyCoh: the accelerator owns a private cache that participates in
	// the coherence protocol exactly like a processor cache.
	FullyCoh

	NumModes = 4
)

// AllModes lists the modes in paper order.
var AllModes = [NumModes]Mode{NonCohDMA, LLCCohDMA, CohDMA, FullyCoh}

// String returns the paper's short mode name.
func (m Mode) String() string {
	switch m {
	case NonCohDMA:
		return "non-coh-dma"
	case LLCCohDMA:
		return "llc-coh-dma"
	case CohDMA:
		return "coh-dma"
	case FullyCoh:
		return "full-coh"
	default:
		return fmt.Sprintf("Mode(%d)", uint8(m))
	}
}

// NeedsPrivateFlush reports whether the mode requires flushing private
// caches before the accelerator runs, under the default (mesi)
// protocol. Protocol variants redefine flush obligations through their
// Rules; use SoC.NeedsPrivateFlush for the active protocol's answer.
func (m Mode) NeedsPrivateFlush() bool { return m == NonCohDMA || m == LLCCohDMA }

// NeedsLLCFlush reports whether the mode requires flushing the LLC,
// under the default (mesi) protocol.
func (m Mode) NeedsLLCFlush() bool { return m == NonCohDMA }

// UsesLLC reports whether accelerator requests are served by the LLC,
// under the default (mesi) protocol.
func (m Mode) UsesLLC() bool { return m == LLCCohDMA || m == CohDMA || m == FullyCoh }
