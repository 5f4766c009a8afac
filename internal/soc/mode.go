// Package soc assembles the simulated heterogeneous SoC: a 2D-mesh NoC
// connecting CPU tiles (with private L2 caches), accelerator tiles
// (each wrapped in a coherence-agnostic "socket" with an optional
// private cache), and memory tiles (an inclusive LLC partition with
// directory state plus a DRAM controller each). The socket implements
// the paper's four accelerator cache-coherence modes under a pluggable
// coherence protocol (internal/soc/protocol); hardware monitors expose
// off-chip access counts and accelerator cycle counters.
package soc

import "cohmeleon/internal/soc/protocol"

// Mode is an accelerator cache-coherence mode (paper §2). The type —
// and the fine-grain Action space built on it — is defined by the
// protocol seam; the aliases keep every existing call site intact.
type Mode = protocol.Mode

// Action is one agent decision over the fine-grain action space: a
// uniform mode, or a (hot, cold) per-region split. See protocol.Action.
type Action = protocol.Action

// The four coherence modes.
const (
	NonCohDMA = protocol.NonCohDMA
	LLCCohDMA = protocol.LLCCohDMA
	CohDMA    = protocol.CohDMA
	FullyCoh  = protocol.FullyCoh

	NumModes = protocol.NumModes
	// NumActions is the fine-grain action-space size: the four uniform
	// mode actions (a prefix, so Action(m) == ModeAction(m)) plus the
	// twelve ordered (hot, cold) split pairs.
	NumActions = protocol.NumActions
)

// AllModes lists the modes in paper order.
var AllModes = protocol.AllModes

// UniformActions lists the uniform mode actions in paper order.
var UniformActions = protocol.UniformActions

// ModeAction returns the uniform action for a mode.
func ModeAction(m Mode) Action { return protocol.ModeAction(m) }

// SplitAction returns the fine-grain action assigning hot to the
// invocation's hot region and cold to the remainder.
func SplitAction(hot, cold Mode) Action { return protocol.SplitAction(hot, cold) }
