package protocol

import (
	"fmt"
	"sort"
	"strings"
)

// Rules is one named coherence protocol: the directory policy knobs
// the coherence flows interpret. Rules are pure data — both the
// run-batched fast paths and the per-line reference flows in
// internal/soc read the same descriptor, which is what makes the
// batched-vs-reference property test a conformance check for every
// registered protocol rather than only the default.
type Rules struct {
	// Name is the registry key.
	Name string
	// ExclusiveGrant grants a read miss (or an unshared, unowned read
	// hit) exclusive ownership, MESI-style, so a later write by the same
	// agent upgrades silently. Without it the directory only ever adds
	// the reader as a sharer (MSI-style grants).
	ExclusiveGrant bool
	// OwnerForward lets a recalled dirty owner forward its data without
	// occupying the LLC fill pipeline (the LLC copy updates in the
	// background): the recall completes at the writeback's arrival
	// instead of waiting LLCFillCycles behind the partition port.
	OwnerForward bool
	// PrivateFlush marks the modes whose invocations must be preceded by
	// a software flush of all private caches.
	PrivateFlush [NumModes]bool
	// LLCFlush marks the modes whose invocations must be preceded by a
	// software flush of the LLC.
	LLCFlush [NumModes]bool
	// UsesLLC marks the modes whose accelerator requests are served by
	// the LLC.
	UsesLLC [NumModes]bool
	// RecallOwners marks the DMA-through-LLC modes in which the
	// directory interrogates and recalls private copies in hardware
	// (paying the per-line CohDMACheckCycles penalty).
	RecallOwners [NumModes]bool
}

// DefaultName is the protocol an empty selection resolves to: the
// MESI-style stack the paper models.
const DefaultName = "mesi"

// registry holds the named protocols. Registration happens at init
// time only, so lookups need no locking.
var registry = map[string]Rules{}

// Register adds a protocol; duplicate names panic (registration is a
// programming-time act).
func Register(r Rules) {
	if r.Name == "" {
		panic("protocol: register with empty name")
	}
	if _, dup := registry[r.Name]; dup {
		panic(fmt.Sprintf("protocol: duplicate protocol %q", r.Name))
	}
	registry[r.Name] = r
}

// Names lists the registered protocols in sorted order.
func Names() []string {
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Lookup resolves a protocol name ("" resolves to DefaultName).
func Lookup(name string) (Rules, error) {
	if name == "" {
		name = DefaultName
	}
	r, ok := registry[name]
	if !ok {
		return Rules{}, fmt.Errorf("protocol: unknown protocol %q (valid: %s)",
			name, strings.Join(Names(), ", "))
	}
	return r, nil
}

func init() {
	// The paper's MESI-style stack: silent-exclusive read grants,
	// recalls through the LLC fill pipeline, software private flushes
	// before non-coherent and LLC-coherent DMA, and hardware recalls
	// only for coherent DMA. These rules reproduce the pre-seam flows
	// exactly; every golden report and cycle count pins that identity.
	Register(Rules{
		Name:           DefaultName,
		ExclusiveGrant: true,
		OwnerForward:   false,
		PrivateFlush:   [NumModes]bool{NonCohDMA: true, LLCCohDMA: true},
		LLCFlush:       [NumModes]bool{NonCohDMA: true},
		UsesLLC:        [NumModes]bool{LLCCohDMA: true, CohDMA: true, FullyCoh: true},
		RecallOwners:   [NumModes]bool{CohDMA: true},
	})
	// An ECI-style stack (modeled on ECI's customizable coherency stack
	// for hybrid FPGA-CPU systems): MSI-style grants (reads are never
	// granted silent-exclusive ownership), dirty owners forward recalled
	// data past the LLC fill pipeline, and the LLC-coherent DMA bridge
	// is hardware-coherent with private caches — it recalls owners
	// itself (paying the per-line directory interrogation), so the
	// software private flush is owed only before fully non-coherent DMA.
	Register(Rules{
		Name:           "eci",
		ExclusiveGrant: false,
		OwnerForward:   true,
		PrivateFlush:   [NumModes]bool{NonCohDMA: true},
		LLCFlush:       [NumModes]bool{NonCohDMA: true},
		UsesLLC:        [NumModes]bool{LLCCohDMA: true, CohDMA: true, FullyCoh: true},
		RecallOwners:   [NumModes]bool{LLCCohDMA: true, CohDMA: true},
	})
}
