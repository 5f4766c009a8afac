package esp

import (
	"fmt"

	"cohmeleon/internal/mem"
	"cohmeleon/internal/soc"
)

// Tracker is the introspective software layer (paper §4.3 "Sense"): a
// global structure recording, for each active accelerator invocation,
// its coherence mode and its memory footprint per partition. The ESP
// API updates it when an accelerator is invoked and when it returns
// control to software.
type Tracker struct {
	s      *soc.SoC
	active map[int]*activeInv // key: AccTile.ID
}

type activeInv struct {
	acc     *soc.AccTile
	mode    soc.Mode
	bytes   int64
	perPart []int64 // bytes on each memory partition
}

// NewTracker returns an empty tracker for the SoC.
func NewTracker(s *soc.SoC) *Tracker {
	return &Tracker{s: s, active: make(map[int]*activeInv)}
}

// Add records an invocation as active. It panics if the tile already
// has one in flight (LCAs execute one task at a time).
func (tr *Tracker) Add(a *soc.AccTile, mode soc.Mode, buf *mem.Buffer) {
	if _, dup := tr.active[a.ID]; dup {
		panic(fmt.Sprintf("esp: accelerator %s already active", a.InstName))
	}
	inv := &activeInv{acc: a, mode: mode, bytes: buf.Bytes, perPart: tr.perPartition(buf)}
	tr.active[a.ID] = inv
}

// Remove clears an invocation when the accelerator returns.
func (tr *Tracker) Remove(a *soc.AccTile) {
	if _, ok := tr.active[a.ID]; !ok {
		panic(fmt.Sprintf("esp: accelerator %s not active", a.InstName))
	}
	delete(tr.active, a.ID)
}

func (tr *Tracker) perPartition(buf *mem.Buffer) []int64 {
	out := make([]int64, tr.s.Map.Partitions())
	for p := range out {
		out[p] = buf.BytesOnPartition(tr.s.Map, p)
	}
	return out
}

// Sense assembles the decision context for a new invocation of a on the
// dataset buf, summarizing the tracker per the paper's state variables:
// active accelerator counts and footprints on the partitions this
// invocation needs.
func (tr *Tracker) Sense(a *soc.AccTile, buf *mem.Buffer) *Context {
	cfg := tr.s.Cfg
	parts := buf.Partitions(tr.s.Map)
	selfPerPart := tr.perPartition(buf)

	ctx := &Context{
		Acc:            a,
		Available:      a.AvailableModes(),
		FootprintBytes: buf.Bytes,
		Partitions:     parts,
		L2Bytes:        cfg.L2Bytes(),
		LLCSliceBytes:  cfg.LLCSliceBytes(),
		TotalLLCBytes:  cfg.TotalLLCBytes(),
	}

	var nonCohOnParts, toLLCOnParts int
	var bytesOnParts float64
	for _, p := range parts {
		bytesOnParts += float64(selfPerPart[p])
	}
	for _, inv := range tr.active {
		ctx.ActiveCount++
		ctx.ActiveFootprintBytes += inv.bytes
		switch inv.mode {
		case soc.NonCohDMA:
			ctx.ActiveNonCoh++
		case soc.LLCCohDMA:
			ctx.ActiveLLCCoh++
		case soc.CohDMA:
			ctx.ActiveCohDMA++
		case soc.FullyCoh:
			ctx.ActiveFullyCoh++
		}
		if inv.mode == soc.FullyCoh {
			ctx.FullyCohActive++
		}
		for _, p := range parts {
			if inv.perPart[p] == 0 {
				continue
			}
			bytesOnParts += float64(inv.perPart[p])
			if inv.mode == soc.NonCohDMA {
				nonCohOnParts++
			} else {
				toLLCOnParts++
			}
		}
	}
	n := float64(len(parts))
	if n > 0 {
		ctx.NonCohPerTile = float64(nonCohOnParts) / n
		ctx.ToLLCPerTile = float64(toLLCOnParts) / n
		ctx.TileFootprintBytes = bytesOnParts / n
	}
	return ctx
}

// AttributeDDR applies the paper's approximation: the invocation's share
// of each controller's counter delta is proportional to its footprint on
// that controller relative to all active footprints there (self
// included). deltas is indexed by partition.
func (tr *Tracker) AttributeDDR(a *soc.AccTile, buf *mem.Buffer, deltas []int64) float64 {
	selfPerPart := tr.perPartition(buf)
	var total float64
	for p, delta := range deltas {
		if delta == 0 || selfPerPart[p] == 0 {
			continue
		}
		sum := float64(selfPerPart[p])
		for _, inv := range tr.active {
			if inv.acc.ID != a.ID {
				sum += float64(inv.perPart[p])
			}
		}
		total += float64(delta) * float64(selfPerPart[p]) / sum
	}
	return total
}
