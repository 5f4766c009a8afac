package cache

import (
	"fmt"

	"cohmeleon/internal/mem"
)

// This file implements the run-level operations of the coherence state
// machines: one call processes a whole contiguous line group (or the
// missed subset of one) with exactly the per-line state transitions,
// LRU updates and event counts of the corresponding per-line loop. The
// SoC layer batches the uniform "plain" lines' timing around these
// calls and handles only the exceptional lines (recalls, invalidations,
// victims needing work) individually; the soc property tests pin the
// batched flows against the retained per-line reference flows.
//
// Preconditions shared by the directory run operations:
//
//   - len(lines) ≤ 64 (outcome masks are one word; the protocol group
//     size is far below this),
//   - the lines map to pairwise-distinct sets (guaranteed for any
//     subset of a contiguous group no longer than the set count).
//
// Distinct sets make the scan of line i independent of the fills and
// protocol updates applied for lines j < i, which is what lets the
// caller move all per-line timing out of the tag-scan loop: nothing the
// per-line reference loop does between two scans touches another set.
// Callers fall back to the per-line reference flow when the
// preconditions do not hold (degenerate geometries).

// RunKind selects the protocol-update rule AccessOrInsertRun applies
// in-batch to plain lines.
type RunKind uint8

const (
	// RunCached is a coherent agent reading or write-allocating through
	// its private cache (the cachedGroupAccess flow); Update.Self is the
	// requesting agent.
	RunCached RunKind = iota
	// RunDMA is a DMA bridge accessing through the LLC (the dmaGroupLLC
	// flow); Update.RecallOwners selects CohDMA semantics.
	RunDMA
)

// RunUpdate parameterizes the protocol-update rule of one run.
type RunUpdate struct {
	Kind           RunKind
	Write          bool
	RecallOwners   bool // RunDMA: interrogate and recall private copies
	ExclusiveGrant bool // RunCached: grant unshared read lines exclusive ownership
	Self           int  // RunCached: the requesting agent index
}

// RunVictim pairs a displaced valid entry that needs caller-side work
// (dirty data, or private copies to recall) with the index of the run
// line whose fill displaced it.
type RunVictim struct {
	Idx int32
	V   DirVictim
}

// DirRun is the reusable outcome buffer of one AccessOrInsertRun call.
// Bit i of the masks refers to lines[i]; Ways[i] is the way index of
// the line's entry (valid until a later insert displaces it — ProbeAt
// revalidates by tag).
type DirRun struct {
	Ways        []int32
	HitMask     uint64 // line was already resident
	ComplexMask uint64 // hit line needs caller-side recalls/invalidations
	Victims     []RunVictim
	Hits        int
	Misses      int
}

// reset clears the buffer for reuse without releasing storage.
func (r *DirRun) reset() {
	r.Ways = r.Ways[:0]
	r.Victims = r.Victims[:0]
	r.HitMask, r.ComplexMask = 0, 0
	r.Hits, r.Misses = 0, 0
}

// AccessOrInsertRun performs AccessOrInsert for every line of the run
// and applies the protocol-update rule to each plain line in the same
// pass. A hit line is complex — left for the caller to recall private
// copies and then update, via ProbeAt — when the update rule requires
// interrogating private copies: a foreign owner (or, on writes, any
// sharer) under RunCached, and the same under RunDMA with RecallOwners.
// Displaced valid victims that need caller-side work (dirty data,
// private copies) are reported in line order; clean unshared victims
// are absorbed silently, exactly as the per-line loop's victim handling
// would fall through. See the file comment for preconditions.
func (d *Directory) AccessOrInsertRun(lines []mem.LineAddr, missState DirState, upd RunUpdate, out *DirRun) {
	if missState == DirInvalid {
		panic("cache: directory AccessOrInsertRun with invalid state")
	}
	if len(lines) > 64 {
		panic(fmt.Sprintf("cache: AccessOrInsertRun over %d lines exceeds the outcome mask", len(lines)))
	}
	out.reset()
	if cap(out.Ways) < len(lines) {
		out.Ways = make([]int32, 0, 64)
	}
	cached := upd.Kind == RunCached
	for i, line := range lines {
		s := d.setIndex(line)
		base := s * d.assoc
		tags := d.tags[base : base+d.assoc]
		rec := &d.rec[s]
		j := 0
		for j < len(tags) && tags[j] != line {
			j++
		}
		if j < len(tags) {
			e := &d.entries[base+int64(j)]
			rec.touch(j)
			d.stats.Hits++
			out.HitMask |= 1 << uint(i)
			out.Hits++
			out.Ways = append(out.Ways, int32(base)+int32(j))
			if cached {
				if (e.Owner != NoOwner && e.Owner != upd.Self) ||
					(upd.Write && e.Sharers != 0) {
					out.ComplexMask |= 1 << uint(i)
					continue
				}
				// The tail of the reference loop, for lines that needed no
				// recalls or invalidations.
				if upd.Write {
					// Plainness guarantees no sharers; owner is self or none.
					d.SetOwner(e, upd.Self)
				} else if upd.ExclusiveGrant && e.Owner == NoOwner && e.Sharers == 0 {
					d.SetOwner(e, upd.Self) // exclusive grant
				} else if e.Owner != upd.Self {
					d.AddSharer(e, upd.Self)
				}
				continue
			}
			if upd.RecallOwners &&
				(e.Owner != NoOwner || (upd.Write && e.Sharers != 0)) {
				out.ComplexMask |= 1 << uint(i)
				continue
			}
			if upd.Write {
				// The bridge claims the line; any remaining directory state
				// is stale by construction (LLCCohDMA runs after a flush).
				d.SetOwner(e, NoOwner)
				d.ClearSharers(e)
				e.State = DirDirty
			}
			continue
		}
		// Miss: fill the set's replacement victim in place exactly as
		// AccessOrInsert does.
		j = rec.victim(len(tags))
		e := &d.entries[base+int64(j)]
		d.stats.Misses++
		out.Misses++
		if e.State != DirInvalid {
			v := DirVictim{
				Line:     e.Line,
				WasDirty: e.State == DirDirty,
				Owner:    e.Owner,
				Sharers:  e.Sharers,
				Valid:    true,
			}
			d.stats.Evictions++
			if v.WasDirty {
				d.stats.Writebacks++
			}
			if v.Owner != NoOwner || v.Sharers != 0 {
				d.stats.Recalls++
				d.noteEvicted(v.Owner, v.Sharers)
			}
			if v.WasDirty || v.Owner != NoOwner || v.Sharers != 0 {
				out.Victims = append(out.Victims, RunVictim{Idx: int32(i), V: v})
			}
		} else {
			d.lines++
		}
		*e = DirEntry{Line: line, State: missState, Owner: NoOwner}
		tags[j] = line
		rec.fill(j)
		out.Ways = append(out.Ways, int32(base)+int32(j))
		if cached {
			// Write-allocate claims ownership; a read miss gets the
			// exclusive grant (no owner, no sharers by construction) only
			// under protocols that grant it, otherwise the reader is just
			// a sharer. RunDMA miss lines keep the fill state: the
			// reference loop `continue`s past the claim for misses.
			if upd.Write || upd.ExclusiveGrant {
				d.SetOwner(e, upd.Self)
			} else {
				d.AddSharer(e, upd.Self)
			}
		}
	}
}

// ProbeAt returns the entry a run reported at the given way if it still
// holds the line, falling back to a full Probe (which reports nil when
// the line was displaced in the meantime). It is exactly equivalent to
// Probe(line), minus the set scan in the common undisturbed case.
func (d *Directory) ProbeAt(way int32, line mem.LineAddr) *DirEntry {
	if d.tags[way] == line {
		return &d.entries[way]
	}
	return d.Probe(line)
}

// InvalidateRun drops every listed line that is resident, returning the
// number that held dirty data. It is exactly equivalent to calling
// Invalidate per line when no resident entry lists private copies
// (HasPrivateCopies() == false — the caller's fast-path condition); it
// panics if an invalidated entry turns out to list any, since the
// caller would have skipped the recalls that line required.
func (d *Directory) InvalidateRun(lines []mem.LineAddr) (dirty int64) {
	for _, line := range lines {
		s := d.setIndex(line)
		base := s * d.assoc
		tags := d.tags[base : base+d.assoc]
		for j := range tags {
			if tags[j] != line {
				continue
			}
			e := &d.entries[base+int64(j)]
			if e.Owner != NoOwner || e.Sharers != 0 {
				panic("cache: InvalidateRun on a line with private copies")
			}
			if e.State == DirDirty {
				d.stats.Writebacks++
				dirty++
			}
			e.State = DirInvalid
			e.Line = noLine
			e.Owner = NoOwner
			e.Sharers = 0
			tags[j] = noLine
			d.rec[s].drop(j)
			d.lines--
			break
		}
	}
	return dirty
}

// AccessUpgradeRun performs AccessUpgrade for n contiguous lines,
// appending to misses every line the caller must take to the LLC: true
// misses, and write hits in Shared (which need an ownership upgrade).
// State transitions, LRU updates and hit/miss counts are exactly those
// of the per-line loop.
func (c *Cache) AccessUpgradeRun(start mem.LineAddr, n int64, write bool, misses []mem.LineAddr) []mem.LineAddr {
	for i := int64(0); i < n; i++ {
		line := start + mem.LineAddr(i)
		s, set := c.setOf(line)
		hit := false
		for j := range set {
			w := &set[j]
			if w.line != line {
				continue
			}
			c.rec[s].touch(j)
			c.stats.Hits++
			if write {
				if st := w.state; st == Modified || st == Exclusive {
					w.state = Modified
				} else {
					// Write hit in Shared: needs the upgrade round trip.
					misses = append(misses, line)
				}
			}
			hit = true
			break
		}
		if !hit {
			c.stats.Misses++
			misses = append(misses, line)
		}
	}
	return misses
}

// InsertRun fills every listed line with the uniform state st (the
// write-allocate path fills Modified), appending displaced valid
// victims in insert order. It is exactly equivalent to calling Insert
// per line; deferring the victims is safe because handling them never
// touches this cache.
func (c *Cache) InsertRun(lines []mem.LineAddr, st State, victims []Victim) []Victim {
	if st == Invalid {
		panic("cache: InsertRun with Invalid state")
	}
	for _, line := range lines {
		if v := c.Insert(line, st); v.Valid {
			victims = append(victims, v)
		}
	}
	return victims
}
