package cache

import (
	"fmt"
	"math/bits"

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
//
// Outcomes come back as masks so the caller can walk only the lines
// that need work: a DirRun's ComplexMask (hits needing recalls or
// invalidations), DirtyMask (misses whose victim only needs a DRAM
// writeback) and the line indices of its recall Victims are disjoint,
// and together they are every line the per-line loop would do more for
// than reserve the LLC pipeline. Every other line's occupancy follows
// from HitMask alone.
//
// A run's Ways double as hints: a private cache filled from a run keeps
// each line's LLC way (Cache.Insert/InsertRun's llcWay), hands it back
// on the line's Victim, and the caller finds the line's entry again
// with ProbeAt, which revalidates the way by tag and falls back to a
// set scan, so hints change what is scanned, never what is found.

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

// RunVictim pairs a displaced valid entry that lists private copies —
// a recall victim — with the index of the run line whose fill displaced
// it.
type RunVictim struct {
	Idx int32
	V   DirVictim
}

// DirRun is the reusable outcome buffer of one AccessOrInsertRun call.
// Bit i of the masks refers to lines[i]; Ways[i] is the way index of
// the line's entry (valid until a later insert displaces it — ProbeAt
// revalidates by tag). Every displaced victim that needs caller-side
// work is in exactly one place: DirtyMask names the miss lines whose
// victim held dirty data and listed no private copies (the caller only
// posts its writeback to DRAM), and Victims lists, in line order, the
// recall victims, which list an owner or sharers (dirty or not). Clean
// victims without private copies are absorbed silently.
type DirRun struct {
	Ways        []int32
	HitMask     uint64 // line was already resident
	ComplexMask uint64 // hit line needs caller-side recalls/invalidations
	DirtyMask   uint64 // miss line displaced a dirty victim with no private copies
	Victims     []RunVictim
	Hits        int
	Misses      int
}

// AccessOrInsertRun performs AccessOrInsert for every line of the run
// and applies the protocol-update rule to each plain line in the same
// pass. A hit line is complex — left for the caller to recall private
// copies and then update, via ProbeAt — when the update rule requires
// interrogating private copies: a foreign owner (or, on writes, any
// sharer) under RunCached, and the same under RunDMA with RecallOwners.
// Displaced victims are reported as the DirRun comment describes. See
// the file comment for preconditions.
func (d *Directory) AccessOrInsertRun(lines []mem.LineAddr, missState DirState, upd RunUpdate, out *DirRun) {
	if missState == DirInvalid {
		panic("cache: directory AccessOrInsertRun with invalid state")
	}
	if len(lines) > 64 {
		panic(fmt.Sprintf("cache: AccessOrInsertRun over %d lines exceeds the outcome mask", len(lines)))
	}
	if cap(out.Ways) < 64 {
		out.Ways = make([]int32, 64)
	}
	// Reslicing a field in place stores no new pointer, so it needs no GC
	// write barrier; only a (rare) recall victim's append does.
	out.Ways = out.Ways[:len(lines)]
	out.Victims = out.Victims[:0]
	ways := out.Ways
	var hitMask, complexMask, dirtyMask uint64
	var hits, evictions, writebacks, recalls, filled int
	cached := upd.Kind == RunCached
	for i, line := range lines {
		s := d.setIndex(line)
		base := s * d.assoc
		rec := &d.rec[s]
		bit := uint64(1) << uint(i)
		if j := bits.TrailingZeros32(matchTags(d.tags[base:base+d.assoc], line)); int64(j) < d.assoc {
			e := &d.entries[base+int64(j)]
			rec.touch(j)
			hitMask |= bit
			hits++
			ways[i] = int32(base) + int32(j)
			if cached {
				if (e.Owner != NoOwner && e.Owner != upd.Self) ||
					(upd.Write && e.Sharers != 0) {
					complexMask |= bit
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
				complexMask |= bit
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
		w := base + int64(rec.replace(int(d.assoc)))
		e := &d.entries[w]
		ways[i] = int32(w)
		if e.State != DirInvalid {
			evictions++
			dirty := e.State == DirDirty
			if dirty {
				writebacks++
			}
			if e.Owner != NoOwner || e.Sharers != 0 {
				recalls++
				d.noteEvicted(e.Owner, e.Sharers)
				out.Victims = append(out.Victims, RunVictim{Idx: int32(i), V: DirVictim{
					Line:     e.Line,
					WasDirty: dirty,
					Owner:    e.Owner,
					Sharers:  e.Sharers,
					Valid:    true,
				}})
			} else if dirty {
				dirtyMask |= bit
			}
		} else {
			filled++
		}
		*e = DirEntry{Line: line, State: missState, Owner: NoOwner}
		d.tags[w] = line
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
	misses := len(lines) - hits
	d.stats.Hits += int64(hits)
	d.stats.Misses += int64(misses)
	d.stats.Evictions += int64(evictions)
	d.stats.Writebacks += int64(writebacks)
	d.stats.Recalls += int64(recalls)
	d.lines += filled
	out.HitMask, out.ComplexMask, out.DirtyMask = hitMask, complexMask, dirtyMask
	out.Hits, out.Misses = hits, misses
}

// ProbeAt returns the entry at the given way if it still holds the line,
// falling back to a full Probe (which reports nil when the line was
// displaced in the meantime). It is exactly equivalent to Probe(line),
// minus the set scan in the common undisturbed case. way is a hint: a
// run's Ways entry, a private-cache line's LLC way (Victim.LLCWay), or
// -1 for none; a negative, out-of-range or stale hint takes the scan.
func (d *Directory) ProbeAt(way int32, line mem.LineAddr) *DirEntry {
	if uint(way) < uint(len(d.tags)) && d.tags[way] == line {
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
		s, base, j := d.find(line)
		if int64(j) >= d.assoc {
			continue
		}
		i := base + int64(j)
		e := &d.entries[i]
		if e.Owner != NoOwner || e.Sharers != 0 {
			panic("cache: InvalidateRun on a line with private copies")
		}
		if e.State == DirDirty {
			d.stats.Writebacks++
			dirty++
		}
		*e = DirEntry{Line: noLine, Owner: NoOwner}
		d.tags[i] = noLine
		d.rec[s].drop(j)
		d.lines--
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
		j := bits.TrailingZeros32(matchWays(set, line))
		if j >= len(set) {
			c.stats.Misses++
			misses = append(misses, line)
			continue
		}
		c.rec[s].touch(j)
		c.stats.Hits++
		if write {
			if w := &set[j]; w.state == Modified || w.state == Exclusive {
				w.state = Modified
			} else {
				// Write hit in Shared: needs the upgrade round trip.
				misses = append(misses, line)
			}
		}
	}
	return misses
}

// InsertRun fills every listed line with the uniform state st (the
// write-allocate path fills Modified), appending displaced valid
// victims in insert order. llcWays[i] is lines[i]'s LLC way hint (a
// run's Ways). It is exactly equivalent to calling Insert per line;
// deferring the victims is safe because handling them never touches
// this cache.
func (c *Cache) InsertRun(lines []mem.LineAddr, st State, llcWays []int32, victims []Victim) []Victim {
	if st == Invalid {
		panic("cache: InsertRun with Invalid state")
	}
	for i, line := range lines {
		if v := c.Insert(line, st, llcWays[i]); v.Valid {
			victims = append(victims, v)
		}
	}
	return victims
}
