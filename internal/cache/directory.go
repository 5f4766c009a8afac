package cache

import (
	"fmt"
	"math/bits"

	"cohmeleon/internal/mem"
)

// DirState is the state of a line in an LLC partition.
type DirState uint8

// LLC line states. A Dirty line holds data newer than DRAM.
const (
	DirInvalid DirState = iota
	DirClean
	DirDirty
)

// NoOwner marks a directory entry with no exclusive private-cache owner.
const NoOwner = -1

// DirEntry is the directory+tag state of one LLC line: whether the LLC
// data is valid/dirty, which coherent agent (if any) holds the line
// Exclusive/Modified, and which agents share it. Pointers returned by
// Probe remain valid only until the next Insert on the directory.
type DirEntry struct {
	Line    mem.LineAddr
	Sharers uint64
	Owner   int // agent index holding M/E, or NoOwner
	State   DirState
}

// HasSharers reports whether any agent holds a Shared copy.
func (e *DirEntry) HasSharers() bool { return e.Sharers != 0 }

// ForEachSharer calls fn for every sharing agent in ascending index
// order, without allocating. fn must not mutate the sharer mask (capture
// e.Sharers first if it needs to).
func (e *DirEntry) ForEachSharer(fn func(agent int)) {
	forEachSharer(e.Sharers, fn)
}

// Owner/sharer mutations of entries resident in a Directory must go
// through the Directory's SetOwner/AddSharer/... methods so the
// partition occupancy summary stays exact.

// ForEachSharerMask iterates a raw sharer bitmask (e.g. the one carried
// by a DirVictim) in ascending index order, without allocating.
func ForEachSharerMask(mask uint64, fn func(agent int)) { forEachSharer(mask, fn) }

func forEachSharer(mask uint64, fn func(agent int)) {
	for mask != 0 {
		i := bits.TrailingZeros64(mask)
		mask &= mask - 1
		fn(i)
	}
}

// DirStats counts directory events.
type DirStats struct {
	Hits       int64
	Misses     int64
	Evictions  int64
	Writebacks int64 // dirty evictions + flush writebacks to DRAM
	Recalls    int64 // evictions/flushes that had to recall private copies
}

// Directory is one inclusive LLC partition with per-line directory
// state. Inclusion is enforced by the SoC layer: when Insert evicts a
// line whose entry still lists an owner or sharers, the caller must
// recall/invalidate those private copies (the victim carries the
// bookkeeping needed to do so).
// Entries are packed to 32 bytes and invalid ways keep Line == noLine.
// The tags live in a dedicated parallel array: an 8-way set's tags span
// one hardware cache line (instead of the four its entries span), so
// the hit scan — the hottest loop of the LLC model — touches a single
// line, and matchTags compares all of it without a data-dependent
// branch. Replacement state is one recency word per set, so a hit or
// fill updates LRU in a few register operations and the miss path picks
// its victim without scanning the set.
type Directory struct {
	name    string
	entries []DirEntry     // flat backing, numSets × assoc
	tags    []mem.LineAddr // mirror of entries[i].Line
	rec     []recency      // per-set LRU order and valid ways
	assoc   int64
	numSets int64
	setMask int64 // numSets-1 when numSets is a power of two, else 0
	stats   DirStats
	lines   int
	// Occupancy summary of the partition (the coherence "region" of one
	// address-interleaved slice): how many resident entries list a
	// private-cache owner, and how many list at least one sharer. The
	// counts are exact — every owner/sharer mutation of a resident entry
	// goes through the SetOwner/AddSharer/... methods below — and they
	// let the run-level flows skip recall/invalidate interrogation
	// wholesale when the region provably holds no private copies.
	owned  int
	shared int
}

// NewDirectory creates an LLC partition of the given size/associativity
// (at most 16 ways).
func NewDirectory(name string, sizeBytes int64, assoc int) *Directory {
	checkAssoc(assoc)
	totalLines := sizeBytes / mem.LineBytes
	if totalLines <= 0 || totalLines%int64(assoc) != 0 {
		panic(fmt.Sprintf("cache: LLC size %d not divisible into %d-way sets", sizeBytes, assoc))
	}
	numSets := totalLines / int64(assoc)
	d := &Directory{
		name:    name,
		numSets: numSets,
		assoc:   int64(assoc),
		entries: make([]DirEntry, totalLines),
		tags:    make([]mem.LineAddr, totalLines),
		rec:     make([]recency, numSets),
	}
	if numSets&(numSets-1) == 0 {
		d.setMask = numSets - 1
	}
	for i := range d.entries {
		d.entries[i].Line = noLine
		d.entries[i].Owner = NoOwner
		d.tags[i] = noLine
	}
	for i := range d.rec {
		d.rec[i] = newRecency(assoc)
	}
	return d
}

// SizeBytes returns the partition capacity.
func (d *Directory) SizeBytes() int64 {
	return d.numSets * d.assoc * mem.LineBytes
}

// Stats returns a copy of the event counters.
func (d *Directory) Stats() DirStats { return d.stats }

// ValidLines returns the number of valid lines currently held.
func (d *Directory) ValidLines() int { return d.lines }

// Sets returns the number of sets (the run-operation collision bound:
// contiguous lines land in distinct sets up to this count).
func (d *Directory) Sets() int64 { return d.numSets }

// EntryAt returns the entry at a way index reported by a run outcome.
// The caller must know the entry still holds its line (run lines map to
// distinct sets, so a run never displaces its own entries); use ProbeAt
// when later inserts could have intervened.
func (d *Directory) EntryAt(way int32) *DirEntry { return &d.entries[way] }

// setIndex returns the index of the line's set.
func (d *Directory) setIndex(line mem.LineAddr) int64 {
	if d.setMask != 0 {
		return int64(line) & d.setMask
	}
	idx := int64(line) % d.numSets
	if idx < 0 {
		idx += d.numSets
	}
	return idx
}

// find returns the line's set index, the set's first entry index and
// the line's way in the set, or a way ≥ assoc when the line is absent.
func (d *Directory) find(line mem.LineAddr) (s, base int64, j int) {
	s = d.setIndex(line)
	base = s * d.assoc
	return s, base, bits.TrailingZeros32(matchTags(d.tags[base:base+d.assoc], line))
}

// Probe returns the entry for the line without counting an access, or
// nil when absent.
func (d *Directory) Probe(line mem.LineAddr) *DirEntry {
	if _, base, j := d.find(line); int64(j) < d.assoc {
		return &d.entries[base+int64(j)]
	}
	return nil
}

// DirVictim describes a line displaced from the LLC. If Owner or Sharers
// are set, inclusion requires the caller to recall/invalidate the
// private copies; WasDirty tells it whether the LLC data itself must go
// to DRAM (the recalled private data may be dirtier still).
type DirVictim struct {
	Line     mem.LineAddr
	WasDirty bool
	Owner    int
	Sharers  uint64
	Valid    bool
}

// Insert fills the line with the given state and returns both the new
// entry (for the caller to set owner/sharers) and the victim, if a valid
// line was displaced. Inserting a present line updates state in place.
func (d *Directory) Insert(line mem.LineAddr, st DirState) (*DirEntry, DirVictim) {
	if st == DirInvalid {
		panic("cache: directory Insert with invalid state")
	}
	s, base, j := d.find(line)
	if int64(j) < d.assoc {
		e := &d.entries[base+int64(j)]
		e.State = st
		d.rec[s].touch(j)
		return e, DirVictim{}
	}
	return d.fill(s, base, line, st)
}

// AccessOrInsert looks the line up, counting a hit or miss and
// refreshing LRU on hit, and on a miss fills it with missState in the
// same set scan. hit reports whether the line was already present; on a
// miss the returned victim (if Valid) must be handled as for Insert.
func (d *Directory) AccessOrInsert(line mem.LineAddr, missState DirState) (e *DirEntry, v DirVictim, hit bool) {
	if missState == DirInvalid {
		panic("cache: directory AccessOrInsert with invalid state")
	}
	s, base, j := d.find(line)
	if int64(j) < d.assoc {
		d.rec[s].touch(j)
		d.stats.Hits++
		return &d.entries[base+int64(j)], DirVictim{}, true
	}
	d.stats.Misses++
	e, v = d.fill(s, base, line, missState)
	return e, v, false
}

// fill places an absent line into set s (first entry base), displacing
// the set's replacement victim, and returns the new entry and the
// victim.
func (d *Directory) fill(s, base int64, line mem.LineAddr, st DirState) (*DirEntry, DirVictim) {
	j := base + int64(d.rec[s].replace(int(d.assoc)))
	e := &d.entries[j]
	var v DirVictim
	if e.State != DirInvalid {
		v = DirVictim{
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
	} else {
		d.lines++
	}
	*e = DirEntry{Line: line, State: st, Owner: NoOwner}
	d.tags[j] = line
	return e, v
}

// noteEvicted rolls an evicted or invalidated entry's owner/sharer
// state out of the occupancy summary.
func (d *Directory) noteEvicted(owner int, sharers uint64) {
	if owner != NoOwner {
		d.owned--
	}
	if sharers != 0 {
		d.shared--
	}
}

// HasPrivateCopies reports whether any resident entry lists an owner or
// a sharer. When false, no line of this partition can require a recall
// or invalidation — the run-level flows and range flushes use this to
// take their batched fast paths.
func (d *Directory) HasPrivateCopies() bool { return d.owned != 0 || d.shared != 0 }

// SetOwner makes agent the exclusive owner of a resident entry,
// maintaining the occupancy summary. agent may be NoOwner to clear.
func (d *Directory) SetOwner(e *DirEntry, agent int) {
	if (e.Owner == NoOwner) != (agent == NoOwner) {
		if agent == NoOwner {
			d.owned--
		} else {
			d.owned++
		}
	}
	e.Owner = agent
}

// AddSharer marks agent as holding a Shared copy of a resident entry,
// maintaining the occupancy summary.
func (d *Directory) AddSharer(e *DirEntry, agent int) {
	if e.Sharers == 0 {
		d.shared++
	}
	e.Sharers |= 1 << uint(agent)
}

// RemoveSharer clears agent's Shared copy on a resident entry,
// maintaining the occupancy summary.
func (d *Directory) RemoveSharer(e *DirEntry, agent int) {
	was := e.Sharers
	e.Sharers &^= 1 << uint(agent)
	if was != 0 && e.Sharers == 0 {
		d.shared--
	}
}

// ClearSharers drops every sharer of a resident entry, maintaining the
// occupancy summary.
func (d *Directory) ClearSharers(e *DirEntry) {
	if e.Sharers != 0 {
		d.shared--
	}
	e.Sharers = 0
}

// CheckSummary recomputes the occupancy summary from the entry array
// and reports whether the maintained counts match (a test invariant; a
// mismatch means some mutation bypassed the Directory methods). It also
// checks every set's replacement state: the valid-way mask must match
// the resident tags, and the recency order must be a permutation of the
// set's ways.
func (d *Directory) CheckSummary() error {
	owned, shared := 0, 0
	for i := range d.entries {
		if d.entries[i].State == DirInvalid {
			continue
		}
		if d.entries[i].Owner != NoOwner {
			owned++
		}
		if d.entries[i].Sharers != 0 {
			shared++
		}
	}
	if owned != d.owned || shared != d.shared {
		return fmt.Errorf("cache: %s: occupancy summary drift: counted owned=%d shared=%d, maintained owned=%d shared=%d",
			d.name, owned, shared, d.owned, d.shared)
	}
	for s := range d.rec {
		rec := &d.rec[s]
		if err := rec.check(int(d.assoc)); err != nil {
			return fmt.Errorf("cache: %s: set %d: %v", d.name, s, err)
		}
		var valid uint16
		for j, tag := range d.tags[int64(s)*d.assoc : int64(s+1)*d.assoc] {
			if tag != noLine {
				valid |= 1 << uint(j)
			}
		}
		if valid != rec.valid {
			return fmt.Errorf("cache: %s: set %d: valid mask %04x, resident tags say %04x", d.name, s, rec.valid, valid)
		}
	}
	return nil
}

// ForEachValid calls fn for every valid entry. The callback must not
// mutate the directory; collect lines first, then act.
func (d *Directory) ForEachValid(fn func(e *DirEntry)) {
	for i := range d.entries {
		if d.entries[i].State != DirInvalid {
			fn(&d.entries[i])
		}
	}
}

// Invalidate drops the line, returning its final directory state so the
// caller can write dirty data back and invalidate private copies.
func (d *Directory) Invalidate(line mem.LineAddr) (DirVictim, bool) {
	s, base, j := d.find(line)
	if int64(j) >= d.assoc {
		return DirVictim{}, false
	}
	i := base + int64(j)
	e := &d.entries[i]
	v := DirVictim{
		Line:     e.Line,
		WasDirty: e.State == DirDirty,
		Owner:    e.Owner,
		Sharers:  e.Sharers,
		Valid:    true,
	}
	if v.WasDirty {
		d.stats.Writebacks++
	}
	d.noteEvicted(e.Owner, e.Sharers)
	*e = DirEntry{Line: noLine, Owner: NoOwner}
	d.tags[i] = noLine
	d.rec[s].drop(j)
	d.lines--
	return v, true
}
