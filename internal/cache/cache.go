// Package cache implements the tag-state side of the ESP cache
// hierarchy: set-associative private caches with MESI states and an
// inclusive, directory-based last-level cache (LLC). The package is a
// pure state machine — it answers "what happened" (hit, miss, victim,
// owner, sharers) and leaves all timing to the SoC layer, which converts
// those outcomes into NoC transfers and resource occupancy. This split
// keeps coherence state independently testable.
package cache

import (
	"fmt"
	"math/bits"

	"cohmeleon/internal/mem"
)

// State is the MESI state of a line in a private cache.
type State uint8

// MESI states.
const (
	Invalid State = iota
	Shared
	Exclusive
	Modified
)

// Dirty reports whether the state holds data newer than the next level.
func (s State) Dirty() bool { return s == Modified }

// way is one tag-store entry of a private cache. The layout is 16 bytes
// so a 4-way set spans a single hardware cache line: tag scans are the
// simulator's hottest loop. Invalid ways keep line == noLine so the hit
// scan needs only the tag compare (valid lines are never negative). LRU
// state lives in the set's recency word.
//
// llcWay is the hint the line was filled with: the index of its entry in
// the home LLC partition (Directory.ProbeAt's way argument), or -1. It
// sits in the padding after state and is only ever read back through
// ProbeAt, which revalidates it, so a stale hint costs a set scan, never
// a wrong answer.
type way struct {
	line   mem.LineAddr
	state  State
	llcWay int32
}

// noLine is the tag stored in invalid ways; no allocated line address is
// negative, so a single tag compare suffices to detect hits.
const noLine mem.LineAddr = -1

// Stats counts cache events since construction.
type Stats struct {
	Hits       int64
	Misses     int64
	Evictions  int64
	Writebacks int64 // dirty evictions + flush writebacks
}

// Cache is a set-associative private cache (a CPU L2 or an accelerator's
// private cache in ESP terms) with LRU replacement.
type Cache struct {
	name    string
	ways    []way     // flat backing, numSets × assoc
	rec     []recency // per-set LRU order and valid ways
	assoc   int64
	numSets int64
	setMask int64 // numSets-1 when numSets is a power of two, else 0
	stats   Stats
	lines   int // valid lines, for occupancy reporting
}

// New creates a cache of the given total size and associativity.
// sizeBytes must be a multiple of assoc×mem.LineBytes, and assoc at
// most 16.
func New(name string, sizeBytes int64, assoc int) *Cache {
	checkAssoc(assoc)
	totalLines := sizeBytes / mem.LineBytes
	if totalLines <= 0 || totalLines%int64(assoc) != 0 {
		panic(fmt.Sprintf("cache: size %d not divisible into %d-way sets", sizeBytes, assoc))
	}
	numSets := totalLines / int64(assoc)
	c := &Cache{
		name:    name,
		ways:    make([]way, totalLines),
		rec:     make([]recency, numSets),
		assoc:   int64(assoc),
		numSets: numSets,
	}
	if numSets&(numSets-1) == 0 {
		c.setMask = numSets - 1
	}
	for i := range c.ways {
		c.ways[i].line = noLine
	}
	for i := range c.rec {
		c.rec[i] = newRecency(assoc)
	}
	return c
}

// SizeBytes returns the cache capacity in bytes.
func (c *Cache) SizeBytes() int64 {
	return c.numSets * c.assoc * mem.LineBytes
}

// ValidLines returns the number of valid lines currently held.
func (c *Cache) ValidLines() int { return c.lines }

// setOf returns the index and ways of the line's set.
func (c *Cache) setOf(line mem.LineAddr) (int64, []way) {
	var s int64
	if c.setMask != 0 {
		s = int64(line) & c.setMask
	} else if s = int64(line) % c.numSets; s < 0 {
		s += c.numSets
	}
	base := s * c.assoc
	return s, c.ways[base : base+c.assoc]
}

// find returns the index and ways of the line's set and the line's way
// in it, or a way ≥ len(set) when the line is absent. The per-line run
// paths (AccessUpgradeRun, Insert) spell it out instead: it is over the
// inliner's budget, and a call per lookup costs them measurably.
func (c *Cache) find(line mem.LineAddr) (int64, []way, int) {
	s, set := c.setOf(line)
	return s, set, bits.TrailingZeros32(matchWays(set, line))
}

// AccessUpgrade performs a lookup that counts as a cache access: on hit
// it refreshes LRU and, when write is set and the hit state already
// carries write permission (Modified or Exclusive), upgrades the line to
// Modified in the same tag scan. It returns the state the line held
// before the upgrade; on miss it returns (Invalid, false) and the caller
// decides what to do about the miss.
func (c *Cache) AccessUpgrade(line mem.LineAddr, write bool) (State, bool) {
	s, set, j := c.find(line)
	if j >= len(set) {
		c.stats.Misses++
		return Invalid, false
	}
	c.rec[s].touch(j)
	c.stats.Hits++
	w := &set[j]
	st := w.state
	if write && (st == Modified || st == Exclusive) {
		w.state = Modified
	}
	return st, true
}

// Victim describes a line displaced by Insert. LLCWay is the LLC way
// hint the line was filled with (see way), for Directory.ProbeAt.
type Victim struct {
	Line   mem.LineAddr
	State  State
	Valid  bool
	LLCWay int32
}

// Insert fills the line with the given state, replacing the LRU way if
// the set is full, and returns the victim (Valid=false when an invalid
// way was used). Inserting a line that is already present updates its
// state in place and returns no victim. llcWay is the line's LLC way
// hint, or -1 for none; it replaces the line's previous hint.
func (c *Cache) Insert(line mem.LineAddr, st State, llcWay int32) Victim {
	if st == Invalid {
		panic("cache: Insert with Invalid state")
	}
	s, set := c.setOf(line)
	j := bits.TrailingZeros32(matchWays(set, line))
	rec := &c.rec[s]
	if j < len(set) {
		set[j].state = st
		set[j].llcWay = llcWay
		rec.touch(j)
		return Victim{}
	}
	w := &set[rec.replace(len(set))]
	var v Victim
	if w.state != Invalid {
		v = Victim{Line: w.line, State: w.state, Valid: true, LLCWay: w.llcWay}
		c.stats.Evictions++
		if w.state.Dirty() {
			c.stats.Writebacks++
		}
	} else {
		c.lines++
	}
	*w = way{line: line, state: st, llcWay: llcWay}
	return v
}

// Invalidate drops the line and reports (present, wasDirty) so the
// caller can issue a writeback for recalled dirty data.
func (c *Cache) Invalidate(line mem.LineAddr) (present, wasDirty bool) {
	s, set, j := c.find(line)
	if j >= len(set) {
		return false, false
	}
	w := &set[j]
	wasDirty = w.state.Dirty()
	if wasDirty {
		c.stats.Writebacks++
	}
	w.state = Invalid
	w.line = noLine
	c.rec[s].drop(j)
	c.lines--
	return true, wasDirty
}

// ForEachValid calls fn for every valid line. The callback must not
// mutate the cache; collect lines first, then act (range flushes do).
func (c *Cache) ForEachValid(fn func(line mem.LineAddr, st State)) {
	for i := range c.ways {
		if w := &c.ways[i]; w.state != Invalid {
			fn(w.line, w.state)
		}
	}
}

// Downgrade moves a Modified/Exclusive line to Shared and reports
// (present, wasDirty); a dirty line must be written back by the caller.
func (c *Cache) Downgrade(line mem.LineAddr) (present, wasDirty bool) {
	_, set, j := c.find(line)
	if j >= len(set) {
		return false, false
	}
	w := &set[j]
	wasDirty = w.state.Dirty()
	if wasDirty {
		c.stats.Writebacks++
	}
	w.state = Shared
	return true, wasDirty
}
