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

// String returns the one-letter MESI name.
func (s State) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Exclusive:
		return "E"
	case Modified:
		return "M"
	default:
		return fmt.Sprintf("State(%d)", uint8(s))
	}
}

// Dirty reports whether the state holds data newer than the next level.
func (s State) Dirty() bool { return s == Modified }

// Valid reports whether the state holds usable data.
func (s State) Valid() bool { return s != Invalid }

// way is one tag-store entry of a private cache. The layout is 16 bytes
// so a 4-way set spans a single hardware cache line: tag scans are the
// simulator's hottest loop. Invalid ways keep line == noLine so the hit
// scan needs only the tag compare (valid lines are never negative). LRU
// state lives in the set's recency word.
type way struct {
	line  mem.LineAddr
	state State
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
	sets    [][]way
	rec     []recency // per-set LRU order and valid ways
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
	c := &Cache{name: name, numSets: numSets, sets: make([][]way, numSets), rec: make([]recency, numSets)}
	if numSets&(numSets-1) == 0 {
		c.setMask = numSets - 1
	}
	backing := make([]way, totalLines)
	for i := range backing {
		backing[i].line = noLine
	}
	for i := range c.sets {
		c.sets[i] = backing[int64(i)*int64(assoc) : (int64(i)+1)*int64(assoc)]
		c.rec[i] = newRecency(assoc)
	}
	return c
}

// Name returns the cache name.
func (c *Cache) Name() string { return c.name }

// SizeBytes returns the cache capacity in bytes.
func (c *Cache) SizeBytes() int64 {
	return c.numSets * int64(len(c.sets[0])) * mem.LineBytes
}

// Stats returns a copy of the event counters.
func (c *Cache) Stats() Stats { return c.stats }

// ValidLines returns the number of valid lines currently held.
func (c *Cache) ValidLines() int { return c.lines }

// setOf returns the index and ways of the line's set.
func (c *Cache) setOf(line mem.LineAddr) (int64, []way) {
	if c.setMask != 0 {
		s := int64(line) & c.setMask
		return s, c.sets[s]
	}
	s := int64(line) % c.numSets
	if s < 0 {
		s += c.numSets
	}
	return s, c.sets[s]
}

// Lookup returns the state of the line without touching LRU or counters.
func (c *Cache) Lookup(line mem.LineAddr) (State, bool) {
	_, set := c.setOf(line)
	for i := range set {
		w := &set[i]
		if w.line == line {
			return w.state, true
		}
	}
	return Invalid, false
}

// Access performs a lookup that counts as a cache access: on hit it
// refreshes LRU and returns the state; on miss it returns (Invalid,
// false). The caller decides what to do about the miss.
func (c *Cache) Access(line mem.LineAddr) (State, bool) {
	s, set := c.setOf(line)
	for i := range set {
		w := &set[i]
		if w.line == line {
			c.rec[s].touch(i)
			c.stats.Hits++
			return w.state, true
		}
	}
	c.stats.Misses++
	return Invalid, false
}

// AccessUpgrade performs Access and, when write is set and the hit state
// already carries write permission (Modified or Exclusive), upgrades the
// line to Modified in the same tag scan. It returns the state the line
// held before the upgrade. Equivalent to Access followed by SetState on
// the M/E write-hit path, without the second scan.
func (c *Cache) AccessUpgrade(line mem.LineAddr, write bool) (State, bool) {
	s, set := c.setOf(line)
	for i := range set {
		w := &set[i]
		if w.line == line {
			c.rec[s].touch(i)
			c.stats.Hits++
			st := w.state
			if write && (st == Modified || st == Exclusive) {
				w.state = Modified
			}
			return st, true
		}
	}
	c.stats.Misses++
	return Invalid, false
}

// Victim describes a line displaced by Insert.
type Victim struct {
	Line  mem.LineAddr
	State State
	Valid bool
}

// Insert fills the line with the given state, replacing the LRU way if
// the set is full, and returns the victim (Valid=false when an invalid
// way was used). Inserting a line that is already present updates its
// state in place and returns no victim.
func (c *Cache) Insert(line mem.LineAddr, st State) Victim {
	if st == Invalid {
		panic("cache: Insert with Invalid state")
	}
	s, set := c.setOf(line)
	rec := &c.rec[s]
	for i := range set {
		w := &set[i]
		if w.line == line {
			w.state = st
			rec.touch(i)
			return Victim{}
		}
	}
	i := rec.victim(len(set))
	w := &set[i]
	var v Victim
	if w.state != Invalid {
		v = Victim{Line: w.line, State: w.state, Valid: true}
		c.stats.Evictions++
		if w.state.Dirty() {
			c.stats.Writebacks++
		}
	} else {
		c.lines++
	}
	w.line = line
	w.state = st
	rec.fill(i)
	return v
}

// SetState transitions the line to st if present; it reports whether the
// line was found. SetState(Invalid) behaves like Invalidate without
// returning dirtiness.
func (c *Cache) SetState(line mem.LineAddr, st State) bool {
	s, set := c.setOf(line)
	for i := range set {
		w := &set[i]
		if w.line == line {
			if st == Invalid {
				c.lines--
				w.line = noLine
				c.rec[s].drop(i)
			}
			w.state = st
			return true
		}
	}
	return false
}

// Invalidate drops the line and reports (present, wasDirty) so the
// caller can issue a writeback for recalled dirty data.
func (c *Cache) Invalidate(line mem.LineAddr) (present, wasDirty bool) {
	s, set := c.setOf(line)
	for i := range set {
		w := &set[i]
		if w.line == line {
			wasDirty = w.state.Dirty()
			if wasDirty {
				c.stats.Writebacks++
			}
			w.state = Invalid
			w.line = noLine
			c.rec[s].drop(i)
			c.lines--
			return true, wasDirty
		}
	}
	return false, false
}

// ForEachValid calls fn for every valid line. The callback must not
// mutate the cache; collect lines first, then act (range flushes do).
func (c *Cache) ForEachValid(fn func(line mem.LineAddr, st State)) {
	for _, set := range c.sets {
		for i := range set {
			if set[i].state != Invalid {
				fn(set[i].line, set[i].state)
			}
		}
	}
}

// Downgrade moves a Modified/Exclusive line to Shared and reports
// (present, wasDirty); a dirty line must be written back by the caller.
func (c *Cache) Downgrade(line mem.LineAddr) (present, wasDirty bool) {
	_, set := c.setOf(line)
	for i := range set {
		w := &set[i]
		if w.line == line {
			wasDirty = w.state.Dirty()
			if wasDirty {
				c.stats.Writebacks++
			}
			w.state = Shared
			return true, wasDirty
		}
	}
	return false, false
}
