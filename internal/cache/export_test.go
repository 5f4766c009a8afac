package cache

import (
	"fmt"

	"cohmeleon/internal/mem"
)

// State names, accessors and per-line operations that only tests use.
// The SoC drives the caches through the run paths in run.go and the
// per-line operations left in cache.go and directory.go; the tests use
// these as fixtures and as reference oracles for those paths.

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

// Valid reports whether the state holds usable data.
func (s State) Valid() bool { return s != Invalid }

// Name returns the cache name.
func (c *Cache) Name() string { return c.name }

// Stats returns a copy of the event counters.
func (c *Cache) Stats() Stats { return c.stats }

// Lookup returns the state of the line without touching LRU or counters.
func (c *Cache) Lookup(line mem.LineAddr) (State, bool) {
	if _, set, j := c.find(line); j < len(set) {
		return set[j].state, true
	}
	return Invalid, false
}

// Access performs a lookup that counts as a cache access: on hit it
// refreshes LRU and returns the state; on miss it returns (Invalid,
// false). The caller decides what to do about the miss.
func (c *Cache) Access(line mem.LineAddr) (State, bool) {
	s, set, j := c.find(line)
	if j < len(set) {
		c.rec[s].touch(j)
		c.stats.Hits++
		return set[j].state, true
	}
	c.stats.Misses++
	return Invalid, false
}

// SetState transitions the line to st if present; it reports whether the
// line was found. SetState(Invalid) behaves like Invalidate without
// returning dirtiness.
func (c *Cache) SetState(line mem.LineAddr, st State) bool {
	s, set, j := c.find(line)
	if j >= len(set) {
		return false
	}
	if st == Invalid {
		c.lines--
		set[j].line = noLine
		c.rec[s].drop(j)
	}
	set[j].state = st
	return true
}

// String returns a short name for the LLC state.
func (s DirState) String() string {
	switch s {
	case DirInvalid:
		return "inv"
	case DirClean:
		return "clean"
	case DirDirty:
		return "dirty"
	default:
		return fmt.Sprintf("DirState(%d)", uint8(s))
	}
}

// SharerList expands the sharer bitmask into agent indices, ascending.
// It allocates; hot paths should use ForEachSharer instead.
func (e *DirEntry) SharerList() []int {
	var out []int
	e.ForEachSharer(func(i int) { out = append(out, i) })
	return out
}

// AddSharer marks agent as holding a Shared copy.
func (e *DirEntry) AddSharer(agent int) { e.Sharers |= 1 << uint(agent) }

// RemoveSharer clears agent's Shared copy.
func (e *DirEntry) RemoveSharer(agent int) { e.Sharers &^= 1 << uint(agent) }

// IsSharer reports whether agent holds a Shared copy.
func (e *DirEntry) IsSharer(agent int) bool { return e.Sharers&(1<<uint(agent)) != 0 }

// Access looks the line up, counting a hit or miss and refreshing LRU on
// hit. It returns nil on miss.
func (d *Directory) Access(line mem.LineAddr) *DirEntry {
	s, base, j := d.find(line)
	if int64(j) < d.assoc {
		d.rec[s].touch(j)
		d.stats.Hits++
		return &d.entries[base+int64(j)]
	}
	d.stats.Misses++
	return nil
}

// OwnedLines returns the number of resident entries with an owner.
func (d *Directory) OwnedLines() int { return d.owned }

// SharedLines returns the number of resident entries with ≥1 sharer.
func (d *Directory) SharedLines() int { return d.shared }
