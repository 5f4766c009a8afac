package soc

import (
	"fmt"
	"reflect"

	"cohmeleon/internal/cache"
	"cohmeleon/internal/mem"
	"cohmeleon/internal/sim"
)

// Test-side views of cache, memory and port state. No binary reads
// these, so their packages keep the accessors in their own tests; the
// views below rebuild them from exported state, or read the unexported
// counter by reflection where nothing else exposes it.

// lookup returns a private cache line's state without touching LRU or
// counters.
func lookup(c *cache.Cache, line mem.LineAddr) (st cache.State, hit bool) {
	c.ForEachValid(func(l mem.LineAddr, s cache.State) {
		if l == line {
			st, hit = s, true
		}
	})
	return st, hit
}

// lineAt maps a logical line offset in [0, buf.Lines()) to its physical
// line.
func lineAt(buf *mem.Buffer, logical int64) mem.LineAddr {
	for _, e := range buf.Extents {
		if logical < e.Lines {
			return e.Start + mem.LineAddr(logical)
		}
		logical -= e.Lines
	}
	panic(fmt.Sprintf("soc test: logical line %d beyond buffer", logical))
}

// field reads the named unexported field of the struct v points to. It
// panics when the field is gone, so a rename cannot turn a comparison of
// two snapshots into a comparison of two empty values.
func field(v any, name string) reflect.Value {
	f := reflect.ValueOf(v).Elem().FieldByName(name)
	if !f.IsValid() {
		panic(fmt.Sprintf("soc test: %T has no field %q", v, name))
	}
	return f
}

// cacheStats reads a private cache's event counters (cache.Stats).
func cacheStats(c *cache.Cache) reflect.Value { return field(c, "stats") }

// availableAt reads the cycle from which a port can start a reservation.
func availableAt(r *sim.Resource) sim.Cycles { return sim.Cycles(field(r, "availableAt").Int()) }
