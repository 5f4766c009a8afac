//go:build !race

package soc

// Zero-allocation guards for the run-batched group flows, which every
// coherent transfer goes through once per line group. Race builds do not
// promise the allocation counts of a normal build, so these run only in
// non-race builds (CI runs them as a dedicated step).

import (
	"testing"

	"cohmeleon/internal/mem"
	"cohmeleon/internal/sim"
)

// TestZeroAllocGroupFlows drives the two flows whose victims take the
// per-event walk — an LLC-coherent DMA write thrash (every line evicts a
// dirty LLC victim) and a cached write stream (every fill evicts a dirty
// private-cache victim, written back through its LLC way hint) — and
// requires neither to allocate once its scratch buffers are warm.
func TestZeroAllocGroupFlows(t *testing.T) {
	s := build(t, testConfig())
	buf, err := s.Heap.Alloc(256 << 10)
	if err != nil {
		t.Fatal(err)
	}
	ext := buf.Extents[0]
	group := int64(s.P.GroupLines)
	mt := s.homeTile(ext.Start)
	sets := mt.LLC.Sets()
	const aliases = 9 // groups sharing their sets: one more than the LLC's ways
	if ext.Lines < aliases*sets+group || ext.Lines < 4*int64(mt.LLC.SizeBytes()/mem.LineBytes) {
		t.Fatalf("extent of %d lines too short for the thrash and the stream", ext.Lines)
	}
	meter := &Meter{}
	var now sim.Cycles

	a := s.Accs[0]
	round := int64(0)
	dmaThrash := func() {
		start := ext.Start + mem.LineAddr(round%aliases*sets)
		round++
		now = s.dmaGroupLLC(mt, a, start, group, true, false, now, meter)
	}
	off := int64(0)
	cachedStream := func() {
		start := ext.Start + mem.LineAddr(off)
		off = (off + group) % (ext.Lines - group)
		now = s.cachedGroupAccess(a.Agent, start, group, true, now, meter)
	}
	l2 := s.agents[a.Agent].cache
	for _, tc := range []struct {
		name string
		run  func()
		warm int // groups that cover the cold fills, so measured ones evict
		// writebacks counts the dirty victims the measured groups must
		// evict, so the guard covers the victim paths.
		writebacks func() int64
	}{
		{"llc-dma write thrash", dmaThrash, 2 * aliases, func() int64 { return mt.LLC.Stats().Writebacks }},
		{"cached write stream", cachedStream, int(ext.Lines / group), func() int64 { return cacheStats(l2).FieldByName("Writebacks").Int() }},
	} {
		for i := 0; i < tc.warm; i++ {
			tc.run()
		}
		before := tc.writebacks()
		if got := testing.AllocsPerRun(100, tc.run); got != 0 {
			t.Errorf("%s allocates %.1f per group, want 0", tc.name, got)
		}
		if tc.writebacks() == before {
			t.Errorf("%s evicted no dirty victims; the guard measures the wrong path", tc.name)
		}
	}
}
