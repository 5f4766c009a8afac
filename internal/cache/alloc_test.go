//go:build !race

package cache

// Zero-allocation guards for the run-level tag paths, which the
// coherence flows call once per line group. Race builds do not promise
// the allocation counts of a normal build, so these run only in non-race
// builds (CI runs them as a dedicated step).

import (
	"testing"

	"cohmeleon/internal/mem"
)

// A warm DirRun must absorb AccessOrInsertRun on hit, miss and thrash
// runs without allocating: the outcome slices keep their capacity and
// the replacement update is register arithmetic on the set's word.
func TestZeroAllocDirectoryRun(t *testing.T) {
	d := NewDirectory("llc", 512<<10, 8)
	lines := make([]mem.LineAddr, 16)
	at := func(start mem.LineAddr) []mem.LineAddr {
		for i := range lines {
			lines[i] = start + mem.LineAddr(i)
		}
		return lines
	}
	var run DirRun
	upd := RunUpdate{Kind: RunDMA, Write: true}
	d.AccessOrInsertRun(at(0), DirDirty, upd, &run) // warm the outcome buffer
	next, round, sets := mem.LineAddr(1<<20), mem.LineAddr(0), mem.LineAddr(d.Sets())
	for _, tc := range []struct {
		name  string
		start func() mem.LineAddr
		hits  int
	}{
		{"hit", func() mem.LineAddr { return 0 }, 16},
		{"miss", func() mem.LineAddr { next += 16; return next }, 0},
		// Thrash: nine aliasing runs cycle through an 8-way set, so
		// every line misses and evicts a dirty victim.
		{"thrash", func() mem.LineAddr { round++; return 2<<20 + round%9*sets }, 0},
	} {
		got := testing.AllocsPerRun(100, func() {
			d.AccessOrInsertRun(at(tc.start()), DirDirty, upd, &run)
		})
		if got != 0 {
			t.Errorf("AccessOrInsertRun %s allocates %.1f per run, want 0", tc.name, got)
		}
		if run.Hits != tc.hits {
			t.Errorf("AccessOrInsertRun %s: %d hits, want %d", tc.name, run.Hits, tc.hits)
		}
	}
}

// The private-cache run paths must not allocate into pre-sized buffers.
func TestZeroAllocCacheRun(t *testing.T) {
	c := New("l2", 64<<10, 4)
	misses := make([]mem.LineAddr, 0, 16)
	victims := make([]Victim, 0, 16)
	lines := make([]mem.LineAddr, 16)
	next := mem.LineAddr(0)
	got := testing.AllocsPerRun(100, func() {
		for i := range lines {
			lines[i] = next + mem.LineAddr(i)
		}
		next += 16
		misses = c.AccessUpgradeRun(lines[0], 16, true, misses[:0])
		victims = c.InsertRun(lines, Modified, victims[:0])
	})
	if got != 0 {
		t.Fatalf("AccessUpgradeRun+InsertRun allocate %.1f per run, want 0", got)
	}
}
