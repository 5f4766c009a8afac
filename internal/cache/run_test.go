package cache

import (
	"fmt"
	"testing"

	"cohmeleon/internal/mem"
)

// The run-batched flows are pinned against the per-line reference at
// the SoC level (internal/soc/coherence_prop_test.go); these tests
// cover the cache-level contracts directly: the occupancy summary's
// exactness under every mutator, and the run operations' equivalence
// to their per-line counterparts on a bare directory.

func checkSummary(t *testing.T, d *Directory, owned, shared int) {
	t.Helper()
	if err := d.CheckSummary(); err != nil {
		t.Fatal(err)
	}
	if d.OwnedLines() != owned || d.SharedLines() != shared {
		t.Fatalf("summary owned=%d shared=%d, want %d/%d",
			d.OwnedLines(), d.SharedLines(), owned, shared)
	}
}

func TestOccupancySummaryTracksMutators(t *testing.T) {
	d := NewDirectory("llc", 32*mem.LineBytes, 2)
	if d.HasPrivateCopies() {
		t.Fatal("fresh directory must report no private copies")
	}
	e, _ := d.Insert(1, DirClean)
	checkSummary(t, d, 0, 0)

	d.SetOwner(e, 3)
	checkSummary(t, d, 1, 0)
	d.SetOwner(e, 4) // owner change: still one owned entry
	checkSummary(t, d, 1, 0)
	if !d.HasPrivateCopies() {
		t.Fatal("owned entry must count as a private copy")
	}
	d.SetOwner(e, NoOwner)
	checkSummary(t, d, 0, 0)

	d.AddSharer(e, 2)
	d.AddSharer(e, 5)
	checkSummary(t, d, 0, 1) // per-entry, not per-agent
	d.RemoveSharer(e, 2)
	checkSummary(t, d, 0, 1)
	d.RemoveSharer(e, 5)
	checkSummary(t, d, 0, 0)
	d.RemoveSharer(e, 5) // removing an absent sharer must not underflow
	checkSummary(t, d, 0, 0)

	d.AddSharer(e, 1)
	d.ClearSharers(e)
	checkSummary(t, d, 0, 0)
	d.ClearSharers(e) // idempotent
	checkSummary(t, d, 0, 0)
}

func TestOccupancySummarySurvivesEvictionAndInvalidate(t *testing.T) {
	d := NewDirectory("llc", 4*mem.LineBytes, 2) // 2 sets × 2 ways
	// Fill set 0 (even lines) with owned/shared entries, then thrash it.
	e0, _ := d.Insert(0, DirClean)
	d.SetOwner(e0, 1)
	e2, _ := d.Insert(2, DirDirty)
	d.AddSharer(e2, 3)
	checkSummary(t, d, 1, 1)

	_, v := d.Insert(4, DirClean) // evicts the LRU way (line 0, owned)
	if !v.Valid || v.Owner != 1 {
		t.Fatalf("victim %+v, want owned line 0", v)
	}
	checkSummary(t, d, 0, 1)

	if _, ok := d.Invalidate(2); !ok {
		t.Fatal("line 2 must be resident")
	}
	checkSummary(t, d, 0, 0)
	if d.HasPrivateCopies() {
		t.Fatal("all private copies gone")
	}
}

// TestAccessOrInsertRunMatchesPerLine drives the same line sequence
// through AccessOrInsertRun and through the per-line reference calls on
// twin directories and compares entries, stats and summaries.
func TestAccessOrInsertRunMatchesPerLine(t *testing.T) {
	const n = 8
	mk := func() (*Directory, []mem.LineAddr) {
		d := NewDirectory("llc", 64*mem.LineBytes, 2)
		lines := make([]mem.LineAddr, n)
		for i := range lines {
			lines[i] = mem.LineAddr(100 + i)
		}
		return d, lines
	}

	// Seed both with some prior state so the run sees hits, upgrades and
	// evictions.
	seed := func(d *Directory) {
		e, _ := d.Insert(100, DirClean)
		d.SetOwner(e, 7) // self for the RunCached case below
		e, _ = d.Insert(101, DirDirty)
		d.AddSharer(e, 2)
		d.Insert(132, DirDirty) // same set as 100 on 32 sets
	}

	for _, grant := range []bool{true, false} {
		t.Run(fmt.Sprintf("grant=%v", grant), func(t *testing.T) {
			fast, lines := mk()
			seed(fast)
			ref, _ := mk()
			seed(ref)

			upd := RunUpdate{Kind: RunCached, Write: false, ExclusiveGrant: grant, Self: 7}
			var run DirRun
			fast.AccessOrInsertRun(lines, DirClean, upd, &run)

			for i, line := range lines {
				e, _, hit := ref.AccessOrInsert(line, DirClean)
				wantHitBit := run.HitMask&(1<<uint(i)) != 0
				if hit != wantHitBit {
					t.Fatalf("line %d: hit %v, run mask says %v", line, hit, wantHitBit)
				}
				complexBit := run.ComplexMask&(1<<uint(i)) != 0
				needs := hit && ((e.Owner != NoOwner && e.Owner != 7) || false)
				if complexBit != needs {
					t.Fatalf("line %d: complex bit %v, want %v", line, complexBit, needs)
				}
				if !complexBit {
					// Apply the reference tail update for plain lines.
					if grant && e.Owner == NoOwner && e.Sharers == 0 {
						ref.SetOwner(e, 7)
					} else if e.Owner != 7 {
						ref.AddSharer(e, 7)
					}
				}
			}
			if fast.Stats() != ref.Stats() {
				t.Fatalf("stats diverged: %+v vs %+v", fast.Stats(), ref.Stats())
			}
			fs, rs := "", ""
			fast.ForEachValid(func(e *DirEntry) {
				fs += fmt.Sprintf("%d:%v/o%d/s%x;", e.Line, e.State, e.Owner, e.Sharers)
			})
			ref.ForEachValid(func(e *DirEntry) {
				rs += fmt.Sprintf("%d:%v/o%d/s%x;", e.Line, e.State, e.Owner, e.Sharers)
			})
			if fs != rs {
				t.Fatalf("entries diverged:\n fast %s\n  ref %s", fs, rs)
			}
			if err := fast.CheckSummary(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestAccessUpgradeRunMatchesPerLine(t *testing.T) {
	mk := func() *Cache {
		c := New("l2", 16*mem.LineBytes, 2)
		c.Insert(1, Shared, -1)
		c.Insert(2, Exclusive, -1)
		c.Insert(3, Modified, -1)
		return c
	}
	fast, ref := mk(), mk()
	misses := fast.AccessUpgradeRun(0, 6, true, nil)

	var want []mem.LineAddr
	for line := mem.LineAddr(0); line < 6; line++ {
		st, hit := ref.AccessUpgrade(line, true)
		if hit && (st == Modified || st == Exclusive) {
			continue
		}
		want = append(want, line)
	}
	if len(misses) != len(want) {
		t.Fatalf("misses %v, want %v", misses, want)
	}
	for i := range want {
		if misses[i] != want[i] {
			t.Fatalf("misses %v, want %v", misses, want)
		}
	}
	if fast.Stats() != ref.Stats() {
		t.Fatalf("stats diverged: %+v vs %+v", fast.Stats(), ref.Stats())
	}
}

func TestInvalidateRunMatchesPerLine(t *testing.T) {
	mk := func() *Directory {
		d := NewDirectory("llc", 32*mem.LineBytes, 2)
		d.Insert(1, DirClean)
		d.Insert(2, DirDirty)
		d.Insert(3, DirDirty)
		return d
	}
	fast, ref := mk(), mk()
	lines := []mem.LineAddr{1, 2, 9 /* absent */, 3}
	dirty := fast.InvalidateRun(lines)

	var refDirty int64
	for _, line := range lines {
		if v, ok := ref.Invalidate(line); ok && v.WasDirty {
			refDirty++
		}
	}
	if dirty != refDirty {
		t.Fatalf("dirty %d, want %d", dirty, refDirty)
	}
	if fast.Stats() != ref.Stats() {
		t.Fatalf("stats diverged: %+v vs %+v", fast.Stats(), ref.Stats())
	}
	if fast.ValidLines() != ref.ValidLines() {
		t.Fatalf("lines %d, want %d", fast.ValidLines(), ref.ValidLines())
	}
}

func TestInvalidateRunRejectsPrivateCopies(t *testing.T) {
	d := NewDirectory("llc", 32*mem.LineBytes, 2)
	e, _ := d.Insert(1, DirClean)
	d.SetOwner(e, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("InvalidateRun over an owned line must panic (the caller skipped its recalls)")
		}
	}()
	d.InvalidateRun([]mem.LineAddr{1})
}

// TestProbeAtHints: ProbeAt answers exactly as Probe for every kind of
// hint — the line's own way, none (-1), a stale way that now holds
// another line, and the way of a line that has since been displaced.
func TestProbeAtHints(t *testing.T) {
	d := NewDirectory("llc", 4*mem.LineBytes, 2) // 2 sets × 2 ways
	e0, _ := d.Insert(0, DirClean)
	e2, _ := d.Insert(2, DirDirty)
	way := func(e *DirEntry) int32 {
		for i := range d.entries {
			if &d.entries[i] == e {
				return int32(i)
			}
		}
		t.Fatalf("entry %p not in the directory", e)
		return -1
	}
	w0, w2 := way(e0), way(e2)
	for _, tc := range []struct {
		name string
		hint int32
		line mem.LineAddr
		want *DirEntry
	}{
		{"exact", w0, 0, e0},
		{"negative", -1, 2, e2},
		{"stale: the way holds another line", w0, 2, e2},
		{"out of range", int32(len(d.entries)), 0, e0},
		{"absent line", w0, 4, nil},
	} {
		if got := d.ProbeAt(tc.hint, tc.line); got != tc.want || got != d.Probe(tc.line) {
			t.Errorf("%s: ProbeAt(%d, %d) = %p, want %p", tc.name, tc.hint, tc.line, got, tc.want)
		}
	}
	// Displace line 0: lines 4 and 6 share its set, and 0 is its LRU way
	// once 2 is touched. Its old hint must now miss, and a line refilled
	// elsewhere must be found through the scan.
	d.Access(2)
	d.Insert(4, DirClean)
	d.Insert(6, DirClean)
	if e := d.ProbeAt(w0, 0); e != nil {
		t.Errorf("displaced line 0: ProbeAt(%d, 0) = %+v, want nil", w0, *e)
	}
	d.Insert(0, DirClean)
	if got, want := d.ProbeAt(w2, 0), d.Probe(0); got == nil || got != want {
		t.Errorf("refilled line 0: ProbeAt(%d, 0) = %p, want %p", w2, got, want)
	}
}
