package cache

import (
	"testing"
	"testing/quick"

	"cohmeleon/internal/mem"
)

// small cache: 4 sets × 2 ways = 8 lines.
func smallCache() *Cache { return New("l2", 8*mem.LineBytes, 2) }

func TestStateString(t *testing.T) {
	if Invalid.String() != "I" || Shared.String() != "S" ||
		Exclusive.String() != "E" || Modified.String() != "M" {
		t.Fatal("MESI names wrong")
	}
	if !Modified.Dirty() || Exclusive.Dirty() || Shared.Dirty() {
		t.Fatal("Dirty predicate wrong")
	}
	if Invalid.Valid() || !Shared.Valid() {
		t.Fatal("Valid predicate wrong")
	}
}

func TestInsertAndAccess(t *testing.T) {
	c := smallCache()
	if _, hit := c.Access(100); hit {
		t.Fatal("empty cache should miss")
	}
	c.Insert(100, Modified, -1)
	st, hit := c.Access(100)
	if !hit || st != Modified {
		t.Fatalf("got (%v,%v), want (M,true)", st, hit)
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 1 {
		t.Fatalf("stats = %+v", s)
	}
	if c.ValidLines() != 1 {
		t.Fatalf("ValidLines = %d", c.ValidLines())
	}
}

func TestInsertExistingUpdatesState(t *testing.T) {
	c := smallCache()
	c.Insert(100, Shared, -1)
	v := c.Insert(100, Modified, -1)
	if v.Valid {
		t.Fatal("re-insert should not evict")
	}
	if st, _ := c.Lookup(100); st != Modified {
		t.Fatalf("state = %v, want M", st)
	}
	if c.ValidLines() != 1 {
		t.Fatalf("ValidLines = %d, want 1", c.ValidLines())
	}
}

func TestLRUEviction(t *testing.T) {
	c := smallCache() // 4 sets, 2 ways; lines k, k+4, k+8 map to same set
	c.Insert(0, Shared, -1)
	c.Insert(4, Shared, -1)
	c.Access(0) // 0 is now MRU; 4 is LRU
	v := c.Insert(8, Shared, -1)
	if !v.Valid || v.Line != 4 {
		t.Fatalf("victim = %+v, want line 4", v)
	}
	if _, hit := c.Lookup(0); !hit {
		t.Fatal("MRU line 0 should survive")
	}
	if _, hit := c.Lookup(4); hit {
		t.Fatal("LRU line 4 should be gone")
	}
}

func TestDirtyEvictionCountsWriteback(t *testing.T) {
	c := smallCache()
	c.Insert(0, Modified, -1)
	c.Insert(4, Shared, -1)
	v := c.Insert(8, Shared, -1) // evicts line 0 (LRU, dirty)
	if !v.Valid || !v.State.Dirty() {
		t.Fatalf("victim = %+v, want dirty line", v)
	}
	if c.Stats().Writebacks != 1 {
		t.Fatalf("writebacks = %d, want 1", c.Stats().Writebacks)
	}
}

func TestInvalidate(t *testing.T) {
	c := smallCache()
	c.Insert(7, Modified, -1)
	present, dirty := c.Invalidate(7)
	if !present || !dirty {
		t.Fatalf("Invalidate = (%v,%v), want (true,true)", present, dirty)
	}
	if _, hit := c.Lookup(7); hit {
		t.Fatal("line still present after invalidate")
	}
	if c.ValidLines() != 0 {
		t.Fatalf("ValidLines = %d", c.ValidLines())
	}
	present, _ = c.Invalidate(7)
	if present {
		t.Fatal("double invalidate should report absent")
	}
}

func TestDowngrade(t *testing.T) {
	c := smallCache()
	c.Insert(3, Modified, -1)
	present, dirty := c.Downgrade(3)
	if !present || !dirty {
		t.Fatalf("Downgrade = (%v,%v)", present, dirty)
	}
	if st, _ := c.Lookup(3); st != Shared {
		t.Fatalf("state = %v, want S", st)
	}
	present, dirty = c.Downgrade(99)
	if present || dirty {
		t.Fatal("absent line should report (false,false)")
	}
}

func TestSetState(t *testing.T) {
	c := smallCache()
	c.Insert(1, Exclusive, -1)
	if !c.SetState(1, Modified) {
		t.Fatal("SetState on present line failed")
	}
	if st, _ := c.Lookup(1); st != Modified {
		t.Fatalf("state = %v", st)
	}
	if c.SetState(2, Shared) {
		t.Fatal("SetState on absent line should report false")
	}
	c.SetState(1, Invalid)
	if c.ValidLines() != 0 {
		t.Fatal("SetState(Invalid) should drop occupancy")
	}
}

func TestCapacityNeverExceeded(t *testing.T) {
	c := smallCache()
	for i := mem.LineAddr(0); i < 100; i++ {
		c.Insert(i, Shared, -1)
	}
	if c.ValidLines() != 8 {
		t.Fatalf("ValidLines = %d, want 8 (capacity)", c.ValidLines())
	}
}

func TestNegativeLineAddrDoesNotPanic(t *testing.T) {
	// Line addresses are always non-negative in practice, but the set
	// index math should stay defensive.
	c := smallCache()
	c.Insert(-5, Shared, -1)
	if _, hit := c.Lookup(-5); !hit {
		t.Fatal("negative line not found")
	}
}

func TestSizeBytes(t *testing.T) {
	c := New("x", 32<<10, 4)
	if c.SizeBytes() != 32<<10 {
		t.Fatalf("SizeBytes = %d", c.SizeBytes())
	}
	if c.Name() != "x" {
		t.Fatalf("Name = %q", c.Name())
	}
}

func TestBadGeometryPanics(t *testing.T) {
	for _, f := range []func(){
		func() { New("a", 100, 3) }, // not divisible
		func() { New("b", 0, 1) },
		func() { New("c", 1024, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestInsertInvalidPanics(t *testing.T) {
	c := smallCache()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	c.Insert(0, Invalid, -1)
}

// Property: after any sequence of inserts, every line reported present is
// found in exactly one way, and ValidLines matches a full scan.
func TestCacheConsistencyProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		c := New("p", 64*mem.LineBytes, 4)
		live := make(map[mem.LineAddr]bool)
		for _, op := range ops {
			line := mem.LineAddr(op % 256)
			switch op % 3 {
			case 0:
				v := c.Insert(line, Modified, -1)
				live[line] = true
				if v.Valid {
					delete(live, v.Line)
				}
			case 1:
				present, _ := c.Invalidate(line)
				if present != live[line] {
					return false
				}
				delete(live, line)
			case 2:
				_, hit := c.Lookup(line)
				if hit != live[line] {
					return false
				}
			}
		}
		count := 0
		for line := range live {
			if _, hit := c.Lookup(line); !hit {
				return false
			}
			count++
		}
		return count == c.ValidLines()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: a victim reported by Insert is never the line just inserted
// and is no longer present afterwards.
func TestVictimGoneProperty(t *testing.T) {
	f := func(lines []uint8) bool {
		c := New("p", 16*mem.LineBytes, 2)
		for _, l := range lines {
			line := mem.LineAddr(l)
			v := c.Insert(line, Shared, -1)
			if v.Valid {
				if v.Line == line {
					return false
				}
				if _, hit := c.Lookup(v.Line); hit {
					return false
				}
			}
			if _, hit := c.Lookup(line); !hit {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
