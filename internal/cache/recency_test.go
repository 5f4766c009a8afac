package cache

import (
	"fmt"
	"math/rand"
	"testing"

	"cohmeleon/internal/mem"
)

// The recency word must reproduce tick-based LRU exactly: the same way
// filled, the same victim displaced and the same counters on every
// operation. These tests keep the tick-based replacement as a reference
// model and drive random operation sequences through it and through the
// real structures side by side.

// tickDir is the tick-based reference model of a Directory: every touch
// stamps the way with a fresh tick, and a fill takes the first invalid
// way, else the valid way with the smallest tick. It models placement,
// states and counters; the owner/sharer updates the test applies to
// the real directory are mirrored into it.
type tickDir struct {
	entries []DirEntry
	lrus    []uint64
	assoc   int64
	numSets int64
	tick    uint64
	stats   DirStats
	lines   int
}

func newTickDir(assoc, sets int) *tickDir {
	o := &tickDir{
		entries: make([]DirEntry, assoc*sets),
		lrus:    make([]uint64, assoc*sets),
		assoc:   int64(assoc),
		numSets: int64(sets),
	}
	for i := range o.entries {
		o.entries[i] = DirEntry{Line: noLine, Owner: NoOwner}
	}
	return o
}

func (o *tickDir) base(line mem.LineAddr) int64 {
	s := int64(line) % o.numSets
	if s < 0 {
		s += o.numSets
	}
	return s * o.assoc
}

// find returns the way holding line, or -1.
func (o *tickDir) find(line mem.LineAddr) int64 {
	base := o.base(line)
	for i := base; i < base+o.assoc; i++ {
		if o.entries[i].Line == line {
			return i
		}
	}
	return -1
}

func (o *tickDir) touch(way int64) {
	o.tick++
	o.lrus[way] = o.tick
}

func (o *tickDir) access(line mem.LineAddr) (int64, bool) {
	if way := o.find(line); way >= 0 {
		o.touch(way)
		o.stats.Hits++
		return way, true
	}
	o.stats.Misses++
	return -1, false
}

// fill places an absent line, returning its way and the victim.
func (o *tickDir) fill(line mem.LineAddr, st DirState) (int64, DirVictim) {
	base := o.base(line)
	victim := int64(-1)
	for i := base; i < base+o.assoc; i++ {
		if o.entries[i].Line == noLine {
			victim = i
			break
		}
		if victim < 0 || o.lrus[i] < o.lrus[victim] {
			victim = i
		}
	}
	e := &o.entries[victim]
	var v DirVictim
	if e.State != DirInvalid {
		v = DirVictim{Line: e.Line, WasDirty: e.State == DirDirty, Owner: e.Owner, Sharers: e.Sharers, Valid: true}
		o.stats.Evictions++
		if v.WasDirty {
			o.stats.Writebacks++
		}
		if v.Owner != NoOwner || v.Sharers != 0 {
			o.stats.Recalls++
		}
	} else {
		o.lines++
	}
	*e = DirEntry{Line: line, State: st, Owner: NoOwner}
	o.touch(victim)
	return victim, v
}

func (o *tickDir) insert(line mem.LineAddr, st DirState) (int64, DirVictim) {
	if way := o.find(line); way >= 0 {
		o.entries[way].State = st
		o.touch(way)
		return way, DirVictim{}
	}
	return o.fill(line, st)
}

func (o *tickDir) accessOrInsert(line mem.LineAddr, st DirState) (int64, DirVictim, bool) {
	if way, hit := o.access(line); hit {
		return way, DirVictim{}, true
	}
	way, v := o.fill(line, st)
	return way, v, false
}

func (o *tickDir) invalidate(line mem.LineAddr) (DirVictim, bool) {
	way := o.find(line)
	if way < 0 {
		return DirVictim{}, false
	}
	e := &o.entries[way]
	v := DirVictim{Line: e.Line, WasDirty: e.State == DirDirty, Owner: e.Owner, Sharers: e.Sharers, Valid: true}
	if v.WasDirty {
		o.stats.Writebacks++
	}
	*e = DirEntry{Line: noLine, Owner: NoOwner}
	o.lines--
	return v, true
}

// tickCache is the tick-based reference model of a Cache.
type tickCache struct {
	ways    []way
	lrus    []uint64
	assoc   int64
	numSets int64
	tick    uint64
	stats   Stats
	lines   int
}

func newTickCache(assoc, sets int) *tickCache {
	o := &tickCache{
		ways:    make([]way, assoc*sets),
		lrus:    make([]uint64, assoc*sets),
		assoc:   int64(assoc),
		numSets: int64(sets),
	}
	for i := range o.ways {
		o.ways[i].line = noLine
	}
	return o
}

func (o *tickCache) find(line mem.LineAddr) int64 {
	s := int64(line) % o.numSets
	if s < 0 {
		s += o.numSets
	}
	for i := s * o.assoc; i < (s+1)*o.assoc; i++ {
		if o.ways[i].line == line {
			return i
		}
	}
	return -1
}

func (o *tickCache) touch(i int64) {
	o.tick++
	o.lrus[i] = o.tick
}

func (o *tickCache) accessUpgrade(line mem.LineAddr, write bool) (State, bool) {
	i := o.find(line)
	if i < 0 {
		o.stats.Misses++
		return Invalid, false
	}
	o.touch(i)
	o.stats.Hits++
	st := o.ways[i].state
	if write && (st == Modified || st == Exclusive) {
		o.ways[i].state = Modified
	}
	return st, true
}

func (o *tickCache) insert(line mem.LineAddr, st State, hint int32) Victim {
	if i := o.find(line); i >= 0 {
		o.ways[i].state = st
		o.ways[i].llcWay = hint
		o.touch(i)
		return Victim{}
	}
	s := int64(line) % o.numSets
	if s < 0 {
		s += o.numSets
	}
	victim := int64(-1)
	for i := s * o.assoc; i < (s+1)*o.assoc; i++ {
		if o.ways[i].state == Invalid {
			victim = i
			break
		}
		if victim < 0 || o.lrus[i] < o.lrus[victim] {
			victim = i
		}
	}
	w := &o.ways[victim]
	var v Victim
	if w.state != Invalid {
		v = Victim{Line: w.line, State: w.state, Valid: true, LLCWay: w.llcWay}
		o.stats.Evictions++
		if w.state.Dirty() {
			o.stats.Writebacks++
		}
	} else {
		o.lines++
	}
	*w = way{line: line, state: st, llcWay: hint}
	o.touch(victim)
	return v
}

func (o *tickCache) setState(line mem.LineAddr, st State) bool {
	i := o.find(line)
	if i < 0 {
		return false
	}
	if st == Invalid {
		o.lines--
		o.ways[i].line = noLine
	}
	o.ways[i].state = st
	return true
}

func (o *tickCache) invalidate(line mem.LineAddr) (present, wasDirty bool) {
	i := o.find(line)
	if i < 0 {
		return false, false
	}
	wasDirty = o.ways[i].state.Dirty()
	if wasDirty {
		o.stats.Writebacks++
	}
	// An invalid way's LLC hint is never read back; it stays put.
	o.ways[i].line, o.ways[i].state = noLine, Invalid
	o.lines--
	return true, wasDirty
}

// opReader hands out the bytes of an operation stream, then zeros.
type opReader struct {
	b []byte
	i int
}

func (r *opReader) more() bool { return r.i < len(r.b) }

func (r *opReader) next() int {
	if r.i >= len(r.b) {
		return 0
	}
	r.i++
	return int(r.b[r.i-1])
}

// recallVictim reports whether a displaced victim lists private copies,
// so a run reports it in Victims; a valid dirty victim without any is a
// DirtyMask bit instead.
func recallVictim(v DirVictim) bool {
	return v.Valid && (v.Owner != NoOwner || v.Sharers != 0)
}

// checkCacheRecency checks a Cache's per-set replacement state the way
// Directory.CheckSummary checks the LLC's.
func checkCacheRecency(c *Cache) error {
	for s := range c.rec {
		if err := c.rec[s].check(int(c.assoc)); err != nil {
			return fmt.Errorf("set %d: %v", s, err)
		}
		var valid uint16
		set := c.ways[int64(s)*c.assoc : int64(s+1)*c.assoc]
		for j := range set {
			if set[j].line != noLine {
				valid |= 1 << uint(j)
			}
		}
		if valid != c.rec[s].valid {
			return fmt.Errorf("set %d: valid mask %04x, resident tags say %04x", s, c.rec[s].valid, valid)
		}
	}
	return nil
}

// driveRecency runs the operation stream ops through a Directory and a
// Cache of assoc ways × sets sets and through their tick-based models,
// failing on the first divergence of a way, victim, state or counter.
func driveRecency(t *testing.T, assoc, sets int, ops []byte) {
	t.Helper()
	size := int64(assoc*sets) * mem.LineBytes
	d, od := NewDirectory("llc", size, assoc), newTickDir(assoc, sets)
	c, oc := New("l2", size, assoc), newTickCache(assoc, sets)
	span := 3*assoc*sets + 1 // addresses beyond capacity, so sets thrash
	r := &opReader{b: ops}
	lineArg := func() mem.LineAddr { return mem.LineAddr((r.next()<<8 | r.next()) % span) }
	dirState := func() DirState { return DirClean + DirState(r.next()%2) }
	cacheState := func() State { return Shared + State(r.next()%3) }
	// group returns a subset of a contiguous group no longer than the
	// set count: lines in pairwise-distinct sets.
	group := func() []mem.LineAddr {
		start := lineArg()
		n := 1 + r.next()%min(sets, 16)
		pick := r.next()
		var lines []mem.LineAddr
		for i := 0; i < n; i++ {
			if pick == 0 || pick&(1<<uint(i%8)) != 0 {
				lines = append(lines, start+mem.LineAddr(i))
			}
		}
		return lines
	}
	var run DirRun
	for step := 0; r.more(); step++ {
		fail := func(format string, args ...any) {
			t.Helper()
			t.Fatalf("%d-way × %d sets, step %d: %s", assoc, sets, step, fmt.Sprintf(format, args...))
		}
		switch op := r.next() % 14; op {
		case 0: // Directory.Access
			line := lineArg()
			e := d.Access(line)
			way, hit := od.access(line)
			if (e != nil) != hit || hit && e != &d.entries[way] {
				fail("Access(%d) = %p, model way %d hit %v", line, e, way, hit)
			}
		case 1: // Directory.Insert
			line, st := lineArg(), dirState()
			e, v := d.Insert(line, st)
			way, ov := od.insert(line, st)
			if e != &d.entries[way] || v != ov {
				fail("Insert(%d) victim %+v, model way %d victim %+v", line, v, way, ov)
			}
		case 2: // Directory.AccessOrInsert
			line, st := lineArg(), dirState()
			e, v, hit := d.AccessOrInsert(line, st)
			way, ov, ohit := od.accessOrInsert(line, st)
			if e != &d.entries[way] || v != ov || hit != ohit {
				fail("AccessOrInsert(%d) hit %v victim %+v, model way %d hit %v victim %+v", line, hit, v, way, ohit, ov)
			}
		case 3: // Directory.AccessOrInsertRun
			lines, st := group(), dirState()
			upd := RunUpdate{
				Kind:           RunKind(r.next() % 2),
				Write:          r.next()%2 == 0,
				RecallOwners:   r.next()%2 == 0,
				ExclusiveGrant: r.next()%2 == 0,
				Self:           r.next() % 4,
			}
			d.AccessOrInsertRun(lines, st, upd, &run)
			victims := run.Victims
			var dirty uint64
			hits := 0
			for i, line := range lines {
				way, ov, hit := od.accessOrInsert(line, st)
				if hit != (run.HitMask&(1<<uint(i)) != 0) || int64(run.Ways[i]) != way {
					fail("run line %d (%d): way %d hit mask %b, model way %d hit %v", i, line, run.Ways[i], run.HitMask, way, hit)
				}
				if hit {
					hits++
				}
				switch {
				case recallVictim(ov):
					if len(victims) == 0 || victims[0] != (RunVictim{Idx: int32(i), V: ov}) {
						fail("run line %d (%d): victims %+v, model victim %+v", i, line, victims, ov)
					}
					victims = victims[1:]
				case ov.Valid && ov.WasDirty:
					dirty |= 1 << uint(i)
				}
				// The run's protocol update is not replacement state:
				// mirror it (a DMA write hit also dirties the line).
				oe, e := &od.entries[way], &d.entries[way]
				oe.Owner, oe.Sharers = e.Owner, e.Sharers
				if hit {
					oe.State = e.State
				}
			}
			if len(victims) != 0 || run.Hits != hits || run.Misses != len(lines)-hits {
				fail("run reported extra victims %+v or hits/misses %d/%d, model %d/%d", victims, run.Hits, run.Misses, hits, len(lines)-hits)
			}
			if run.DirtyMask != dirty {
				fail("run dirty-victim mask %b, model %b", run.DirtyMask, dirty)
			}
		case 4: // Directory.Invalidate
			line := lineArg()
			v, ok := d.Invalidate(line)
			ov, ook := od.invalidate(line)
			if v != ov || ok != ook {
				fail("Invalidate(%d) = %+v %v, model %+v %v", line, v, ok, ov, ook)
			}
		case 5: // Directory.InvalidateRun over the lines without private copies
			var lines []mem.LineAddr
			for _, line := range group() {
				if e := d.Probe(line); e == nil || e.Owner == NoOwner && e.Sharers == 0 {
					lines = append(lines, line)
				}
			}
			dirty := d.InvalidateRun(lines)
			var odirty int64
			for _, line := range lines {
				if v, ok := od.invalidate(line); ok && v.WasDirty {
					odirty++
				}
			}
			if dirty != odirty {
				fail("InvalidateRun(%v) = %d dirty, model %d", lines, dirty, odirty)
			}
		case 6: // owner/sharer updates on a resident entry, mirrored
			line := lineArg()
			e, way := d.Probe(line), od.find(line)
			if (e != nil) != (way >= 0) {
				fail("Probe(%d) = %p, model way %d", line, e, way)
			}
			if e == nil {
				break
			}
			switch agent := r.next(); agent % 4 {
			case 0:
				d.SetOwner(e, agent%5-1) // NoOwner or agents 0..3
			case 1:
				d.AddSharer(e, agent%4)
			case 2:
				d.RemoveSharer(e, agent%4)
			case 3:
				d.ClearSharers(e)
			}
			od.entries[way].Owner, od.entries[way].Sharers = e.Owner, e.Sharers
		case 7, 8: // Cache.Access, Cache.AccessUpgrade
			line, write := lineArg(), op == 8 && r.next()%2 == 0
			var st State
			var hit bool
			if op == 7 {
				st, hit = c.Access(line)
			} else {
				st, hit = c.AccessUpgrade(line, write)
			}
			ost, ohit := oc.accessUpgrade(line, write)
			if st != ost || hit != ohit {
				fail("cache access(%d, write=%v) = %v %v, model %v %v", line, write, st, hit, ost, ohit)
			}
		case 9: // Cache.AccessUpgradeRun
			start, n, write := lineArg(), int64(1+r.next()%24), r.next()%2 == 0
			misses := c.AccessUpgradeRun(start, n, write, nil)
			var want []mem.LineAddr
			for i := int64(0); i < n; i++ {
				line := start + mem.LineAddr(i)
				if st, hit := oc.accessUpgrade(line, write); !hit || write && st == Shared {
					want = append(want, line)
				}
			}
			if fmt.Sprint(misses) != fmt.Sprint(want) {
				fail("AccessUpgradeRun(%d, %d, %v) misses %v, model %v", start, n, write, misses, want)
			}
		case 10: // Cache.Insert
			line, st, hint := lineArg(), cacheState(), int32(r.next())-1
			if v, ov := c.Insert(line, st, hint), oc.insert(line, st, hint); v != ov {
				fail("cache Insert(%d) victim %+v, model %+v", line, v, ov)
			}
		case 11: // Cache.InsertRun
			lines := make([]mem.LineAddr, 1+r.next()%8)
			for i := range lines {
				lines[i] = lineArg()
			}
			st := cacheState()
			hints := make([]int32, len(lines))
			for i := range hints {
				hints[i] = int32(r.next()) - 1
			}
			victims := c.InsertRun(lines, st, hints, nil)
			var want []Victim
			for i, line := range lines {
				if v := oc.insert(line, st, hints[i]); v.Valid {
					want = append(want, v)
				}
			}
			if fmt.Sprint(victims) != fmt.Sprint(want) {
				fail("InsertRun(%v) victims %+v, model %+v", lines, victims, want)
			}
		case 12: // Cache.SetState, mostly to Invalid
			line, st := lineArg(), State(r.next()%6)
			if st > Modified {
				st = Invalid
			}
			if ok, ook := c.SetState(line, st), oc.setState(line, st); ok != ook {
				fail("SetState(%d, %v) = %v, model %v", line, st, ok, ook)
			}
		case 13: // Cache.Invalidate
			line := lineArg()
			ok, dirty := c.Invalidate(line)
			ook, odirty := oc.invalidate(line)
			if ok != ook || dirty != odirty {
				fail("cache Invalidate(%d) = %v %v, model %v %v", line, ok, dirty, ook, odirty)
			}
		}

		if d.Stats() != od.stats || d.ValidLines() != od.lines {
			fail("directory stats %+v lines %d, model %+v lines %d", d.Stats(), d.ValidLines(), od.stats, od.lines)
		}
		for i := range d.entries {
			if d.entries[i] != od.entries[i] || d.tags[i] != od.entries[i].Line {
				fail("directory way %d = %+v (tag %d), model %+v", i, d.entries[i], d.tags[i], od.entries[i])
			}
		}
		if err := d.CheckSummary(); err != nil {
			fail("%v", err)
		}
		if c.Stats() != oc.stats || c.ValidLines() != oc.lines {
			fail("cache stats %+v lines %d, model %+v lines %d", c.Stats(), c.ValidLines(), oc.stats, oc.lines)
		}
		for i, w := range c.ways {
			if ow := oc.ways[i]; w != ow {
				fail("cache set %d way %d = %+v, model %+v", i/assoc, i%assoc, w, ow)
			}
		}
		if err := checkCacheRecency(c); err != nil {
			fail("cache: %v", err)
		}
	}
}

// TestRecencyMatchesTicks drives random operation streams through every
// replacement-relevant operation on associativities 1..16 and on
// power-of-two and other set counts.
func TestRecencyMatchesTicks(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, assoc := range []int{1, 2, 3, 4, 8, 16} {
		for _, sets := range []int{1, 3, 4, 5, 6, 8} {
			t.Run(fmt.Sprintf("%dway/%dsets", assoc, sets), func(t *testing.T) {
				for i := 0; i < 4; i++ {
					ops := make([]byte, 6000)
					rng.Read(ops)
					driveRecency(t, assoc, sets, ops)
				}
			})
		}
	}
}

// FuzzRecencyMatchesTicks lets the fuzzer pick the geometry (1..16
// ways, 1..8 sets) and the operation stream.
func FuzzRecencyMatchesTicks(f *testing.F) {
	rng := rand.New(rand.NewSource(2))
	for _, g := range [][2]uint8{{0, 0}, {1, 3}, {2, 4}, {7, 5}, {15, 7}} {
		ops := make([]byte, 512)
		rng.Read(ops)
		f.Add(g[0], g[1], ops)
	}
	f.Fuzz(func(t *testing.T, assoc, sets uint8, ops []byte) {
		driveRecency(t, 1+int(assoc)%maxAssoc, 1+int(sets)%8, ops)
	})
}

func TestAssociativityLimit(t *testing.T) {
	New("l2", 16*mem.LineBytes, 16)
	NewDirectory("llc", 16*mem.LineBytes, 16)
	for _, f := range []func(){
		func() { New("l2", 17*mem.LineBytes, 17) },
		func() { NewDirectory("llc", 17*mem.LineBytes, 17) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("associativity 17 must panic")
				}
			}()
			f()
		}()
	}
}

// TestCheckSummaryCatchesReplacementDrift corrupts each half of a set's
// replacement state and expects CheckSummary to notice.
func TestCheckSummaryCatchesReplacementDrift(t *testing.T) {
	for name, corrupt := range map[string]func(d *Directory){
		"valid mask": func(d *Directory) { d.rec[1].drop(0) },
		"order":      func(d *Directory) { d.rec[0].order &^= 0xF0 }, // rank 1 repeats way 0
		"padding":    func(d *Directory) { d.rec[1].order &^= 0xF << 16 },
	} {
		t.Run(name, func(t *testing.T) {
			d := NewDirectory("llc", 8*mem.LineBytes, 4) // 2 sets × 4 ways
			for line := mem.LineAddr(0); line < 6; line++ {
				d.Insert(line, DirClean)
			}
			if err := d.CheckSummary(); err != nil {
				t.Fatal(err)
			}
			corrupt(d)
			if d.CheckSummary() == nil {
				t.Fatal("corrupted replacement state passed CheckSummary")
			}
		})
	}
}
