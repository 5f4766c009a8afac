package soc

import (
	"testing"

	"cohmeleon/internal/acc"
	"cohmeleon/internal/cache"
	"cohmeleon/internal/mem"
	"cohmeleon/internal/sim"
)

// testConfig builds a compact SoC: 1 CPU, 2 memory tiles with small
// 64 kB LLC slices (to exercise evictions), and two streaming
// accelerators with private caches.
func testConfig() *Config {
	spec := &acc.Spec{
		Name: "stream", Pattern: acc.Streaming, BurstLines: 16,
		ComputePerByte: 0.2, ReadFraction: 0.8, Reuse: acc.ConstReuse(1),
		InPlace: false, PLMBytes: 16 << 10,
	}
	spec2 := *spec
	spec2.Name = "stream2"
	return &Config{
		Name: "test", MeshW: 3, MeshH: 3, CPUs: 1, MemTiles: 2,
		LLCSliceKB: 64, L2KB: 32,
		Accs: []AccInstance{
			{InstName: "acc0", Spec: spec, PrivateCache: true},
			{InstName: "acc1", Spec: &spec2, PrivateCache: true},
		},
		Params: DefaultParams(),
	}
}

func build(t *testing.T, cfg *Config) *SoC {
	t.Helper()
	s, err := cfg.Build()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// runSim executes fn as a simulation process and drains the engine.
func runSim(t *testing.T, s *SoC, fn func(p *sim.Proc)) {
	t.Helper()
	s.Eng.Go("test", fn)
	if err := s.Eng.Run(); err != nil {
		t.Fatal(err)
	}
}

// alloc allocates a dataset or fails the test.
func allocBuf(t *testing.T, s *SoC, bytes int64) *mem.Buffer {
	t.Helper()
	buf, err := s.Heap.Alloc(bytes)
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

// warm initializes the buffer through CPU 0 (write-allocate).
func warm(s *SoC, buf *mem.Buffer, at sim.Cycles) sim.Cycles {
	return s.CPUTouchRange(s.CPUs[0], buf, 0, buf.Lines(), true, at, &Meter{})
}

// checkInclusion asserts that every valid private-cache line has a
// valid LLC entry (the inclusion invariant the recalls exist to keep).
func checkInclusion(t *testing.T, s *SoC) {
	t.Helper()
	for id := 0; id < s.Agents(); id++ {
		s.AgentCache(id).ForEachValid(func(line mem.LineAddr, st cache.State) {
			if s.homeTile(line).LLC.Probe(line) == nil {
				t.Errorf("inclusion violated: agent %d holds line %d (%v) absent from LLC", id, line, st)
			}
		})
	}
}

// checkSingleOwner asserts at most one private cache holds any line in
// M or E state.
func checkSingleOwner(t *testing.T, s *SoC) {
	t.Helper()
	owners := make(map[mem.LineAddr]int)
	for id := 0; id < s.Agents(); id++ {
		id := id
		s.AgentCache(id).ForEachValid(func(line mem.LineAddr, st cache.State) {
			if st == cache.Modified || st == cache.Exclusive {
				if prev, ok := owners[line]; ok {
					t.Errorf("line %d owned by both agent %d and %d", line, prev, id)
				}
				owners[line] = id
			}
		})
	}
}

func TestModeProperties(t *testing.T) {
	if NonCohDMA.String() != "non-coh-dma" || LLCCohDMA.String() != "llc-coh-dma" ||
		CohDMA.String() != "coh-dma" || FullyCoh.String() != "full-coh" {
		t.Fatal("mode names wrong")
	}
	if !NonCohDMA.NeedsPrivateFlush() || !LLCCohDMA.NeedsPrivateFlush() ||
		CohDMA.NeedsPrivateFlush() || FullyCoh.NeedsPrivateFlush() {
		t.Fatal("NeedsPrivateFlush wrong")
	}
	if !NonCohDMA.NeedsLLCFlush() || LLCCohDMA.NeedsLLCFlush() {
		t.Fatal("NeedsLLCFlush wrong")
	}
	if NonCohDMA.UsesLLC() || !LLCCohDMA.UsesLLC() || !CohDMA.UsesLLC() || !FullyCoh.UsesLLC() {
		t.Fatal("UsesLLC wrong")
	}
}

func TestTable4ConfigsBuild(t *testing.T) {
	for _, cfg := range Table4(42) {
		s, err := cfg.Build()
		if err != nil {
			t.Fatalf("%s: %v", cfg.Name, err)
		}
		if len(s.Mem) != cfg.MemTiles || len(s.CPUs) != cfg.CPUs || len(s.Accs) != len(cfg.Accs) {
			t.Fatalf("%s: tile counts wrong", cfg.Name)
		}
	}
	wantAccs := map[string]int{
		"SoC0": 12, "SoC1": 7, "SoC2": 9, "SoC3": 16, "SoC4": 11, "SoC5": 8, "SoC6": 9,
	}
	for _, cfg := range Table4(1) {
		if want := wantAccs[cfg.Name]; len(cfg.Accs) != want {
			t.Errorf("%s has %d accelerators, want %d (Table 4)", cfg.Name, len(cfg.Accs), want)
		}
	}
}

func TestSoC3HasFiveCachelessAccelerators(t *testing.T) {
	cfg := SoC3(1)
	n := 0
	for _, a := range cfg.Accs {
		if !a.PrivateCache {
			n++
		}
	}
	if n != 5 {
		t.Fatalf("SoC3 has %d cacheless accelerators, want 5", n)
	}
	s := build(t, cfg)
	for _, a := range s.Accs {
		if !a.HasPrivateCache() {
			modes := a.AvailableModes()
			for _, m := range modes {
				if m == FullyCoh {
					t.Fatal("cacheless tile offers FullyCoh")
				}
			}
			if len(modes) != 3 {
				t.Fatalf("cacheless tile offers %d modes, want 3", len(modes))
			}
		}
	}
}

func TestMotivationConfigs(t *testing.T) {
	iso := MotivationIsolation()
	if len(iso.Accs) != 12 {
		t.Fatalf("isolation SoC has %d accs, want 12", len(iso.Accs))
	}
	if iso.MemTiles != 2 || iso.LLCSliceKB != 512 {
		t.Fatal("isolation SoC should have a 1MB LLC in two partitions")
	}
	par := MotivationParallel()
	if len(par.Accs) != 12 {
		t.Fatalf("parallel SoC has %d accs, want 12", len(par.Accs))
	}
	build(t, iso)
	build(t, par)
}

func TestPlacementMemTilesOnCorners(t *testing.T) {
	s := build(t, testConfig())
	corners := map[int]bool{}
	for _, mt := range s.Mem {
		isCorner := (mt.Coord.X == 0 || mt.Coord.X == 2) && (mt.Coord.Y == 0 || mt.Coord.Y == 2)
		if !isCorner {
			t.Fatalf("memory tile at %v, want corner", mt.Coord)
		}
		corners[mt.Coord.X*10+mt.Coord.Y] = true
	}
	if len(corners) != 2 {
		t.Fatal("memory tiles overlap")
	}
}

func TestPlacementDeterministic(t *testing.T) {
	a := build(t, testConfig())
	b := build(t, testConfig())
	for i := range a.Accs {
		if a.Accs[i].Coord != b.Accs[i].Coord {
			t.Fatal("placement not deterministic")
		}
	}
}

func TestConfigValidation(t *testing.T) {
	bad := testConfig()
	bad.MeshW = 2
	bad.MeshH = 2 // 5 tiles in 4 cells
	if _, err := bad.Build(); err == nil {
		t.Fatal("overfull mesh should fail")
	}
	bad2 := testConfig()
	bad2.Accs[1].InstName = bad2.Accs[0].InstName
	if _, err := bad2.Build(); err == nil {
		t.Fatal("duplicate instance names should fail")
	}
	bad3 := testConfig()
	bad3.Accs = nil
	if _, err := bad3.Build(); err == nil {
		t.Fatal("no accelerators should fail")
	}
}

func TestAccByName(t *testing.T) {
	s := build(t, testConfig())
	a, err := s.AccByName("acc1")
	if err != nil || a.InstName != "acc1" {
		t.Fatalf("AccByName: %v", err)
	}
	if _, err := s.AccByName("nope"); err == nil {
		t.Fatal("unknown instance should error")
	}
	if got := s.AccsBySpec("stream"); len(got) != 1 {
		t.Fatalf("AccsBySpec = %d entries, want 1", len(got))
	}
}

// runOneInvocation warms a dataset, optionally flushes per the mode, and
// runs acc0 once. The returned stats cover the whole invocation window
// (flushes included), as the paper measures it.
func runOneInvocation(t *testing.T, bytes int64, mode Mode) InvocationStats {
	s := build(t, testConfig())
	var stats InvocationStats
	runSim(t, s, func(p *sim.Proc) {
		buf := allocBuf(t, s, bytes)
		tWarm := warm(s, buf, p.Now())
		p.WaitUntil(tWarm)
		invStart := p.Now()
		m := &Meter{}
		if mode.NeedsPrivateFlush() {
			p.WaitUntil(s.FlushPrivateRange(buf, p.Now(), m))
		}
		if mode.NeedsLLCFlush() {
			p.WaitUntil(s.FlushLLCRange(buf, p.Now(), m))
		}
		flushOffChip := m.OffChip
		stats = s.RunAccelerator(p, s.Accs[0], buf, mode, sim.NewRNG(1))
		stats.OffChip += flushOffChip // flushes belong to the invocation
		stats.Start = invStart
	})
	checkInclusion(t, s)
	checkSingleOwner(t, s)
	return stats
}

func TestWarmSmallWorkloadCacheModesZeroOffChip(t *testing.T) {
	// 16 kB warm dataset: every mode that uses the hierarchy should find
	// all data on chip (Figure 2's missing red bars).
	for _, mode := range []Mode{LLCCohDMA, CohDMA, FullyCoh} {
		stats := runOneInvocation(t, 16<<10, mode)
		if stats.OffChip != 0 {
			t.Errorf("%v: %d off-chip accesses on warm 16kB data, want 0", mode, stats.OffChip)
		}
		if stats.End <= stats.Start {
			t.Errorf("%v: empty invocation", mode)
		}
	}
}

func TestWarmSmallWorkloadNonCohPaysOffChip(t *testing.T) {
	stats := runOneInvocation(t, 16<<10, NonCohDMA)
	lines := int64(16 << 10 / mem.LineBytes)
	// Flush writes the dirty dataset to DRAM, then DMA reads it back:
	// at least reads + some writebacks.
	if stats.OffChip < lines {
		t.Errorf("non-coh off-chip = %d, want ≥ %d (reads)", stats.OffChip, lines)
	}
	if stats.OffChip < lines+lines/2 {
		t.Errorf("non-coh off-chip = %d, expected flush writebacks too", stats.OffChip)
	}
}

func TestWarmSmallNonCohSlowerThanCohDMA(t *testing.T) {
	non := runOneInvocation(t, 16<<10, NonCohDMA)
	coh := runOneInvocation(t, 16<<10, CohDMA)
	if non.Active() <= coh.Active() {
		t.Errorf("non-coh (%d cycles) should be slower than coh-dma (%d) on small warm data",
			non.Active(), coh.Active())
	}
}

func TestLargeWorkloadNonCohFasterThanLLCCoh(t *testing.T) {
	// 512 kB dataset vs 128 kB total LLC: cache modes thrash.
	non := runOneInvocation(t, 512<<10, NonCohDMA)
	llc := runOneInvocation(t, 512<<10, LLCCohDMA)
	if non.Active() >= llc.Active() {
		t.Errorf("non-coh (%d) should beat llc-coh (%d) when data exceeds the LLC",
			non.Active(), llc.Active())
	}
	if llc.OffChip == 0 {
		t.Error("llc-coh on oversized data should miss off-chip")
	}
}

func TestCommCyclesBounded(t *testing.T) {
	for _, mode := range AllModes {
		st := runOneInvocation(t, 64<<10, mode)
		if st.CommCycles < 0 || st.CommCycles > st.Active() {
			t.Errorf("%v: comm %d outside [0, %d]", mode, st.CommCycles, st.Active())
		}
		if st.Chunks < 1 {
			t.Errorf("%v: no chunks", mode)
		}
	}
}

func TestCohDMARecallsFromCPUCache(t *testing.T) {
	s := build(t, testConfig())
	runSim(t, s, func(p *sim.Proc) {
		buf := allocBuf(t, s, 8<<10) // fits in the 32 kB L2: stays Modified
		p.WaitUntil(warm(s, buf, p.Now()))
		cpuL2 := s.AgentCache(s.CPUs[0].Agent)
		if st, hit := lookup(cpuL2, lineAt(buf, 0)); !hit || st != cache.Modified {
			t.Fatalf("warm line should be M in CPU L2, got %v/%v", st, hit)
		}
		stats := s.RunAccelerator(p, s.Accs[0], buf, CohDMA, sim.NewRNG(1))
		if stats.OffChip != 0 {
			t.Errorf("coh-dma recall should stay on chip, got %d", stats.OffChip)
		}
		// The CPU copy was downgraded (read recall), not invalidated.
		if st, hit := lookup(cpuL2, lineAt(buf, 0)); hit && st == cache.Modified {
			t.Error("coh-dma read should downgrade the CPU's M copy")
		}
	})
	checkInclusion(t, s)
}

func TestFlushPrivateMovesDirtyDataToLLC(t *testing.T) {
	s := build(t, testConfig())
	runSim(t, s, func(p *sim.Proc) {
		buf := allocBuf(t, s, 8<<10)
		p.WaitUntil(warm(s, buf, p.Now()))
		m := &Meter{}
		done := s.FlushPrivateRange(buf, p.Now(), m)
		if done <= p.Now() {
			t.Error("flush should take time")
		}
		if m.OffChip != 0 {
			t.Errorf("private flush went off-chip: %d", m.OffChip)
		}
		cpuL2 := s.AgentCache(s.CPUs[0].Agent)
		for i := int64(0); i < buf.Lines(); i++ {
			if _, hit := lookup(cpuL2, lineAt(buf, i)); hit {
				t.Fatal("line survived private flush")
			}
		}
		// All lines must now be dirty in the LLC.
		dirty := 0
		for i := int64(0); i < buf.Lines(); i++ {
			e := s.homeTile(lineAt(buf, i)).LLC.Probe(lineAt(buf, i))
			if e != nil && e.State == cache.DirDirty {
				dirty++
			}
		}
		if int64(dirty) != buf.Lines() {
			t.Errorf("%d lines dirty in LLC, want %d", dirty, buf.Lines())
		}
	})
}

func TestFlushLLCWritesDirtyToDRAM(t *testing.T) {
	s := build(t, testConfig())
	runSim(t, s, func(p *sim.Proc) {
		buf := allocBuf(t, s, 8<<10)
		p.WaitUntil(warm(s, buf, p.Now()))
		m := &Meter{}
		p.WaitUntil(s.FlushPrivateRange(buf, p.Now(), m))
		p.WaitUntil(s.FlushLLCRange(buf, p.Now(), m))
		if m.OffChip != buf.Lines() {
			t.Errorf("LLC flush wrote %d lines off-chip, want %d", m.OffChip, buf.Lines())
		}
		for i := int64(0); i < buf.Lines(); i++ {
			if s.homeTile(lineAt(buf, i)).LLC.Probe(lineAt(buf, i)) != nil {
				t.Fatal("line survived LLC flush")
			}
		}
		if s.DDRSum() != buf.Lines() {
			t.Errorf("DDR monitors saw %d accesses, want %d", s.DDRSum(), buf.Lines())
		}
	})
}

func TestFlushLLCRecallsOwnedLines(t *testing.T) {
	// LLC flush without a preceding private flush must recall the CPU's
	// dirty copies so DRAM gets the newest data.
	s := build(t, testConfig())
	runSim(t, s, func(p *sim.Proc) {
		buf := allocBuf(t, s, 8<<10)
		p.WaitUntil(warm(s, buf, p.Now()))
		m := &Meter{}
		p.WaitUntil(s.FlushLLCRange(buf, p.Now(), m))
		if m.OffChip != buf.Lines() {
			t.Errorf("recalled flush wrote %d lines, want %d", m.OffChip, buf.Lines())
		}
		cpuL2 := s.AgentCache(s.CPUs[0].Agent)
		for i := int64(0); i < buf.Lines(); i++ {
			if _, hit := lookup(cpuL2, lineAt(buf, i)); hit {
				t.Fatal("CPU copy survived LLC flush recall")
			}
		}
	})
}

func TestConcurrentAcceleratorsContend(t *testing.T) {
	elapsed := func(parallel bool) sim.Cycles {
		s := build(t, testConfig())
		var end sim.Cycles
		runSim(t, s, func(p *sim.Proc) {
			buf0 := allocBuf(t, s, 256<<10)
			buf1 := allocBuf(t, s, 256<<10)
			p.WaitUntil(warm(s, buf0, p.Now()))
			p.WaitUntil(warm(s, buf1, p.Now()))
			start := p.Now()
			wg := sim.NewWaitGroup(s.Eng)
			wg.Add(1)
			s.Eng.Go("acc0", func(q *sim.Proc) {
				q.WaitUntil(start)
				s.RunAccelerator(q, s.Accs[0], buf0, LLCCohDMA, sim.NewRNG(1))
				wg.Done()
			})
			if parallel {
				wg.Add(1)
				s.Eng.Go("acc1", func(q *sim.Proc) {
					q.WaitUntil(start)
					s.RunAccelerator(q, s.Accs[1], buf1, LLCCohDMA, sim.NewRNG(2))
					wg.Done()
				})
			}
			wg.Wait(p)
			end = p.Now() - start
		})
		return end
	}
	alone := elapsed(false)
	together := elapsed(true)
	if together <= alone {
		t.Errorf("parallel run (%d) should be slower than solo (%d)", together, alone)
	}
}

func TestFullyCohRequiresPrivateCache(t *testing.T) {
	cfg := testConfig()
	cfg.Accs[0].PrivateCache = false
	s := build(t, cfg)
	runSim(t, s, func(p *sim.Proc) {
		buf := allocBuf(t, s, 4<<10)
		defer func() {
			if recover() == nil {
				t.Error("FullyCoh without private cache should panic")
			}
		}()
		s.RunAccelerator(p, s.Accs[0], buf, FullyCoh, sim.NewRNG(1))
	})
}

func TestDDRTotalsPerController(t *testing.T) {
	s := build(t, testConfig())
	runSim(t, s, func(p *sim.Proc) {
		buf := allocBuf(t, s, 2<<20) // spans both partitions
		before := s.DDRTotals()
		for _, v := range before {
			if v != 0 {
				t.Fatal("fresh SoC should have zero counters")
			}
		}
		s.RunAccelerator(p, s.Accs[0], buf, NonCohDMA, sim.NewRNG(1))
		after := s.DDRTotals()
		for i, v := range after {
			if v == 0 {
				t.Errorf("controller %d saw no traffic for a 2MB spread dataset", i)
			}
		}
	})
}

func TestInvocationMonitorsAccumulate(t *testing.T) {
	s := build(t, testConfig())
	runSim(t, s, func(p *sim.Proc) {
		buf := allocBuf(t, s, 16<<10)
		a := s.Accs[0]
		s.RunAccelerator(p, a, buf, CohDMA, sim.NewRNG(1))
		s.RunAccelerator(p, a, buf, CohDMA, sim.NewRNG(2))
		if a.TotalInvocations != 2 {
			t.Errorf("TotalInvocations = %d", a.TotalInvocations)
		}
		if a.TotalActive <= 0 || a.TotalComm < 0 {
			t.Errorf("monitor counters: active=%d comm=%d", a.TotalActive, a.TotalComm)
		}
	})
}

func TestForEachRunCoversExactly(t *testing.T) {
	s := build(t, testConfig())
	buf := allocBuf(t, s, 3<<20) // multiple extents
	for _, lr := range []acc.LineRange{
		{Start: 0, Lines: 10},
		{Start: mem.PageLines - 5, Lines: 10}, // crosses an extent boundary
		{Start: buf.Lines() - 3, Lines: 3},
	} {
		var total int64
		forEachRun(buf, lr, func(start mem.LineAddr, n int64) {
			if n <= 0 {
				t.Fatal("empty run")
			}
			total += n
		})
		if total != lr.Lines {
			t.Fatalf("range %+v produced %d lines", lr, total)
		}
	}
}

func TestFullyCohReusesPrivateCache(t *testing.T) {
	// Two invocations back to back: the second should hit the
	// accelerator's private cache and be faster.
	s := build(t, testConfig())
	runSim(t, s, func(p *sim.Proc) {
		buf := allocBuf(t, s, 8<<10)
		p.WaitUntil(warm(s, buf, p.Now()))
		first := s.RunAccelerator(p, s.Accs[0], buf, FullyCoh, sim.NewRNG(1))
		second := s.RunAccelerator(p, s.Accs[0], buf, FullyCoh, sim.NewRNG(2))
		if second.Active() >= first.Active() {
			t.Errorf("second fully-coh run (%d) should beat the first (%d): private cache is warm",
				second.Active(), first.Active())
		}
	})
	checkSingleOwner(t, s)
}
