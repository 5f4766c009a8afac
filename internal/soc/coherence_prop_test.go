package soc

import (
	"fmt"
	"os"
	"testing"

	"cohmeleon/internal/cache"
	"cohmeleon/internal/mem"
	"cohmeleon/internal/noc"
	"cohmeleon/internal/sim"
	"cohmeleon/internal/soc/protocol"
)

// Property tests for the run-batched coherence engine: two identical
// SoCs — one forced onto the per-line reference flows of
// coherence_ref.go — are driven through the same randomized traffic,
// and every observable must match bit-for-bit: returned completion
// cursors, off-chip meters, DRAM monitors, NoC busy totals, cache and
// directory event counters, and the complete tag/state/owner/sharer end
// state of every cache and partition. This is the contract the batched
// fast paths are defined by.

// coherencePair builds the batched and reference twins.
func coherencePair(t testing.TB, cfg *Config) (fast, ref *SoC) {
	t.Helper()
	fast, err := cfg.Build()
	if err != nil {
		t.Fatal(err)
	}
	ref, err = cfg.Build()
	if err != nil {
		t.Fatal(err)
	}
	ref.refCoherence = true
	return fast, ref
}

// cacheSnapshot flattens a private cache's visible state.
func cacheSnapshot(c *cache.Cache) string {
	out := ""
	c.ForEachValid(func(line mem.LineAddr, st cache.State) {
		out += fmt.Sprintf("%d:%v;", line, st)
	})
	return fmt.Sprintf("%s stats=%+v lines=%d", out, cacheStats(c), c.ValidLines())
}

// dirSnapshot flattens an LLC partition's visible state.
func dirSnapshot(d *cache.Directory) string {
	out := ""
	d.ForEachValid(func(e *cache.DirEntry) {
		out += fmt.Sprintf("%d:%v/o%d/s%x;", e.Line, e.State, e.Owner, e.Sharers)
	})
	return fmt.Sprintf("%s stats=%+v lines=%d owned=%d shared=%d",
		out, d.Stats(), d.ValidLines(), field(d, "owned").Int(), field(d, "shared").Int())
}

// compareSoCs fails the test at the first observable divergence.
func compareSoCs(t *testing.T, step string, fast, ref *SoC) {
	t.Helper()
	for id := range fast.agents {
		if g, w := cacheSnapshot(fast.agents[id].cache), cacheSnapshot(ref.agents[id].cache); g != w {
			t.Fatalf("%s: agent %d cache diverged:\n fast %s\n  ref %s", step, id, g, w)
		}
		if g, w := availableAt(fast.agents[id].port), availableAt(ref.agents[id].port); g != w {
			t.Fatalf("%s: agent %d port cursor %d != %d", step, id, g, w)
		}
	}
	for i := range fast.Mem {
		if g, w := dirSnapshot(fast.Mem[i].LLC), dirSnapshot(ref.Mem[i].LLC); g != w {
			t.Fatalf("%s: llc%d diverged:\n fast %s\n  ref %s", step, i, g, w)
		}
		if err := fast.Mem[i].LLC.CheckSummary(); err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		if g, w := availableAt(fast.Mem[i].Port), availableAt(ref.Mem[i].Port); g != w {
			t.Fatalf("%s: llc%d port cursor %d != %d", step, i, g, w)
		}
		if g, w := fast.Mem[i].DRAM.Total(), ref.Mem[i].DRAM.Total(); g != w {
			t.Fatalf("%s: dram%d monitor %d != %d", step, i, g, w)
		}
		if g, w := fast.Mem[i].DRAM.BusyCycles(), ref.Mem[i].DRAM.BusyCycles(); g != w {
			t.Fatalf("%s: dram%d busy %d != %d", step, i, g, w)
		}
	}
	for p := noc.Plane(0); p < noc.NumPlanes; p++ {
		if g, w := fast.Mesh.LinkBusy(p), ref.Mesh.LinkBusy(p); g != w {
			t.Fatalf("%s: plane %v busy %d != %d", step, p, g, w)
		}
	}
}

// driveRandomGroups runs the same random group-op schedule through both
// SoCs and compares after every operation.
func driveRandomGroups(t *testing.T, cfg *Config, seed uint64, ops int) {
	fast, ref := coherencePair(t, cfg)
	bufBytes := int64(128 << 10)
	fastBuf, err := fast.Heap.Alloc(bufBytes)
	if err != nil {
		t.Fatal(err)
	}
	refBuf, err := ref.Heap.Alloc(bufBytes)
	if err != nil {
		t.Fatal(err)
	}
	if len(fastBuf.Extents) != len(refBuf.Extents) {
		t.Fatalf("allocator divergence: %d vs %d extents", len(fastBuf.Extents), len(refBuf.Extents))
	}

	run := func(s *SoC, buf *mem.Buffer) []sim.Cycles {
		var cursors []sim.Cycles
		rng := sim.NewRNG(seed)
		meter := &Meter{}
		s.Eng.Go("drive", func(p *sim.Proc) {
			t := p.Now()
			for op := 0; op < ops; op++ {
				ext := &buf.Extents[rng.Intn(len(buf.Extents))]
				n := 1 + rng.Int63n(int64(s.P.GroupLines))
				if n > ext.Lines {
					n = ext.Lines
				}
				off := rng.Int63n(ext.Lines - n + 1)
				start := ext.Start + mem.LineAddr(off)
				mt := s.homeTile(start)
				write := rng.Intn(2) == 1
				switch rng.Intn(8) {
				case 0, 1:
					agentID := rng.Intn(len(s.agents))
					t = s.cachedGroupAccess(agentID, start, n, write, t, meter)
				case 2, 3:
					a := s.Accs[rng.Intn(len(s.Accs))]
					t = s.dmaGroupLLC(mt, a, start, n, write, false, t, meter)
				case 4, 5:
					a := s.Accs[rng.Intn(len(s.Accs))]
					t = s.dmaGroupLLC(mt, a, start, n, write, true, t, meter)
				case 6:
					a := s.Accs[rng.Intn(len(s.Accs))]
					t = s.dmaGroupNonCoh(mt, a, start, n, write, t, meter)
				case 7:
					if rng.Intn(2) == 0 {
						t = s.FlushPrivateRange(buf, t, meter)
					} else {
						t = s.FlushLLCRange(buf, t, meter)
					}
				}
				cursors = append(cursors, t)
			}
			cursors = append(cursors, sim.Cycles(meter.OffChip))
		})
		if err := s.Eng.Run(); err != nil {
			t.Fatal(err)
		}
		return cursors
	}

	fastCur := run(fast, fastBuf)
	refCur := run(ref, refBuf)
	for i := range refCur {
		if fastCur[i] != refCur[i] {
			t.Fatalf("seed %d: op %d cursor/meter diverged: fast %d, ref %d", seed, i, fastCur[i], refCur[i])
		}
	}
	compareSoCs(t, fmt.Sprintf("seed %d end", seed), fast, ref)
}

// TestBatchedCoherenceMatchesReference drives random group traffic over
// a spread of cache geometries, including degenerate ones where the
// batched flows must fall back to the reference (LLC sets below the
// group length) — for every registered protocol, since the per-line
// reference flows are each protocol's defining spec (see the protocol
// package doc). A protocol whose batched flows diverge from its own
// reference cannot land.
func TestBatchedCoherenceMatchesReference(t *testing.T) {
	geometries := []struct{ llcKB, l2KB int }{
		{64, 32},  // the standard test geometry
		{16, 32},  // LLC slice smaller than L2: heavy LLC thrashing
		{8, 8},    // 16 sets = GroupLines: the fast-path boundary
		{4, 8},    // 8 sets < GroupLines: permanent reference fallback
		{256, 16}, // roomy LLC, tiny L2: private-cache thrashing
	}
	for _, proto := range protocol.Names() {
		for _, g := range geometries {
			proto, g := proto, g
			t.Run(fmt.Sprintf("%s/llc%dK_l2%dK", proto, g.llcKB, g.l2KB), func(t *testing.T) {
				cfg := testConfig()
				cfg.Protocol = proto
				cfg.LLCSliceKB = g.llcKB
				cfg.L2KB = g.l2KB
				for seed := uint64(1); seed <= 6; seed++ {
					driveRandomGroups(t, cfg, seed, 400)
				}
			})
		}
	}
}

// FuzzBatchedCoherence is the fuzzing entry point over the same
// batched-vs-reference property: arbitrary seeds (and op counts) must
// never produce a divergence. The seed corpus runs as part of the
// regular test suite; CI fuzzes it for a bounded time, non-blocking,
// once per registered protocol (COHMELEON_PROTOCOL selects the stack;
// empty keeps the default).
func FuzzBatchedCoherence(f *testing.F) {
	proto := os.Getenv("COHMELEON_PROTOCOL")
	if _, err := protocol.Lookup(proto); err != nil {
		f.Fatal(err)
	}
	f.Add(uint64(1), uint16(100))
	f.Add(uint64(1234567), uint16(300))
	f.Add(^uint64(0), uint16(64))
	f.Fuzz(func(t *testing.T, seed uint64, ops uint16) {
		n := int(ops%500) + 1
		cfg := testConfig()
		cfg.Protocol = proto
		driveRandomGroups(t, cfg, seed, n)
	})
}

// TestBatchedCoherenceFullInvocations runs complete accelerator
// invocations (the socket's chunked, double-buffered schedule) under
// every mode on the twin SoCs, comparing invocation stats and end
// state: the integration-level version of the group property.
func TestBatchedCoherenceFullInvocations(t *testing.T) {
	for _, proto := range protocol.Names() {
		for _, mode := range AllModes {
			proto, mode := proto, mode
			t.Run(proto+"/"+mode.String(), func(t *testing.T) {
				cfg := testConfig()
				cfg.Protocol = proto
				fast, ref := coherencePair(t, cfg)
				invoke := func(s *SoC) InvocationStats {
					var out InvocationStats
					s.Eng.Go("invoke", func(p *sim.Proc) {
						buf, err := s.Heap.Alloc(96 << 10)
						if err != nil {
							panic(err)
						}
						meter := &Meter{}
						p.WaitUntil(s.CPUTouchRange(s.CPUs[0], buf, 0, buf.Lines(), true, p.Now(), meter))
						out = s.RunAccelerator(p, s.Accs[0], buf, mode, sim.NewRNG(7))
					})
					if err := s.Eng.Run(); err != nil {
						t.Fatal(err)
					}
					return out
				}
				fs, rs := invoke(fast), invoke(ref)
				if fs != rs {
					t.Fatalf("%v: invocation stats diverged:\n fast %+v\n  ref %+v", mode, fs, rs)
				}
				compareSoCs(t, mode.String(), fast, ref)
			})
		}
	}
}

// TestFlushFastPathsMatchReference pins the flush fast paths in
// flush.go — the clean-invalidation directory skip in flushAgentRange
// and the fused no-recall run in flushLLCPartition — against the
// per-line reference walk, through a scripted sequence that drives
// both: flushes over cold caches, over LLC-resident lines with no
// private copies (where the fast paths fire), and over dirty private
// copies with live owners (where they must stand down). Cursors,
// off-chip meters, and full end state must be identical.
func TestFlushFastPathsMatchReference(t *testing.T) {
	for _, proto := range protocol.Names() {
		proto := proto
		t.Run(proto, func(t *testing.T) {
			cfg := testConfig()
			cfg.Protocol = proto
			fast, ref := coherencePair(t, cfg)
			run := func(s *SoC) []sim.Cycles {
				var cursors []sim.Cycles
				meter := &Meter{}
				s.Eng.Go("flush", func(p *sim.Proc) {
					buf, err := s.Heap.Alloc(64 << 10)
					if err != nil {
						panic(err)
					}
					record := func(c sim.Cycles) sim.Cycles {
						cursors = append(cursors, c)
						return c
					}
					now := p.Now()
					// 1. Flushes over cold caches: pure tag-array walks.
					now = record(s.FlushPrivateRange(buf, now, meter))
					now = record(s.FlushLLCRange(buf, now, meter))
					// 2. LLC-coherent DMA writes leave dirty LLC lines with
					// no private copies: the fused no-recall LLC flush and
					// the directory-skip private flush both fire.
					for i := range buf.Extents {
						ext := &buf.Extents[i]
						n := int64(s.P.GroupLines)
						if n > ext.Lines {
							n = ext.Lines
						}
						mt := s.homeTile(ext.Start)
						now = record(s.dmaGroupLLC(mt, s.Accs[0], ext.Start, n, true, false, now, meter))
					}
					now = record(s.FlushPrivateRange(buf, now, meter))
					now = record(s.FlushLLCRange(buf, now, meter))
					// 3. CPU writes create dirty private copies and owner
					// listings: the fast paths must stand down and match
					// the per-line recalls exactly.
					now = record(s.CPUTouchRange(s.CPUs[0], buf, 0, buf.Lines(), true, now, meter))
					now = record(s.FlushPrivateRange(buf, now, meter))
					now = record(s.FlushLLCRange(buf, now, meter))
					// 4. Dirty again, then an LLC flush with owners still
					// live: the recall-first walk, no private flush before.
					now = record(s.CPUTouchRange(s.CPUs[0], buf, 0, buf.Lines(), true, now, meter))
					now = record(s.FlushLLCRange(buf, now, meter))
					cursors = append(cursors, sim.Cycles(meter.OffChip))
				})
				if err := s.Eng.Run(); err != nil {
					t.Fatal(err)
				}
				return cursors
			}
			fastCur, refCur := run(fast), run(ref)
			if len(fastCur) != len(refCur) {
				t.Fatalf("cursor counts diverged: %d vs %d", len(fastCur), len(refCur))
			}
			for i := range refCur {
				if fastCur[i] != refCur[i] {
					t.Fatalf("step %d cursor/meter diverged: fast %d, ref %d", i, fastCur[i], refCur[i])
				}
			}
			compareSoCs(t, "flush end", fast, ref)
		})
	}
}

// TestBatchedCoherenceSplitInvocations runs split (hot, cold)
// invocations through RunAcceleratorSplit on the twin SoCs for every
// registered protocol: the per-region transfer schedule must match its
// per-line reference exactly like the uniform schedule does.
func TestBatchedCoherenceSplitInvocations(t *testing.T) {
	splits := [][2]Mode{
		{CohDMA, NonCohDMA}, // coherent hot region, non-coherent bulk
		{FullyCoh, CohDMA},  // cached hot region, coherent DMA bulk
		{NonCohDMA, LLCCohDMA},
	}
	for _, proto := range protocol.Names() {
		for _, sp := range splits {
			proto, hot, cold := proto, sp[0], sp[1]
			t.Run(fmt.Sprintf("%s/%s", proto, SplitAction(hot, cold)), func(t *testing.T) {
				cfg := testConfig()
				cfg.Protocol = proto
				fast, ref := coherencePair(t, cfg)
				invoke := func(s *SoC) InvocationStats {
					var out InvocationStats
					s.Eng.Go("invoke", func(p *sim.Proc) {
						buf, err := s.Heap.Alloc(96 << 10)
						if err != nil {
							panic(err)
						}
						meter := &Meter{}
						p.WaitUntil(s.CPUTouchRange(s.CPUs[0], buf, 0, buf.Lines(), true, p.Now(), meter))
						out = s.RunAcceleratorSplit(p, s.Accs[0], buf, hot, cold, sim.NewRNG(7))
					})
					if err := s.Eng.Run(); err != nil {
						t.Fatal(err)
					}
					return out
				}
				fs, rs := invoke(fast), invoke(ref)
				if fs != rs {
					t.Fatalf("split stats diverged:\n fast %+v\n  ref %+v", fs, rs)
				}
				compareSoCs(t, "split end", fast, ref)
			})
		}
	}
}
