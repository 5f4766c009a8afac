package soc

import (
	"testing"

	"cohmeleon/internal/acc"
	"cohmeleon/internal/cache"
	"cohmeleon/internal/mem"
	"cohmeleon/internal/sim"
)

// Deeper coherence-flow tests: mode semantics that the end-to-end suite
// does not pin down individually.

func TestLLCCohWriteClaimsLineFromStaleOwner(t *testing.T) {
	// LLC-coherent DMA writes must clear stale directory owners without
	// recalling them (the bridge is only coherent with the LLC).
	s := build(t, testConfig())
	runSim(t, s, func(p *sim.Proc) {
		buf := allocBuf(t, s, 8<<10)
		p.WaitUntil(warm(s, buf, p.Now()))
		// No private flush: CPU still owns the lines in M. The test spec
		// is non-in-place with ReadFraction 0.8, so writes land in the
		// trailing fifth of the dataset.
		written := lineAt(buf, buf.Lines()-1)
		e := s.homeTile(written).LLC.Probe(written)
		if e == nil || e.Owner == cache.NoOwner {
			t.Fatal("setup: line should be owned by the CPU")
		}
		s.RunAccelerator(p, s.Accs[0], buf, LLCCohDMA, sim.NewRNG(1))
		e = s.homeTile(written).LLC.Probe(written)
		if e == nil {
			t.Fatal("line evicted unexpectedly")
		}
		if e.Owner != cache.NoOwner {
			t.Errorf("llc-coh write left stale owner %d", e.Owner)
		}
		if e.State != cache.DirDirty {
			t.Errorf("llc-coh write left state %v, want dirty", e.State)
		}
	})
}

func TestNonCohWritesLandInDRAMNotLLC(t *testing.T) {
	s := build(t, testConfig())
	runSim(t, s, func(p *sim.Proc) {
		buf := allocBuf(t, s, 8<<10)
		m := &Meter{}
		// Cold dataset (never initialized): pure DMA write traffic.
		writesBefore := s.Mem[0].DRAM.Writes() + s.Mem[1].DRAM.Writes()
		s.RunAccelerator(p, s.Accs[0], buf, NonCohDMA, sim.NewRNG(1))
		writesAfter := s.Mem[0].DRAM.Writes() + s.Mem[1].DRAM.Writes()
		if writesAfter == writesBefore {
			t.Error("non-coh writes never reached DRAM")
		}
		for i := int64(0); i < buf.Lines(); i++ {
			if s.homeTile(lineAt(buf, i)).LLC.Probe(lineAt(buf, i)) != nil {
				t.Fatal("non-coh DMA allocated in the LLC")
			}
		}
		_ = m
	})
}

func TestCohDMAWriteInvalidatesOwner(t *testing.T) {
	s := build(t, testConfig())
	// A write-heavy accelerator on warm data under coherent DMA must
	// invalidate (not just downgrade) the CPU copies of written lines.
	cfg := testConfig()
	cfg.Accs[0].Spec = &acc.Spec{
		Name: "writer", Pattern: acc.Streaming, BurstLines: 16,
		ComputePerByte: 0, ReadFraction: 0.5, Reuse: acc.ConstReuse(1),
		InPlace: true, PLMBytes: 16 << 10,
	}
	s = build(t, cfg)
	runSim(t, s, func(p *sim.Proc) {
		buf := allocBuf(t, s, 8<<10)
		p.WaitUntil(warm(s, buf, p.Now()))
		s.RunAccelerator(p, s.Accs[0], buf, CohDMA, sim.NewRNG(1))
		cpuL2 := s.AgentCache(s.CPUs[0].Agent)
		// The written prefix must be gone from the CPU cache.
		if st, hit := lookup(cpuL2, lineAt(buf, 0)); hit && st == cache.Modified {
			t.Errorf("written line still M in CPU L2 (%v)", st)
		}
	})
	checkSingleOwner(t, s)
	checkInclusion(t, s)
}

func TestStridedAndIrregularModesRun(t *testing.T) {
	for _, pattern := range []acc.Pattern{acc.Strided, acc.Irregular} {
		cfg := testConfig()
		spec := &acc.Spec{
			Name: "p", Pattern: pattern, BurstLines: 1, ComputePerByte: 0.1,
			ReadFraction: 0.9, Reuse: acc.ConstReuse(1), PLMBytes: 8 << 10,
			StrideLines: 4, AccessFraction: 0.5,
		}
		cfg.Accs[0].Spec = spec
		s := build(t, cfg)
		runSim(t, s, func(p *sim.Proc) {
			buf := allocBuf(t, s, 32<<10)
			p.WaitUntil(warm(s, buf, p.Now()))
			for _, mode := range AllModes {
				// Follow the driver protocol: software-managed modes flush
				// first (skipping it is a data race on real ESP too).
				if mode.NeedsPrivateFlush() {
					p.WaitUntil(s.FlushPrivateRange(buf, p.Now(), &Meter{}))
				}
				if mode.NeedsLLCFlush() {
					p.WaitUntil(s.FlushLLCRange(buf, p.Now(), &Meter{}))
				}
				st := s.RunAccelerator(p, s.Accs[0], buf, mode, sim.NewRNG(7))
				if st.End <= st.Start {
					t.Errorf("%v/%v: empty invocation", pattern, mode)
				}
			}
		})
		checkInclusion(t, s)
		checkSingleOwner(t, s)
	}
}

func TestMultiPartitionDatasetTouchesAllHomes(t *testing.T) {
	s := build(t, testConfig())
	runSim(t, s, func(p *sim.Proc) {
		buf := allocBuf(t, s, 2<<20) // two 1MB pages → both partitions
		if got := len(buf.Partitions(s.Map)); got != 2 {
			t.Fatalf("dataset on %d partitions, want 2", got)
		}
		s.RunAccelerator(p, s.Accs[0], buf, LLCCohDMA, sim.NewRNG(1))
		for _, mt := range s.Mem {
			if mt.LLC.Stats().Misses == 0 {
				t.Errorf("partition %d saw no LLC traffic", mt.Part)
			}
		}
	})
}

func TestRepeatedWarmInvocationsConvergeOnChip(t *testing.T) {
	// After the first coh-dma invocation pulls everything into the LLC,
	// later invocations of LLC-friendly sizes stay on chip.
	s := build(t, testConfig())
	runSim(t, s, func(p *sim.Proc) {
		buf := allocBuf(t, s, 64<<10)
		first := s.RunAccelerator(p, s.Accs[0], buf, CohDMA, sim.NewRNG(1))
		second := s.RunAccelerator(p, s.Accs[0], buf, CohDMA, sim.NewRNG(2))
		if first.OffChip == 0 {
			t.Error("cold first run should miss off-chip")
		}
		if second.OffChip != 0 {
			t.Errorf("second run went off-chip (%d lines) despite warm LLC", second.OffChip)
		}
		if second.End-second.Start >= first.End-first.Start {
			t.Error("warm run not faster than cold run")
		}
	})
}

func TestFullyCohWritebackReachesLLCOnRecall(t *testing.T) {
	// A fully-coherent accelerator leaves dirty results in its private
	// cache; a later CPU read must recall the newest data on chip.
	cfg := testConfig()
	cfg.Accs[0].Spec = &acc.Spec{
		Name: "writer", Pattern: acc.Streaming, BurstLines: 16,
		ComputePerByte: 0, ReadFraction: 0.5, Reuse: acc.ConstReuse(1),
		InPlace: true, PLMBytes: 16 << 10,
	}
	s := build(t, cfg)
	runSim(t, s, func(p *sim.Proc) {
		buf := allocBuf(t, s, 8<<10)
		s.RunAccelerator(p, s.Accs[0], buf, FullyCoh, sim.NewRNG(1))
		accL2 := s.AgentCache(s.Accs[0].Agent)
		if accL2.ValidLines() == 0 {
			t.Fatal("setup: accelerator cache should hold results")
		}
		m := &Meter{}
		done := s.CPUTouchRange(s.CPUs[0], buf, 0, buf.Lines(), false, p.Now(), m)
		p.WaitUntil(done)
		if m.OffChip != 0 {
			t.Errorf("CPU readback went off-chip (%d lines); recall should serve it", m.OffChip)
		}
	})
	checkSingleOwner(t, s)
	checkInclusion(t, s)
}

func TestMeterNilSafe(t *testing.T) {
	var m *Meter
	m.add(5) // must not panic
}

func TestYieldBudgetBoundsLookahead(t *testing.T) {
	// Two accelerators started together must interleave: neither may
	// finish its multi-chunk run entirely before the other starts moving.
	s := build(t, testConfig())
	var aEnd, bStart sim.Cycles
	runSim(t, s, func(p *sim.Proc) {
		buf0 := allocBuf(t, s, 512<<10)
		buf1 := allocBuf(t, s, 512<<10)
		wg := sim.NewWaitGroup(s.Eng)
		wg.Add(2)
		s.Eng.Go("a", func(q *sim.Proc) {
			st := s.RunAccelerator(q, s.Accs[0], buf0, NonCohDMA, sim.NewRNG(1))
			aEnd = st.End
			wg.Done()
		})
		s.Eng.Go("b", func(q *sim.Proc) {
			st := s.RunAccelerator(q, s.Accs[1], buf1, NonCohDMA, sim.NewRNG(2))
			bStart = st.Start
			wg.Done()
		})
		wg.Wait(p)
	})
	if bStart >= aEnd {
		t.Errorf("no interleaving: b started at %d, a ended at %d", bStart, aEnd)
	}
}

func TestBufContains(t *testing.T) {
	s := build(t, testConfig())
	buf := allocBuf(t, s, 8<<10)
	if !bufContains(buf, lineAt(buf, 0)) || !bufContains(buf, lineAt(buf, buf.Lines()-1)) {
		t.Fatal("bufContains misses owned lines")
	}
	if bufContains(buf, buf.Extents[0].End()+mem.PageLines) {
		t.Fatal("bufContains claims foreign lines")
	}
}
