package soc

import (
	"fmt"

	"cohmeleon/internal/acc"
	"cohmeleon/internal/mem"
	"cohmeleon/internal/sim"
)

// This file implements the accelerator socket: the ESP-style wrapper
// that executes an accelerator's access plan against the memory
// hierarchy under a chosen coherence mode. The accelerator itself is
// coherence-agnostic — it emits logical reads, computes, and emits
// logical writes; the socket translates them into the mode's datapath.

// InvocationStats is what the hardware monitors report for one
// invocation: total active cycles, communication cycles, and the
// ground-truth off-chip accesses the invocation caused (the latter is
// simulator-only; the runtime must use the monitor approximation).
type InvocationStats struct {
	Start      sim.Cycles
	End        sim.Cycles
	CommCycles sim.Cycles
	OffChip    int64
	Chunks     int
}

// Active returns the invocation's busy cycles.
func (st InvocationStats) Active() sim.Cycles { return st.End - st.Start }

// yieldBudget bounds how far ahead of the engine clock an invocation
// may precompute before yielding to concurrent processes.
const yieldBudget sim.Cycles = 20000

// forEachRun decomposes a logical line range of the buffer into physical
// (start, n) runs, each within a single extent (and therefore a single
// memory partition). It walks the extent list directly, so it neither
// allocates nor needs a precomputed prefix table.
func forEachRun(buf *mem.Buffer, lr acc.LineRange, emit func(start mem.LineAddr, n int64)) {
	remaining := lr.Lines
	logical := lr.Start
	var base int64 // lines before the current extent
	for i := range buf.Extents {
		if remaining <= 0 {
			return
		}
		e := &buf.Extents[i]
		if logical >= base+e.Lines {
			base += e.Lines
			continue
		}
		off := logical - base
		n := e.Lines - off
		if n > remaining {
			n = remaining
		}
		emit(e.Start+mem.LineAddr(off), n)
		logical += n
		remaining -= n
		base += e.Lines
	}
	if remaining > 0 {
		panic(fmt.Sprintf("soc: logical range [%d,+%d) beyond buffer", lr.Start, lr.Lines))
	}
}

// contains reports whether the physical line belongs to the buffer.
func bufContains(buf *mem.Buffer, line mem.LineAddr) bool {
	for _, e := range buf.Extents {
		if line >= e.Start && line < e.End() {
			return true
		}
	}
	return false
}

// doTransfers executes the plan's read or write ranges under the mode,
// advancing the time cursor serially (an ESP DMA engine keeps one
// transaction in flight; parallelism comes from concurrent tiles).
//
// This is the innermost dispatch of every simulated transfer: the extent
// walk is inlined rather than routed through forEachRun (closure capture
// of the time cursor shows up in CPU profiles), and each resolved run is
// dispatched immediately — the mode switch inside the loop is a
// perfectly-predicted branch, cheaper than materializing a run list.
func (s *SoC) doTransfers(a *AccTile, buf *mem.Buffer, ranges []acc.LineRange, mode Mode, write bool, at sim.Cycles, meter *Meter) sim.Cycles {
	t := at
	extents := buf.Extents
	if len(extents) == 1 {
		// Single-extent buffer (any footprint up to one page): logical
		// offsets map 1:1 onto the extent, no walk needed. This is the
		// common case; the mode dispatch and the (accelerator, memory
		// tile) route resolution hoist out of the per-range loop —
		// strided and irregular plans emit one range per line, so the
		// loop body is the innermost code of the simulator.
		e := &extents[0]
		mt := s.homeTile(e.Start)
		switch mode {
		case NonCohDMA:
			dp := s.dmaPathTo(a.ID, mt.Part)
			for _, lr := range ranges {
				if lr.Start+lr.Lines > e.Lines {
					panic(fmt.Sprintf("soc: logical range [%d,+%d) beyond buffer", lr.Start, lr.Lines))
				}
				t = s.dmaRunNonCoh(dp, mt, e.Start+mem.LineAddr(lr.Start), lr.Lines, write, t, meter)
			}
		default:
			for _, lr := range ranges {
				if lr.Start+lr.Lines > e.Lines {
					panic(fmt.Sprintf("soc: logical range [%d,+%d) beyond buffer", lr.Start, lr.Lines))
				}
				t = s.dispatchRun(a, mt, e.Start+mem.LineAddr(lr.Start), lr.Lines, mode, write, t, meter)
			}
		}
		return t
	}
	s.ensureRunTable(buf)
	runExt, runPre, runHome := s.runExt, s.runPre, s.runHome
	// The DMA routes of the extents' home tiles, resolved lazily once
	// per (invocation, extent): strided and irregular plans emit one
	// range per line, so the per-range body below must not re-derive
	// the route. Index parallel to runHome; nil until first use.
	var nonCohDP *dmaPath
	nonCohEI := -1
	for _, lr := range ranges {
		logical := lr.Start
		// O(1) lookup of the extent containing the range start.
		pi := logical >> mem.PageLineShift
		if pi < 0 || pi >= int64(len(runExt)) {
			panic(fmt.Sprintf("soc: logical range [%d,+%d) beyond buffer", lr.Start, lr.Lines))
		}
		ei := int(runExt[pi])
		if lr.Lines == 1 {
			// Single-line range (strided and irregular accelerator
			// patterns): no extent walk, the containing extent is final.
			start := extents[ei].Start + mem.LineAddr(logical-runPre[ei])
			if mode == NonCohDMA {
				if ei != nonCohEI {
					nonCohDP, nonCohEI = s.dmaPathTo(a.ID, runHome[ei].Part), ei
				}
				t = s.dmaRunNonCoh(nonCohDP, runHome[ei], start, 1, write, t, meter)
			} else {
				t = s.dispatchRun(a, runHome[ei], start, 1, mode, write, t, meter)
			}
			continue
		}
		remaining := lr.Lines
		base := runPre[ei]
		for remaining > 0 {
			if ei >= len(extents) {
				panic(fmt.Sprintf("soc: logical range [%d,+%d) beyond buffer", lr.Start, lr.Lines))
			}
			e := &extents[ei]
			off := logical - base
			n := e.Lines - off
			if n > remaining {
				n = remaining
			}
			t = s.dispatchRun(a, runHome[ei], e.Start+mem.LineAddr(off), n, mode, write, t, meter)
			logical += n
			remaining -= n
			base += e.Lines
			ei++
		}
	}
	return t
}

// dispatchRun sends one physical run — a contiguous line range within a
// single extent, so a single home tile — through the mode's datapath,
// splitting it into hardware groups where the mode requires.
func (s *SoC) dispatchRun(a *AccTile, mt *MemTile, start mem.LineAddr, n int64, mode Mode, write bool, t sim.Cycles, meter *Meter) sim.Cycles {
	switch mode {
	case NonCohDMA:
		// Whole run in one burst: the long-burst advantage of bypassing
		// the hierarchy.
		return s.dmaGroupNonCoh(mt, a, start, n, write, t, meter)
	case LLCCohDMA, CohDMA:
		recall := s.rules.RecallOwners[mode]
		group := int64(s.P.GroupLines)
		for o := int64(0); o < n; o += group {
			g := group
			if o+g > n {
				g = n - o
			}
			t = s.dmaGroupLLC(mt, a, start+mem.LineAddr(o), g, write, recall, t, meter)
		}
		return t
	case FullyCoh:
		group := int64(s.P.GroupLines)
		for o := int64(0); o < n; o += group {
			g := group
			if o+g > n {
				g = n - o
			}
			t = s.cachedGroupAccess(a.Agent, start+mem.LineAddr(o), g, write, t, meter)
		}
		return t
	default:
		panic(fmt.Sprintf("soc: unknown mode %v", mode))
	}
}

// splitRanges partitions logical ranges at the hot/cold boundary: the
// part of each range below hotLines lands in hot, the rest in cold.
// Ranges keep their relative order within each region, so each region's
// transfer stream is deterministic.
func splitRanges(ranges []acc.LineRange, hotLines int64, hot, cold []acc.LineRange) ([]acc.LineRange, []acc.LineRange) {
	for _, lr := range ranges {
		if lr.Start < hotLines {
			n := hotLines - lr.Start
			if n > lr.Lines {
				n = lr.Lines
			}
			hot = append(hot, acc.LineRange{Start: lr.Start, Lines: n})
			if lr.Lines > n {
				cold = append(cold, acc.LineRange{Start: hotLines, Lines: lr.Lines - n})
			}
		} else {
			cold = append(cold, lr)
		}
	}
	return hot, cold
}

// transfer executes the plan's ranges under the invocation's action.
// A uniform action (hot == cold) is one doTransfers pass. A split
// action routes accesses to the buffer's hot region (the leading
// HotLines lines) through hot and the remainder through cold; the hot
// region's transfers issue first, and the cursor stays serial (one DMA
// transaction in flight per socket).
func (s *SoC) transfer(a *AccTile, buf *mem.Buffer, ranges []acc.LineRange, hot, cold Mode, write bool, at sim.Cycles, meter *Meter) sim.Cycles {
	if hot == cold {
		return s.doTransfers(a, buf, ranges, hot, write, at, meter)
	}
	hotR, coldR := splitRanges(ranges, s.HotLines(), s.splitHotScratch[:0], s.splitColdScratch[:0])
	t := at
	if len(hotR) > 0 {
		t = s.doTransfers(a, buf, hotR, hot, write, t, meter)
	}
	if len(coldR) > 0 {
		t = s.doTransfers(a, buf, coldR, cold, write, t, meter)
	}
	s.splitHotScratch, s.splitColdScratch = hotR[:0], coldR[:0]
	return t
}

// HotLines returns the size of the fine-grain hot region in lines: the
// leading L2-sized prefix of an invocation's buffer (the region whose
// reuse a private-cache-sized window can actually capture).
func (s *SoC) HotLines() int64 { return s.Cfg.L2Bytes() / mem.LineBytes }

// ensureRunTable (re)builds the logical-page -> extent lookup table for
// buf. Buffers are immutable once allocated, so identity comparison is
// enough to reuse the table across the many doTransfers calls of one
// invocation.
func (s *SoC) ensureRunTable(buf *mem.Buffer) {
	if s.runBuf == buf {
		return
	}
	s.runExt = s.runExt[:0]
	s.runPre = s.runPre[:0]
	s.runHome = s.runHome[:0]
	var base int64
	for ei := range buf.Extents {
		s.runPre = append(s.runPre, base)
		s.runHome = append(s.runHome, s.homeTile(buf.Extents[ei].Start))
		lines := buf.Extents[ei].Lines
		for p := int64(0); p < lines>>mem.PageLineShift; p++ {
			s.runExt = append(s.runExt, int32(ei))
		}
		base += lines
	}
	s.runBuf = buf
}

// RunAccelerator executes one invocation of the accelerator on the
// dataset under the given coherence mode: RunAcceleratorSplit with the
// same mode for both regions.
func (s *SoC) RunAccelerator(p *sim.Proc, a *AccTile, buf *mem.Buffer, mode Mode, rng *sim.RNG) InvocationStats {
	return s.RunAcceleratorSplit(p, a, buf, mode, mode, rng)
}

// RunAcceleratorSplit executes one invocation of the accelerator on the
// dataset under a fine-grain action: accesses to the buffer's hot
// region (the leading HotLines-sized prefix) use hot, the remainder
// cold; hot == cold is a uniform invocation. Chunks are double-buffered
// (the next chunk's reads are prefetched during the current chunk's
// compute). It must run inside a simulation process; the call blocks
// in virtual time until the invocation completes. rng drives irregular
// access selection.
//
// A mode of FullyCoh (in either region) requires the tile to have a
// private cache.
func (s *SoC) RunAcceleratorSplit(p *sim.Proc, a *AccTile, buf *mem.Buffer, hot, cold Mode, rng *sim.RNG) InvocationStats {
	if (hot == FullyCoh || cold == FullyCoh) && !a.HasPrivateCache() {
		panic(fmt.Sprintf("soc: %s has no private cache; FullyCoh unavailable", a.InstName))
	}
	plan := acc.NewPlan(a.Spec, buf.Bytes, rng)
	var meter Meter // stays on the stack: callees never retain it
	start := p.Now()

	var cur, next acc.ChunkPlan
	var comm sim.Cycles
	chunks := 0

	hasCur := plan.Next(&cur)
	fetchIssue := start
	var fetchDone sim.Cycles
	if hasCur {
		fetchDone = s.transfer(a, buf, cur.Reads, hot, cold, false, start, &meter)
	}
	prevComputeDone := start
	lastWriteDone := start

	for hasCur {
		chunks++
		computeStart := fetchDone
		if prevComputeDone > computeStart {
			computeStart = prevComputeDone
		}
		computeDone := computeStart + cur.Compute
		comm += fetchDone - fetchIssue

		// Prefetch the next chunk while this one computes.
		hasNext := plan.Next(&next)
		var nextIssue, nextDone sim.Cycles
		if hasNext {
			nextIssue = computeStart
			nextDone = s.transfer(a, buf, next.Reads, hot, cold, false, nextIssue, &meter)
		}

		if len(cur.Writes) > 0 {
			wDone := s.transfer(a, buf, cur.Writes, hot, cold, true, computeDone, &meter)
			comm += wDone - computeDone
			if wDone > lastWriteDone {
				lastWriteDone = wDone
			}
		}
		prevComputeDone = computeDone
		// Yield so concurrent accelerators interleave. Yielding every
		// chunk would cost a goroutine handoff per 16 kB of data; yielding
		// on a virtual-time budget keeps fairness (reservation lookahead
		// stays bounded) at a fraction of the cost.
		if computeDone-p.Now() > yieldBudget {
			p.WaitUntil(computeDone)
		}

		cur, next = next, cur
		hasCur = hasNext
		fetchIssue, fetchDone = nextIssue, nextDone
	}

	end := prevComputeDone
	if lastWriteDone > end {
		end = lastWriteDone
	}
	p.WaitUntil(end)
	if total := end - start; comm > total {
		comm = total // overlapped read+write phases cannot exceed wall clock
	}

	a.TotalInvocations++
	a.TotalActive += end - start
	a.TotalComm += comm
	return InvocationStats{
		Start:      start,
		End:        end,
		CommCycles: comm,
		OffChip:    meter.OffChip,
		Chunks:     chunks,
	}
}
