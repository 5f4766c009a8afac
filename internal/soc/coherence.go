package soc

import (
	"math/bits"

	"cohmeleon/internal/cache"
	"cohmeleon/internal/mem"
	"cohmeleon/internal/sim"
)

// This file implements the transaction flows of the cache hierarchy:
// how cached agents (CPUs and fully-coherent accelerators) and DMA
// engines reach the LLC and DRAM under each coherence mode. Flows
// operate on "groups" — up to Params.GroupLines contiguous lines homed
// on one partition — paying per-message costs (headers, DRAM latency)
// once per group and per-line costs (LLC pipeline, channel bandwidth)
// per line. That models the MSHR-style pipelining of real controllers
// while keeping the simulation at transaction granularity.
//
// The group flows are run-batched: one run-level cache/directory call
// performs every line's state transition, and the per-line pipeline
// occupancies of "plain" lines — hits needing no recalls, misses
// filling clean sets — are fused into one reservation, which is
// timing-identical because the port cursor accumulates durations
// linearly and nothing yields mid-group. Only exceptional lines
// (recalls, invalidations, victims carrying dirty data or private
// copies) are handled individually, at exactly the cursor position the
// per-line reference flow (coherence_ref.go) would handle them.

// Meter accumulates the ground-truth off-chip accesses caused by one
// activity (an invocation, a flush, a software touch). The paper's
// runtime cannot observe this directly — it uses the footprint-
// proportional approximation — but the simulator tracks it for
// reporting and for validating the approximation.
type Meter struct {
	OffChip int64
}

func (m *Meter) add(n int64) {
	if m != nil {
		m.OffChip += n
	}
}

// recallFromOwner pulls the line out of its owner's private cache.
// For reads the owner downgrades to Shared; for writes (and evictions)
// it invalidates. Dirty data travels back to the memory tile on the
// response plane and marks the LLC copy dirty. Returns the new cursor.
func (s *SoC) recallFromOwner(mt *MemTile, e *cache.DirEntry, invalidate bool, at sim.Cycles, meter *Meter) sim.Cycles {
	ownerID := e.Owner
	if ownerID == cache.NoOwner {
		return at
	}
	owner := &s.agents[ownerID]
	cp := s.cohPathTo(ownerID, mt.Part)
	// Forward from the directory to the owner.
	t := cp.fwd.Send(0, at)
	_, t = owner.port.Acquire(t, s.P.L2HitCycles)
	var present, dirty bool
	if invalidate {
		present, dirty = owner.cache.Invalidate(e.Line)
	} else {
		present, dirty = owner.cache.Downgrade(e.Line)
	}
	if present && dirty {
		// Dirty data returns to the LLC.
		t = cp.wb.Send(mem.LineBytes, t)
		if !s.rules.OwnerForward {
			// The recall waits for the LLC copy to update through the fill
			// pipeline; owner-forwarding protocols complete at the
			// writeback's arrival and update the LLC in the background.
			_, t = mt.Port.Acquire(t, s.P.LLCFillCycles)
		}
		e.State = cache.DirDirty
	}
	mt.LLC.SetOwner(e, cache.NoOwner)
	if present && !invalidate {
		mt.LLC.AddSharer(e, ownerID)
	}
	return t
}

// invalidateSharers sends invalidation forwards to every sharer. The
// forwards are fire-and-forget; the directory pays header issue cost.
func (s *SoC) invalidateSharers(mt *MemTile, e *cache.DirEntry, at sim.Cycles) sim.Cycles {
	t := at
	e.ForEachSharer(func(id int) {
		ag := &s.agents[id]
		_, t = mt.Port.Acquire(t, s.P.RecallHeaderCycles)
		arrive := s.cohPathTo(id, mt.Part).fwd.Send(0, t)
		_, _ = ag.port.Acquire(arrive, s.P.L2HitCycles)
		ag.cache.Invalidate(e.Line) // may be a stale sharer (silent eviction): harmless
	})
	mt.LLC.ClearSharers(e)
	return t
}

// evictLLCVictim enforces inclusion when the LLC displaces a line:
// private copies are recalled/invalidated, and dirty data (from the LLC
// or the recalled owner) is posted to DRAM.
func (s *SoC) evictLLCVictim(mt *MemTile, v cache.DirVictim, at sim.Cycles, meter *Meter) sim.Cycles {
	if !v.Valid {
		return at
	}
	t := at
	dirty := v.WasDirty
	if v.Owner != cache.NoOwner {
		owner := &s.agents[v.Owner]
		cp := s.cohPathTo(v.Owner, mt.Part)
		t = cp.fwd.Send(0, t)
		_, t = owner.port.Acquire(t, s.P.L2HitCycles)
		present, ownerDirty := owner.cache.Invalidate(v.Line)
		if present && ownerDirty {
			t = cp.wb.Send(mem.LineBytes, t)
			dirty = true
		}
	}
	cache.ForEachSharerMask(v.Sharers, func(id int) {
		ag := &s.agents[id]
		_, t = mt.Port.Acquire(t, s.P.RecallHeaderCycles)
		arrive := s.cohPathTo(id, mt.Part).fwd.Send(0, t)
		_, _ = ag.port.Acquire(arrive, s.P.L2HitCycles)
		ag.cache.Invalidate(v.Line)
	})
	if dirty {
		mt.DRAM.Post(t, 1, true)
		meter.add(1)
	}
	return t
}

// writebackToLLC handles a dirty private-cache victim (PutM): the data
// travels to the line's home LLC, which becomes dirty and drops the
// owner. llcWay is the victim's LLC way hint (cache.Victim.LLCWay).
// Posted: the returned time is when the LLC accepted it, but callers
// typically do not wait on it.
func (s *SoC) writebackToLLC(fromID int, line mem.LineAddr, llcWay int32, at sim.Cycles, meter *Meter) sim.Cycles {
	mt := s.homeTile(line)
	t := s.cohPathTo(fromID, mt.Part).wb.Send(mem.LineBytes, at)
	_, t = mt.Port.Acquire(t, s.P.LLCFillCycles)
	e := mt.LLC.ProbeAt(llcWay, line)
	if e == nil {
		// The LLC lost the entry (should not happen under inclusion, but
		// stay robust): allocate it dirty.
		var v cache.DirVictim
		e, v = mt.LLC.Insert(line, cache.DirDirty)
		t = s.evictLLCVictim(mt, v, t, meter)
		return t
	}
	e.State = cache.DirDirty
	if e.Owner == fromID {
		mt.LLC.SetOwner(e, cache.NoOwner)
	}
	return t
}

// groupRunnable reports whether a group of n lines satisfies the
// run-operation preconditions on the partition: the 64-bit outcome
// masks, and pairwise-distinct LLC sets (contiguous lines collide only
// when the group is longer than the set count). Violations fall back to
// the per-line reference flows.
func groupRunnable(llc *cache.Directory, n int64) bool {
	return n <= 64 && n <= llc.Sets()
}

// cachedGroupAccess performs reads or full-line writes for n contiguous
// lines through an agent's private cache (the CPU software path and the
// fully-coherent accelerator path). Writes are write-allocate without
// fetch: software initialization and accelerator stores write whole
// lines. Returns the completion time.
func (s *SoC) cachedGroupAccess(agentID int, start mem.LineAddr, n int64, write bool, at sim.Cycles, meter *Meter) sim.Cycles {
	mt := s.homeTile(start)
	if s.refCoherence || !groupRunnable(mt.LLC, n) {
		return s.cachedGroupAccessRef(agentID, start, n, write, at, meter)
	}
	ag := &s.agents[agentID]
	t := at
	// Private-cache lookup occupancy for the whole group.
	_, t = ag.port.Acquire(t, sim.Cycles(n)*s.P.L2HitCycles)

	// Classify the whole run in one call; the missed (or upgrade-needing)
	// subset proceeds to the LLC. The scratch buffer is safe to share:
	// exactly one simulation goroutine runs at a time and this function
	// never yields.
	misses := ag.cache.AccessUpgradeRun(start, n, write, s.missScratch[:0])
	defer func() { s.missScratch = misses[:0] }()
	if len(misses) == 0 {
		return t
	}
	cp := s.cohPathTo(agentID, mt.Part)
	// One request header per group.
	t = cp.req.Send(0, t)

	// Every directory transition of the run happens here; recalls,
	// invalidations and victims needing work come back for the timed
	// per-line walk below.
	run := &s.dirRun
	mt.LLC.AccessOrInsertRun(misses, cache.DirClean,
		cache.RunUpdate{
			Kind:           cache.RunCached,
			Write:          write,
			ExclusiveGrant: s.rules.ExclusiveGrant,
			Self:           agentID,
		}, run)

	var fillLines int64 // lines read from DRAM
	if !write {
		fillLines = int64(run.Misses)
	}
	t = s.walkGroupTiming(mt, misses, run, s.P.LLCLookupCycles, t, meter,
		func(e *cache.DirEntry, t sim.Cycles) sim.Cycles {
			if e.Owner != cache.NoOwner && e.Owner != agentID {
				t = s.recallFromOwner(mt, e, write, t, meter)
			}
			if write && e.HasSharers() {
				t = s.invalidateSharers(mt, e, t)
			}
			if write {
				mt.LLC.SetOwner(e, agentID)
				mt.LLC.ClearSharers(e)
			} else if s.rules.ExclusiveGrant && e.Owner == cache.NoOwner && !e.HasSharers() {
				mt.LLC.SetOwner(e, agentID) // exclusive grant
			} else if e.Owner != agentID {
				mt.LLC.AddSharer(e, agentID)
			}
			return t
		})
	if fillLines > 0 {
		// DRAM fills pay the burst latency once per group (MSHR overlap).
		t = mt.DRAM.Access(t, fillLines, false)
		meter.add(fillLines)
	}
	// Data response for the whole group.
	t = cp.rsp.Send(len(misses)*mem.LineBytes, t)
	// Fill the private cache; dirty victims write back (posted).
	if write {
		// Uniform Modified fill: victims defer past the batch (their
		// disposal never touches this cache).
		victims := ag.cache.InsertRun(misses, cache.Modified, run.Ways, s.l2VictScratch[:0])
		defer func() { s.l2VictScratch = victims[:0] }()
		for _, v := range victims {
			s.handleL2Victim(agentID, v, t, meter)
		}
		return t
	}
	for i, line := range misses {
		// The fill state depends on directory state that this loop's own
		// victim disposal can move, so reads stay per line; the run's way
		// indices make the probe O(1), and the private cache keeps them
		// as the lines' hints for their own later victim disposal.
		st := cache.Exclusive
		if e := mt.LLC.ProbeAt(run.Ways[i], line); e != nil && (e.HasSharers() || e.Owner != agentID) {
			st = cache.Shared
		}
		if v := ag.cache.Insert(line, st, run.Ways[i]); v.Valid {
			s.handleL2Victim(agentID, v, t, meter)
		}
	}
	return t
}

// walkGroupTiming replays the per-line timing of one directory run. The
// reference flow reserves each line's pipeline occupancy (lookup, plus
// the miss cost on a miss) before handling it; the walk visits only the
// event lines — complex hits, dirty victims and recall victims — in line
// order, and before each one reserves the occupancy of every line since
// the previous event in one go, which is the same cursor arithmetic.
// handle is called for each complex hit; a dirty victim without private
// copies only posts its writeback to DRAM, as evictLLCVictim would.
func (s *SoC) walkGroupTiming(mt *MemTile, lines []mem.LineAddr, run *cache.DirRun, lookup sim.Cycles, t sim.Cycles, meter *Meter, handle func(e *cache.DirEntry, t sim.Cycles) sim.Cycles) sim.Cycles {
	events := run.ComplexMask | run.DirtyMask
	for _, v := range run.Victims {
		events |= 1 << uint(v.Idx)
	}
	if events == 0 {
		// The whole group is plain — the uniform case batching exists
		// for: one reservation covers every line's pipeline occupancy.
		_, t = mt.Port.Acquire(t,
			sim.Cycles(len(lines))*lookup+sim.Cycles(run.Misses)*s.P.LLCMissPerLine)
		return t
	}
	missMask := ^run.HitMask
	next, vi := 0, 0 // next: the first line not yet reserved
	for events != 0 {
		i := bits.TrailingZeros64(events)
		events &= events - 1
		_, t = mt.Port.Acquire(t, s.runOccupancy(missMask, next, i, lookup))
		next = i + 1
		switch bit := uint64(1) << uint(i); {
		case run.ComplexMask&bit != 0:
			t = handle(mt.LLC.EntryAt(run.Ways[i]), t)
		case run.DirtyMask&bit != 0:
			mt.DRAM.Post(t, 1, true)
			meter.add(1)
		default:
			t = s.evictLLCVictim(mt, run.Victims[vi].V, t, meter)
			vi++
		}
	}
	if next < len(lines) {
		if p := s.runOccupancy(missMask, next, len(lines)-1, lookup); p > 0 {
			_, t = mt.Port.Acquire(t, p)
		}
	}
	return t
}

// runOccupancy is the LLC pipeline occupancy of run lines from..to: a
// lookup each, plus the miss cost for each line missMask flags.
func (s *SoC) runOccupancy(missMask uint64, from, to int, lookup sim.Cycles) sim.Cycles {
	span := (uint64(2)<<uint(to) - 1) &^ (uint64(1)<<uint(from) - 1)
	return sim.Cycles(to+1-from)*lookup +
		sim.Cycles(bits.OnesCount64(missMask&span))*s.P.LLCMissPerLine
}

// dmaGroupLLC serves one DMA group through the LLC: the LLCCohDMA and
// CohDMA datapaths. recallOwners selects CohDMA semantics (full hardware
// coherence: private copies are recalled/invalidated); without it the
// bridge is coherent with the LLC only, as in LLCCohDMA, where software
// flushed the private caches beforehand.
func (s *SoC) dmaGroupLLC(mt *MemTile, a *AccTile, start mem.LineAddr, n int64, write, recallOwners bool, at sim.Cycles, meter *Meter) sim.Cycles {
	if s.refCoherence || !groupRunnable(mt.LLC, n) {
		return s.dmaGroupLLCRef(mt, a, start, n, write, recallOwners, at, meter)
	}
	dp := s.dmaPathTo(a.ID, mt.Part)
	var t sim.Cycles
	if write {
		// Data travels with the request.
		t = dp.up.Send(int(n)*mem.LineBytes, at)
	} else {
		t = dp.req.Send(0, at)
	}
	missState := cache.DirClean
	if write {
		missState = cache.DirDirty
	}
	lookup := s.P.LLCLookupCycles
	if recallOwners {
		lookup += s.P.CohDMACheckCycles
	}
	lines := s.groupScratch[:0]
	for i := int64(0); i < n; i++ {
		lines = append(lines, start+mem.LineAddr(i))
	}
	defer func() { s.groupScratch = lines[:0] }()

	run := &s.dirRun
	mt.LLC.AccessOrInsertRun(lines, missState,
		cache.RunUpdate{Kind: cache.RunDMA, Write: write, RecallOwners: recallOwners}, run)

	var fillLines int64
	if !write {
		fillLines = int64(run.Misses)
	}
	t = s.walkGroupTiming(mt, lines, run, lookup, t, meter,
		func(e *cache.DirEntry, t sim.Cycles) sim.Cycles {
			if recallOwners && e.Owner != cache.NoOwner {
				t = s.recallFromOwner(mt, e, write, t, meter)
			}
			if write {
				if recallOwners && e.HasSharers() {
					t = s.invalidateSharers(mt, e, t)
				}
				// The bridge claims the line: any remaining directory state
				// is stale by construction.
				mt.LLC.SetOwner(e, cache.NoOwner)
				mt.LLC.ClearSharers(e)
				e.State = cache.DirDirty
			}
			return t
		})
	if fillLines > 0 {
		t = mt.DRAM.Access(t, fillLines, false)
		meter.add(fillLines)
	}
	if !write {
		t = dp.down.Send(int(n)*mem.LineBytes, t)
	}
	return t
}

// dmaGroupNonCoh serves one DMA group straight from DRAM, bypassing the
// hierarchy entirely (the NonCohDMA datapath).
func (s *SoC) dmaGroupNonCoh(mt *MemTile, a *AccTile, start mem.LineAddr, n int64, write bool, at sim.Cycles, meter *Meter) sim.Cycles {
	return s.dmaRunNonCoh(s.dmaPathTo(a.ID, mt.Part), mt, start, n, write, at, meter)
}

// dmaRunNonCoh is dmaGroupNonCoh with the DMA routes pre-resolved:
// strided and irregular plans issue one single-line run per access, so
// doTransfers hoists the route lookup out of its range loop.
func (s *SoC) dmaRunNonCoh(dp *dmaPath, mt *MemTile, start mem.LineAddr, n int64, write bool, at sim.Cycles, meter *Meter) sim.Cycles {
	if write {
		t := dp.up.Send(int(n)*mem.LineBytes, at)
		t = mt.DRAM.Post(t, n, true)
		meter.add(n)
		return t
	}
	t := dp.req.Send(0, at)
	t = mt.DRAM.Access(t, n, false)
	meter.add(n)
	return dp.down.Send(int(n)*mem.LineBytes, t)
}
