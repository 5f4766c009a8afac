package soc

import (
	"cohmeleon/internal/cache"
	"cohmeleon/internal/mem"
	"cohmeleon/internal/sim"
)

// Per-line reference implementations of the group flows. These are the
// naive loops the run-batched flows in coherence.go are defined
// against: state transitions, event counts and the timing cursor are
// specified here, line by line, and the batched flows must reproduce
// them bit-identically (the coherence property tests drive both sides
// over random traffic and compare cycles, meters and end states).
//
// They are not test-only code: the batched flows fall back here when a
// group violates the run preconditions — more lines than LLC sets (so
// two lines of one group could collide in a set) or than the 64-bit
// outcome masks — which degenerate random geometries can produce.

// cachedGroupAccessRef is the per-line reference for cachedGroupAccess.
func (s *SoC) cachedGroupAccessRef(agentID int, start mem.LineAddr, n int64, write bool, at sim.Cycles, meter *Meter) sim.Cycles {
	ag := &s.agents[agentID]
	t := at
	// Private-cache lookup occupancy for the whole group.
	_, t = ag.port.Acquire(t, sim.Cycles(n)*s.P.L2HitCycles)

	// Classify each line; collect the ones needing LLC service. The
	// scratch buffer is safe to share: exactly one simulation goroutine
	// runs at a time and this function never yields.
	misses := s.missScratch[:0]
	defer func() { s.missScratch = misses[:0] }()
	for i := int64(0); i < n; i++ {
		line := start + mem.LineAddr(i)
		st, hit := ag.cache.AccessUpgrade(line, write)
		if hit && (!write || st == cache.Modified || st == cache.Exclusive) {
			continue
		}
		// Miss, or write hit in Shared (needs ownership upgrade).
		misses = append(misses, line)
	}
	if len(misses) == 0 {
		return t
	}
	mt := s.homeTile(start)
	cp := s.cohPathTo(agentID, mt.Part)
	// One request header per group.
	t = cp.req.Send(0, t)

	var fillLines int64 // lines read from DRAM
	for _, line := range misses {
		_, t = mt.Port.Acquire(t, s.P.LLCLookupCycles)
		e, v, hit := mt.LLC.AccessOrInsert(line, cache.DirClean)
		if !hit {
			if !write {
				fillLines++
			}
			_, t = mt.Port.Acquire(t, s.P.LLCMissPerLine)
			t = s.evictLLCVictim(mt, v, t, meter)
		} else {
			if e.Owner != cache.NoOwner && e.Owner != agentID {
				t = s.recallFromOwner(mt, e, write, t, meter)
			}
			if write && e.HasSharers() {
				t = s.invalidateSharers(mt, e, t)
			}
		}
		if write {
			mt.LLC.SetOwner(e, agentID)
			mt.LLC.ClearSharers(e)
		} else if s.rules.ExclusiveGrant && e.Owner == cache.NoOwner && !e.HasSharers() {
			mt.LLC.SetOwner(e, agentID) // exclusive grant
		} else {
			if e.Owner == agentID {
				// Re-fetch after silent eviction: keep ownership.
			} else {
				mt.LLC.AddSharer(e, agentID)
			}
		}
	}
	if fillLines > 0 {
		// DRAM fills pay the burst latency once per group (MSHR overlap).
		t = mt.DRAM.Access(t, fillLines, false)
		meter.add(fillLines)
	}
	// Data response for the whole group.
	t = cp.rsp.Send(len(misses)*mem.LineBytes, t)
	// Fill the private cache; dirty victims write back (posted).
	for _, line := range misses {
		st := cache.Exclusive
		if write {
			st = cache.Modified
		} else if e := mt.LLC.Probe(line); e != nil && (e.HasSharers() || e.Owner != agentID) {
			st = cache.Shared
		}
		v := ag.cache.Insert(line, st, -1)
		if v.Valid {
			s.handleL2Victim(agentID, v, t, meter)
		}
	}
	return t
}

// handleL2Victim disposes of a line displaced from a private cache:
// dirty victims write back to their home LLC (posted); clean victims
// evict silently, leaving the directory to be lazily cleaned up. Both
// find the LLC entry through the victim's way hint, which the batched
// flows record and the reference flows leave at -1.
func (s *SoC) handleL2Victim(agentID int, v cache.Victim, t sim.Cycles, meter *Meter) {
	if v.State.Dirty() {
		s.writebackToLLC(agentID, v.Line, v.LLCWay, t, meter)
		return
	}
	// Silent clean eviction: directory state goes stale; recalls to
	// absent lines are tolerated.
	llc := s.homeTile(v.Line).LLC
	if e := llc.ProbeAt(v.LLCWay, v.Line); e != nil {
		if e.Owner == agentID {
			llc.SetOwner(e, cache.NoOwner)
		}
		llc.RemoveSharer(e, agentID)
	}
}

// dmaGroupLLCRef is the per-line reference for dmaGroupLLC.
func (s *SoC) dmaGroupLLCRef(mt *MemTile, a *AccTile, start mem.LineAddr, n int64, write, recallOwners bool, at sim.Cycles, meter *Meter) sim.Cycles {
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
	var fillLines int64
	for i := int64(0); i < n; i++ {
		line := start + mem.LineAddr(i)
		_, t = mt.Port.Acquire(t, lookup)
		e, v, hit := mt.LLC.AccessOrInsert(line, missState)
		if !hit {
			if !write {
				fillLines++
			}
			_, t = mt.Port.Acquire(t, s.P.LLCMissPerLine)
			t = s.evictLLCVictim(mt, v, t, meter)
			continue
		}
		if recallOwners && e.Owner != cache.NoOwner {
			t = s.recallFromOwner(mt, e, write, t, meter)
		}
		if write {
			if recallOwners && e.HasSharers() {
				t = s.invalidateSharers(mt, e, t)
			}
			// The bridge claims the line: any remaining directory state is
			// stale by construction (LLCCohDMA ran after a private flush).
			mt.LLC.SetOwner(e, cache.NoOwner)
			mt.LLC.ClearSharers(e)
			e.State = cache.DirDirty
		}
	}
	if fillLines > 0 {
		t = mt.DRAM.Access(t, fillLines, false)
		meter.add(fillLines)
	}
	if !write {
		t = dp.down.Send(int(n)*mem.LineBytes, t)
	}
	return t
}
