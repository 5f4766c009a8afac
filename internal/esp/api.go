package esp

import (
	"fmt"

	"cohmeleon/internal/mem"
	"cohmeleon/internal/sim"
	"cohmeleon/internal/soc"
)

// System binds a simulated SoC to a coherence policy and exposes the
// ESP-style invocation API. One System serves all software threads of
// one simulation run.
type System struct {
	SoC     *soc.SoC
	Policy  Policy
	Tracker *Tracker

	// Invocations counts completed invocations (for reports).
	Invocations int64
}

// NewSystem wires a policy into the SoC's software stack.
func NewSystem(s *soc.SoC, p Policy) *System {
	return &System{SoC: s, Policy: p, Tracker: NewTracker(s)}
}

// Invoke performs one complete accelerator invocation from a software
// thread: sense → decide → actuate (driver configuration, TLB load and
// any required flushes) → run → evaluate, then reports the result to the
// policy. The calling process must hold a CPU-pool permit (cpu); the
// permit is released while the thread sleeps on the accelerator and
// reacquired for completion handling, so other threads can run.
//
// The returned Result covers the whole window, as the paper measures it.
func (sys *System) Invoke(p *sim.Proc, a *soc.AccTile, buf *mem.Buffer, cpu *sim.Semaphore, rng *sim.RNG) *Result {
	return sys.invoke(p, a, buf, cpu, rng, sys.Policy)
}

// InvokeWithMode bypasses the policy and forces a mode: the motivation
// experiments (Figures 2 and 3) sweep modes explicitly. Concurrent
// Invoke callers are unaffected.
func (sys *System) InvokeWithMode(p *sim.Proc, a *soc.AccTile, buf *mem.Buffer, mode soc.Mode, cpu *sim.Semaphore, rng *sim.RNG) *Result {
	return sys.invoke(p, a, buf, cpu, rng, &forcedPolicy{mode: mode})
}

func (sys *System) invoke(p *sim.Proc, a *soc.AccTile, buf *mem.Buffer, cpu *sim.Semaphore, rng *sim.RNG, pol Policy) *Result {
	s := sys.SoC
	start := p.Now()

	// Sense + decide, on the CPU. Fine-grain policies decide over the
	// full action space; everyone else picks a single mode.
	ctx := sys.Tracker.Sense(a, buf)
	var action soc.Action
	if ap, ok := pol.(ActionPolicy); ok {
		action = ap.DecideAction(ctx)
	} else {
		action = soc.ModeAction(pol.Decide(ctx))
	}
	mode, cold := action.Hot(), action.Cold() // equal for a uniform action
	if !ctx.Allows(mode) || !ctx.Allows(cold) {
		panic(fmt.Sprintf("esp: policy %s chose unavailable action %v for %s",
			pol.Name(), action, a.InstName))
	}
	p.Delay(s.P.DriverCycles + pol.OverheadCycles())
	// Load the accelerator TLB with the dataset's big-page table.
	p.Delay(sim.Cycles(buf.Pages()) * s.P.TLBPerPageCycles)

	// The invocation is visible to other deciders from this point.
	sys.Tracker.Add(a, mode, buf)

	// Both monitor snapshots live in one allocation; each concurrent
	// invocation needs its own pair (the thread yields between them).
	parts := len(s.Mem)
	snaps := make([]int64, 2*parts)
	ddrBefore := s.DDRTotalsInto(snaps[:parts])
	meter := &soc.Meter{}
	// Flush obligations come from the active protocol's rules; a split
	// invocation owes the union of its two regions' obligations (the
	// flush ranges over the whole buffer, conservatively).
	if s.NeedsPrivateFlush(mode) || s.NeedsPrivateFlush(cold) {
		p.WaitUntil(s.FlushPrivateRange(buf, p.Now(), meter))
	}
	if s.NeedsLLCFlush(mode) || s.NeedsLLCFlush(cold) {
		p.WaitUntil(s.FlushLLCRange(buf, p.Now(), meter))
	}

	// The thread sleeps while the accelerator runs; the CPU is free.
	cpu.Release()
	stats := s.RunAcceleratorSplit(p, a, buf, mode, cold, rng)
	cpu.Acquire(p)
	p.Delay(s.P.IRQCycles)

	// Evaluate from the hardware monitors while still listed active, so
	// attribution sees the same concurrency the run did.
	deltas := s.DDRTotalsInto(snaps[parts:])
	for i := range deltas {
		deltas[i] -= ddrBefore[i]
	}
	approx := sys.Tracker.AttributeDDR(a, buf, deltas)
	sys.Tracker.Remove(a)

	res := &Result{
		Acc:            a,
		Mode:           mode,
		Action:         action,
		FootprintBytes: buf.Bytes,
		ExecCycles:     p.Now() - start,
		ActiveCycles:   stats.Active(),
		CommCycles:     stats.CommCycles,
		OffChipApprox:  approx,
		OffChipTrue:    stats.OffChip + meter.OffChip,
	}
	sys.Invocations++
	pol.Observe(res)
	return res
}

// forcedPolicy always returns one mode (clamped to availability).
type forcedPolicy struct{ mode soc.Mode }

func (f *forcedPolicy) Name() string                 { return "forced-" + f.mode.String() }
func (f *forcedPolicy) Decide(ctx *Context) soc.Mode { return ctx.Clamp(f.mode) }
func (f *forcedPolicy) Observe(*Result)              {}
func (f *forcedPolicy) OverheadCycles() sim.Cycles   { return 0 }
