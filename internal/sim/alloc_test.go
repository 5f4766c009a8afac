//go:build !race

package sim

// Zero-allocation guards for the kernel's steady-state paths. Race
// builds instrument every access and synchronization point (the
// coroutine switch included) and do not promise the allocation counts
// of a normal build, so these run only in non-race builds (CI runs them
// as a dedicated step).

import "testing"

// Steady-state event dispatch (schedule + run) must not allocate: the
// heap and ready ring are value slices whose capacity survives, and
// dispatch neither boxes events nor builds closures.
func TestZeroAllocEventDispatch(t *testing.T) {
	e := NewEngine()
	fn := func() {}
	for i := 0; i < 512; i++ { // warm the heap capacity
		e.Schedule(Cycles(i), fn)
	}
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	got := testing.AllocsPerRun(100, func() {
		base := e.Now()
		for i := 0; i < 64; i++ {
			e.Schedule(base+Cycles(i%7), fn)
		}
		if err := e.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
	})
	if got != 0 {
		t.Fatalf("event dispatch allocates %.1f per 64-event batch, want 0", got)
	}
}

// A park/resume pair via Delay must not allocate: the wakeup is an
// intrusive heap event and the coroutine switch is a direct runtime
// handoff with no per-switch state.
func TestZeroAllocProcSwitch(t *testing.T) {
	e := NewEngine()
	var got float64
	e.Go("p", func(p *Proc) {
		p.Delay(10) // warm
		got = testing.AllocsPerRun(100, func() { p.Delay(1) })
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got != 0 {
		t.Fatalf("Delay park/resume allocates %.1f, want 0", got)
	}
}

// A semaphore handoff cycle (release + block) must not allocate: waiters
// wake through the ready ring, not a scheduled closure.
func TestZeroAllocSemaphoreHandoff(t *testing.T) {
	e := NewEngine()
	ping := NewSemaphore(e, "ping", 0)
	pong := NewSemaphore(e, "pong", 0)
	e.Go("echo", func(p *Proc) {
		for {
			ping.Acquire(p)
			pong.Release()
		}
	})
	var got float64
	e.Go("meter", func(p *Proc) {
		ping.Release()
		pong.Acquire(p) // warm both wait queues
		got = testing.AllocsPerRun(100, func() {
			ping.Release()
			pong.Acquire(p)
		})
	})
	// The echo process blocks forever once the meter finishes: the run
	// ends in a deliberate deadlock.
	if err := e.Run(); err == nil {
		t.Fatal("expected the echo process to deadlock at the end")
	}
	if got != 0 {
		t.Fatalf("semaphore handoff allocates %.1f, want 0", got)
	}
}
