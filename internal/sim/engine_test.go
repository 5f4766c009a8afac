package sim

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"
)

func TestEngineRunsEventsInTimeOrder(t *testing.T) {
	e := NewEngine()
	var order []Cycles
	for _, at := range []Cycles{30, 10, 20, 10, 5} {
		at := at
		e.Schedule(at, func() { order = append(order, at) })
	}
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := []Cycles{5, 10, 10, 20, 30}
	for i, w := range want {
		if order[i] != w {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if e.Now() != 30 {
		t.Fatalf("Now = %d, want 30", e.Now())
	}
}

func TestEngineFIFOAmongSameCycleEvents(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(100, func() { order = append(order, i) })
	}
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("same-cycle events not FIFO: %v", order)
		}
	}
}

func TestSchedulePastClampsToNow(t *testing.T) {
	e := NewEngine()
	ranAt := Cycles(-1)
	e.Schedule(50, func() {
		e.Schedule(10, func() { ranAt = e.Now() }) // in the past
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if ranAt != 50 {
		t.Fatalf("past event ran at %d, want 50", ranAt)
	}
}

func TestEventsScheduledDuringRunExecute(t *testing.T) {
	e := NewEngine()
	depth := 0
	var recurse func()
	recurse = func() {
		depth++
		if depth < 5 {
			e.After(10, recurse)
		}
	}
	e.Schedule(0, recurse)
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if depth != 5 {
		t.Fatalf("depth = %d, want 5", depth)
	}
	if e.Now() != 40 {
		t.Fatalf("Now = %d, want 40", e.Now())
	}
}

func TestRunRejectsReentrantCalls(t *testing.T) {
	e := NewEngine()
	var runErr error
	e.Schedule(10, func() { runErr = e.Run() })
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if runErr == nil {
		t.Fatal("reentrant Run should fail")
	}
}

func TestRunReentrantFromProc(t *testing.T) {
	e := NewEngine()
	var gotErr error
	e.Go("p", func(p *Proc) {
		gotErr = e.Run()
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if gotErr == nil {
		t.Fatal("Run from inside a process should fail")
	}
}

func TestProcDelayAdvancesClock(t *testing.T) {
	e := NewEngine()
	var marks []Cycles
	e.Go("p", func(p *Proc) {
		marks = append(marks, p.Now())
		p.Delay(100)
		marks = append(marks, p.Now())
		p.Delay(50)
		marks = append(marks, p.Now())
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := []Cycles{0, 100, 150}
	for i, w := range want {
		if marks[i] != w {
			t.Fatalf("marks = %v, want %v", marks, want)
		}
	}
}

func TestProcsInterleaveDeterministically(t *testing.T) {
	run := func() []string {
		e := NewEngine()
		var trace []string
		spawn := func(name string, period Cycles) {
			e.Go(name, func(p *Proc) {
				for i := 0; i < 3; i++ {
					p.Delay(period)
					trace = append(trace, name)
				}
			})
		}
		spawn("a", 10)
		spawn("b", 15)
		if err := e.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
		return trace
	}
	first := run()
	for i := 0; i < 10; i++ {
		again := run()
		for j := range first {
			if first[j] != again[j] {
				t.Fatalf("non-deterministic trace: %v vs %v", first, again)
			}
		}
	}
	// a wakes at 10,20,30; b wakes at 15,30,45. At t=30 b's wake event was
	// scheduled (at t=15) before a's (at t=20), so b runs first.
	want := []string{"a", "b", "a", "b", "a", "b"}
	for i, w := range want {
		if first[i] != w {
			t.Fatalf("trace = %v, want %v", first, want)
		}
	}
}

func TestWaitUntilPastReturnsImmediately(t *testing.T) {
	e := NewEngine()
	e.Go("p", func(p *Proc) {
		p.Delay(100)
		p.WaitUntil(50) // already past
		if p.Now() != 100 {
			t.Errorf("Now = %d, want 100", p.Now())
		}
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestSemaphoreMutualExclusion(t *testing.T) {
	e := NewEngine()
	sem := NewSemaphore(e, "device", 1)
	inside := 0
	maxInside := 0
	for i := 0; i < 4; i++ {
		e.Go("worker", func(p *Proc) {
			sem.Acquire(p)
			inside++
			if inside > maxInside {
				maxInside = inside
			}
			p.Delay(10)
			inside--
			sem.Release()
		})
	}
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if maxInside != 1 {
		t.Fatalf("maxInside = %d, want 1", maxInside)
	}
	if e.Now() != 40 {
		t.Fatalf("Now = %d, want 40 (serialized)", e.Now())
	}
}

func TestSemaphoreFIFOOrder(t *testing.T) {
	e := NewEngine()
	sem := NewSemaphore(e, "device", 1)
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		e.Go("w", func(p *Proc) {
			p.Delay(Cycles(i)) // arrive in index order
			sem.Acquire(p)
			order = append(order, i)
			p.Delay(100)
			sem.Release()
		})
	}
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("grant order = %v, want FIFO", order)
		}
	}
}

func TestSemaphoreCounting(t *testing.T) {
	e := NewEngine()
	sem := NewSemaphore(e, "pool", 2)
	var done Cycles
	for i := 0; i < 4; i++ {
		e.Go("w", func(p *Proc) {
			sem.Acquire(p)
			p.Delay(10)
			sem.Release()
			done = p.Now()
		})
	}
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if done != 20 {
		t.Fatalf("finished at %d, want 20 (two waves of two)", done)
	}
}

func TestTryAcquire(t *testing.T) {
	e := NewEngine()
	sem := NewSemaphore(e, "s", 1)
	if !sem.TryAcquire() {
		t.Fatal("first TryAcquire should succeed")
	}
	if sem.TryAcquire() {
		t.Fatal("second TryAcquire should fail")
	}
	sem.Release()
	if !sem.TryAcquire() {
		t.Fatal("TryAcquire after Release should succeed")
	}
}

func TestDeadlockDetection(t *testing.T) {
	e := NewEngine()
	sem := NewSemaphore(e, "never", 0)
	e.Go("stuck", func(p *Proc) { sem.Acquire(p) })
	err := e.Run()
	if err == nil {
		t.Fatal("Run should report deadlock")
	}
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("err = %v, want ErrDeadlock", err)
	}
}

func TestDeadlockErrorListsParkedProcessNames(t *testing.T) {
	e := NewEngine()
	sem := NewSemaphore(e, "never", 0)
	e.Go("alpha", func(p *Proc) { sem.Acquire(p) })
	e.Go("beta", func(p *Proc) { p.Delay(5) }) // finishes fine
	e.Go("gamma", func(p *Proc) { sem.Acquire(p) })
	err := e.Run()
	if err == nil {
		t.Fatal("Run should report deadlock")
	}
	msg := err.Error()
	if !strings.Contains(msg, "alpha") || !strings.Contains(msg, "gamma") {
		t.Fatalf("deadlock error should name alpha and gamma: %q", msg)
	}
	if strings.Contains(msg, "beta") {
		t.Fatalf("deadlock error should not name the finished process: %q", msg)
	}
	if !strings.Contains(msg, "2 process(es)") {
		t.Fatalf("deadlock error should count 2 parked processes: %q", msg)
	}
}

// Regression: a release from an engine event (not a process) must hand
// off to the waiters at the release cycle, in FIFO wait order.
func TestSemaphoreReleaseFromEngineFIFOHandoff(t *testing.T) {
	e := NewEngine()
	sem := NewSemaphore(e, "dev", 0)
	type grant struct {
		id int
		at Cycles
	}
	var grants []grant
	for i := 0; i < 3; i++ {
		i := i
		e.Go("w", func(p *Proc) {
			p.Delay(Cycles(i)) // enqueue in index order
			sem.Acquire(p)
			grants = append(grants, grant{i, p.Now()})
		})
	}
	e.Schedule(50, func() {
		for i := 0; i < 3; i++ {
			sem.Release()
		}
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(grants) != 3 {
		t.Fatalf("grants = %v, want 3", grants)
	}
	for i, g := range grants {
		if g.id != i {
			t.Fatalf("grant order = %v, want FIFO", grants)
		}
		if g.at != 50 {
			t.Fatalf("waiter %d woke at %d, want the release cycle 50", g.id, g.at)
		}
	}
}

// Regression: WaitGroup.Done from an engine event wakes all waiters at
// the completion cycle, in Wait order.
func TestWaitGroupDoneFromEngineFIFOHandoff(t *testing.T) {
	e := NewEngine()
	wg := NewWaitGroup(e)
	wg.Add(1)
	var order []int
	for i := 0; i < 3; i++ {
		i := i
		e.Go("j", func(p *Proc) {
			p.Delay(Cycles(i))
			wg.Wait(p)
			if p.Now() != 40 {
				t.Errorf("waiter %d woke at %d, want 40", i, p.Now())
			}
			order = append(order, i)
		})
	}
	e.Schedule(40, wg.Done)
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := []int{0, 1, 2}
	for i, w := range want {
		if order[i] != w {
			t.Fatalf("wake order = %v, want %v", order, want)
		}
	}
}

// A same-cycle wakeup must not overtake an earlier-scheduled event at
// the same cycle: wakeups and heap events share one (at, seq) order.
func TestWakeupDoesNotOvertakeSameCycleEvents(t *testing.T) {
	e := NewEngine()
	sem := NewSemaphore(e, "s", 0)
	var trace []string
	e.Go("w", func(p *Proc) {
		sem.Acquire(p)
		trace = append(trace, "woken")
	})
	e.Schedule(10, func() {
		sem.Release()                                         // wakeup at (10, seq)
		e.Schedule(10, func() { trace = append(trace, "b") }) // (10, seq+1)
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := []string{"woken", "b"}
	for i, w := range want {
		if i >= len(trace) || trace[i] != w {
			t.Fatalf("trace = %v, want %v", trace, want)
		}
	}
}

func TestEngineReset(t *testing.T) {
	run := func(e *Engine) []Cycles {
		var marks []Cycles
		e.Go("p", func(p *Proc) {
			p.Delay(10)
			marks = append(marks, p.Now())
			p.Delay(20)
			marks = append(marks, p.Now())
		})
		if err := e.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
		return marks
	}
	e := NewEngine()
	first := run(e)
	e.Reset()
	if e.Now() != 0 || e.Pending() != 0 {
		t.Fatalf("Reset left Now=%d Pending=%d", e.Now(), e.Pending())
	}
	second := run(e)
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("reused engine diverged: %v vs %v", first, second)
		}
	}
}

func TestResetPanicsWithLiveProcesses(t *testing.T) {
	e := NewEngine()
	sem := NewSemaphore(e, "never", 0)
	e.Go("stuck", func(p *Proc) { sem.Acquire(p) })
	if err := e.Run(); err == nil {
		t.Fatal("expected deadlock")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Reset with a parked process should panic")
		}
	}()
	e.Reset()
}

// Sequentially completed processes reuse pooled coroutines instead of
// spawning a goroutine each (white-box: inspects the package pool).
func TestCoroutinesAreReused(t *testing.T) {
	drainCoroPool()
	e := NewEngine()
	for round := 0; round < 8; round++ {
		e.Go("p", func(p *Proc) { p.Delay(3) })
		if err := e.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
	}
	coroPool.mu.Lock()
	idle := len(coroPool.free)
	coroPool.mu.Unlock()
	if idle != 1 {
		t.Fatalf("pool holds %d coroutines after 8 sequential processes, want 1 (reused)", idle)
	}
}

// drainCoroPool retires every pooled coroutine so pool-size assertions
// start from a known state.
func drainCoroPool() {
	coroPool.mu.Lock()
	free := coroPool.free
	coroPool.free = nil
	coroPool.mu.Unlock()
	for _, c := range free {
		c.stop()
	}
}

func TestWaitGroupJoins(t *testing.T) {
	e := NewEngine()
	wg := NewWaitGroup(e)
	var joined Cycles
	for _, d := range []Cycles{10, 30, 20} {
		d := d
		wg.Add(1)
		e.Go("w", func(p *Proc) {
			p.Delay(d)
			wg.Done()
		})
	}
	e.Go("joiner", func(p *Proc) {
		wg.Wait(p)
		joined = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if joined != 30 {
		t.Fatalf("joined at %d, want 30", joined)
	}
}

func TestWaitGroupZeroCountReturnsImmediately(t *testing.T) {
	e := NewEngine()
	wg := NewWaitGroup(e)
	ran := false
	e.Go("j", func(p *Proc) {
		wg.Wait(p)
		ran = true
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !ran {
		t.Fatal("waiter did not run")
	}
}

func TestResourceSerializesOverlappingRequests(t *testing.T) {
	r := new(Resource)
	s1, e1 := r.Acquire(0, 10)
	if s1 != 0 || e1 != 10 {
		t.Fatalf("first grant (%d,%d), want (0,10)", s1, e1)
	}
	s2, e2 := r.Acquire(5, 10)
	if s2 != 10 || e2 != 20 {
		t.Fatalf("second grant (%d,%d), want (10,20)", s2, e2)
	}
	s3, e3 := r.Acquire(100, 5)
	if s3 != 100 || e3 != 105 {
		t.Fatalf("idle grant (%d,%d), want (100,105)", s3, e3)
	}
	if r.BusyCycles() != 25 {
		t.Fatalf("busy = %d, want 25", r.BusyCycles())
	}
}

func TestResourceZeroDurationIsOrderingPoint(t *testing.T) {
	r := new(Resource)
	r.Acquire(0, 10)
	s, e := r.Acquire(0, 0)
	if s != 10 || e != 10 {
		t.Fatalf("grant (%d,%d), want (10,10)", s, e)
	}
}

// Property: resource grants never overlap and never start before request.
func TestResourceGrantInvariants(t *testing.T) {
	f := func(reqs []uint16) bool {
		r := new(Resource)
		var lastEnd Cycles
		var at Cycles
		for _, raw := range reqs {
			at += Cycles(raw % 97)
			dur := Cycles(raw % 13)
			s, e := r.Acquire(at, dur)
			if s < at || s < lastEnd || e != s+dur {
				return false
			}
			lastEnd = e
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: the engine clock never goes backwards.
func TestClockMonotonicProperty(t *testing.T) {
	f := func(delays []uint8) bool {
		e := NewEngine()
		ok := true
		last := Cycles(0)
		for _, d := range delays {
			d := Cycles(d)
			e.Schedule(d, func() {
				if e.Now() < last {
					ok = false
				}
				last = e.Now()
			})
		}
		if err := e.Run(); err != nil {
			return false
		}
		return ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRNGDeterministic(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRNG(43)
	same := 0
	a = NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds too similar: %d collisions", same)
	}
}

func TestRNGBounds(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 1000; i++ {
		if v := r.Intn(10); v < 0 || v >= 10 {
			t.Fatalf("Intn out of range: %d", v)
		}
		if v := r.Float64(); v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %g", v)
		}
		if v := r.Int63n(1 << 40); v < 0 || v >= 1<<40 {
			t.Fatalf("Int63n out of range: %d", v)
		}
	}
}

func TestRNGFloat64RoughlyUniform(t *testing.T) {
	r := NewRNG(99)
	var sum float64
	const n = 10000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if mean < 0.45 || mean > 0.55 {
		t.Fatalf("mean = %g, want ≈0.5", mean)
	}
}

func TestRNGSplitIndependence(t *testing.T) {
	r := NewRNG(1)
	s := r.Split()
	if r.Uint64() == s.Uint64() {
		t.Fatal("split stream mirrors parent")
	}
}
