package sim

import (
	"errors"
	"fmt"
)

// ErrDeadlock is reported by Engine.Run when the event queue drains while
// processes are still parked on semaphores.
var ErrDeadlock = errors.New("deadlock")

// Process states. A process always transitions on a well-defined side of
// a coroutine handoff, so the field needs no synchronization beyond the
// handoff's happens-before edges.
const (
	procNew     = uint8(iota) // spawned; start wakeup pending on the ready ring
	procRunning               // executing on its coroutine right now
	procTimer                 // parked with a wakeup event in the heap
	procBlocked               // parked on a semaphore/waitgroup (no pending event)
	procDone                  // body returned
)

// Proc is a simulated process: a coroutine that alternates with the
// scheduler, running only between its Wait calls. A Proc must only be
// used from the goroutine it was started on.
type Proc struct {
	eng     *Engine
	name    string
	c       *coro
	fn      func(p *Proc)
	state   uint8
	liveIdx int // position in eng.live, for O(1) removal
}

// Go spawns fn as a new process. fn starts executing at the current
// virtual time (via an immediate wakeup) and may call the blocking
// methods of its Proc. Go may be called from the engine (inside events)
// or from another process. The body runs on a pooled coroutine; no
// goroutine or channel is created on the steady-state path.
func (e *Engine) Go(name string, fn func(p *Proc)) *Proc {
	p := &Proc{eng: e, name: name, fn: fn, state: procNew, liveIdx: len(e.live)}
	e.live = append(e.live, p)
	e.wake(p)
	return p
}

// resumeProc switches to the process's coroutine and returns when the
// process parks or finishes. Runs only on the scheduler goroutine. A
// panic in the body re-raises out of c.next here, skipping finishProc,
// so the dead coroutine never returns to the pool.
func (e *Engine) resumeProc(p *Proc) {
	c := p.c
	if p.state == procNew {
		c = getCoro()
		p.c = c
		c.p = p
	}
	p.state = procRunning
	c.next()
	if p.state == procDone {
		e.finishProc(p)
	}
}

// finishProc retires a completed process: drops it from the live set and
// returns its coroutine to the pool.
func (e *Engine) finishProc(p *Proc) {
	last := len(e.live) - 1
	moved := e.live[last]
	e.live[p.liveIdx] = moved
	moved.liveIdx = p.liveIdx
	e.live[last] = nil
	e.live = e.live[:last]
	putCoro(p.c)
	p.c = nil
}

// park suspends the process until the scheduler resumes it; state
// records why (timer or blocked) for deadlock diagnostics. Runs only on
// the process's coroutine: yield switches back to the goroutine blocked
// in resumeProc and returns on the next resume. Only idle pooled
// coroutines are ever stopped, so yield's result is always true here.
func (p *Proc) park(state uint8) {
	p.state = state
	p.c.yield(struct{}{})
}

// Name returns the process name (for diagnostics).
func (p *Proc) Name() string { return p.name }

// Now returns the current virtual time.
func (p *Proc) Now() Cycles { return p.eng.now }

// WaitUntil blocks the process until the given absolute virtual time.
// Times in the past return immediately. The wakeup is an intrusive heap
// event carrying the process itself — no closure, no allocation.
func (p *Proc) WaitUntil(t Cycles) {
	e := p.eng
	if t <= e.now {
		return
	}
	e.seq++
	e.push(event{at: t, seq: e.seq, proc: p})
	p.park(procTimer)
}

// Delay blocks the process for d cycles.
func (p *Proc) Delay(d Cycles) { p.WaitUntil(p.eng.now + d) }

// Semaphore is a counting semaphore with a FIFO wait queue, usable by
// processes to model exclusive devices, thread joins, and completion
// signals. The zero value is invalid; use NewSemaphore.
type Semaphore struct {
	eng     *Engine
	name    string
	permits int
	waiters []*Proc
}

// NewSemaphore returns a semaphore holding the given number of permits.
func NewSemaphore(e *Engine, name string, permits int) *Semaphore {
	if permits < 0 {
		panic(fmt.Sprintf("sim: semaphore %q with negative permits", name))
	}
	return &Semaphore{eng: e, name: name, permits: permits}
}

// Acquire takes one permit, blocking the process in FIFO order until one
// is available.
func (s *Semaphore) Acquire(p *Proc) {
	if s.permits > 0 && len(s.waiters) == 0 {
		s.permits--
		return
	}
	s.waiters = append(s.waiters, p)
	s.eng.parked++
	p.park(procBlocked)
}

// TryAcquire takes a permit if one is immediately available.
func (s *Semaphore) TryAcquire() bool {
	if s.permits > 0 && len(s.waiters) == 0 {
		s.permits--
		return true
	}
	return false
}

// Release returns one permit, waking the longest-waiting process if any.
// It may be called from events or processes. The permit is handed off
// directly: the waiter joins the scheduler's ready ring at the current
// cycle (FIFO among same-cycle wakeups) with no closure or heap traffic.
func (s *Semaphore) Release() {
	if len(s.waiters) > 0 {
		w := s.waiters[0]
		n := copy(s.waiters, s.waiters[1:])
		s.waiters[n] = nil
		s.waiters = s.waiters[:n]
		s.eng.parked--
		s.eng.wake(w)
		return
	}
	s.permits++
}

// WaitGroup counts outstanding activities; Wait blocks a process until
// the count returns to zero. Unlike sync.WaitGroup it is tied to virtual
// time and FIFO-fair.
type WaitGroup struct {
	eng     *Engine
	count   int
	waiters []*Proc
}

// NewWaitGroup returns an empty wait group.
func NewWaitGroup(e *Engine) *WaitGroup { return &WaitGroup{eng: e} }

// Add increments the counter by n (n may be negative via Done only).
func (wg *WaitGroup) Add(n int) {
	if n < 0 {
		panic("sim: WaitGroup.Add with negative delta")
	}
	wg.count += n
}

// Done decrements the counter, waking waiters when it reaches zero.
// Waiters are handed to the scheduler's ready ring directly, in Wait
// order, without scheduling a closure per waiter.
func (wg *WaitGroup) Done() {
	wg.count--
	if wg.count < 0 {
		panic("sim: WaitGroup counter below zero")
	}
	if wg.count == 0 && len(wg.waiters) > 0 {
		for i, w := range wg.waiters {
			wg.eng.parked--
			wg.eng.wake(w)
			wg.waiters[i] = nil
		}
		wg.waiters = wg.waiters[:0]
	}
}

// Wait blocks the process until the counter is zero.
func (wg *WaitGroup) Wait(p *Proc) {
	if wg.count == 0 {
		return
	}
	wg.waiters = append(wg.waiters, p)
	wg.eng.parked++
	p.park(procBlocked)
}
