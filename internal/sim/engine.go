// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine advances a virtual clock measured in Cycles and executes
// events in (time, insertion-order) order. Long-running activities are
// written as processes: ordinary functions running on a coroutine that
// parks itself on the engine whenever it waits for virtual time to pass
// or for a semaphore to be granted. Exactly one goroutine (either the
// scheduler or a single process) runs at any instant, so simulations are
// bit-reproducible for a given seed regardless of GOMAXPROCS.
//
// The kernel is a single-owner scheduler built for zero-allocation
// steady-state dispatch:
//
//   - events are plain 32-byte values in a monomorphic, index-based
//     4-ary min-heap (no container/heap, no interface boxing);
//   - process wakeups carry the *Proc directly in the event, so
//     Delay/WaitUntil never allocate a closure;
//   - same-cycle wakeups (semaphore grants, waitgroup releases, process
//     starts) bypass the heap entirely: they are appended to a ready
//     ring that is sorted by construction (the clock is monotonic and
//     sequence numbers strictly increase) and merged with the heap by
//     the same (at, seq) comparator, preserving the exact dispatch
//     order a heap push would have produced;
//   - process bodies run on pooled runtime coroutines (iter.Pull), so a
//     park/resume is a direct coroutine switch that never goes through
//     the Go scheduler, and building thousands of SoCs across an
//     experiment fan-out does not churn goroutines.
package sim

import (
	"fmt"
	"strings"
)

// Cycles is a duration or instant of virtual time, measured in clock
// cycles of the simulated SoC.
type Cycles int64

// event is a scheduled wakeup: either a process resumption (proc != nil)
// or a callback (fn != nil; only the kernel tests schedule callbacks).
// Exactly one of the two is set.
type event struct {
	at   Cycles
	seq  uint64 // tie-break: FIFO among same-cycle events
	proc *Proc
	fn   func()
}

// before orders events by (at, seq). seq is unique, so the order is
// total.
func (a *event) before(b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// Engine is a discrete-event simulation kernel. The zero value is not
// usable; create engines with NewEngine.
type Engine struct {
	now Cycles
	seq uint64
	// queue is a 4-ary min-heap of future events ordered by (at, seq).
	// 4-ary rather than binary: sift-down touches one cache line of
	// children per level and the tree is half as deep.
	queue []event
	// ready holds wakeups at the current cycle, appended in (at, seq)
	// order by construction (at is the clock at append time, which never
	// decreases, and seq strictly increases), so the slice is always
	// sorted and drains FIFO from readyHead.
	ready     []event
	readyHead int
	// live tracks started-but-unfinished processes so deadlock reports
	// can name the parked ones.
	live    []*Proc
	parked  int // processes blocked on semaphores (no pending event)
	running bool
}

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current virtual time.
func (e *Engine) Now() Cycles { return e.now }

// wake enqueues a process resumption at the current cycle on the ready
// ring. The entry consumes a sequence number exactly like a heap push,
// so the merged dispatch order is identical — only cheaper.
func (e *Engine) wake(p *Proc) {
	e.seq++
	e.ready = append(e.ready, event{at: e.now, seq: e.seq, proc: p})
}

// push inserts ev into the 4-ary heap (sift-up with a hole, no swaps).
func (e *Engine) push(ev event) {
	e.queue = append(e.queue, ev)
	q := e.queue
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) >> 2
		if !ev.before(&q[parent]) {
			break
		}
		q[i] = q[parent]
		i = parent
	}
	q[i] = ev
}

// pop removes and returns the heap minimum. The caller guarantees the
// heap is non-empty.
func (e *Engine) pop() event {
	q := e.queue
	top := q[0]
	n := len(q) - 1
	last := q[n]
	q[n] = event{} // release the fn/proc references
	e.queue = q[:n]
	if n > 0 {
		q = q[:n]
		i := 0
		for {
			c := i<<2 + 1
			if c >= n {
				break
			}
			m := c
			end := c + 4
			if end > n {
				end = n
			}
			for j := c + 1; j < end; j++ {
				if q[j].before(&q[m]) {
					m = j
				}
			}
			if !q[m].before(&last) {
				break
			}
			q[i] = q[m]
			i = m
		}
		q[i] = last
	}
	return top
}

// next removes and returns the earliest event, merging the sorted ready
// ring with the heap by (at, seq).
func (e *Engine) next() (event, bool) {
	if e.readyHead < len(e.ready) {
		ev := &e.ready[e.readyHead]
		if len(e.queue) == 0 || ev.before(&e.queue[0]) {
			out := *ev
			*ev = event{} // release the fn/proc references
			e.readyHead++
			if e.readyHead == len(e.ready) {
				e.ready = e.ready[:0]
				e.readyHead = 0
			}
			return out, true
		}
	}
	if len(e.queue) > 0 {
		return e.pop(), true
	}
	return event{}, false
}

// dispatch executes one popped event on the scheduler goroutine.
func (e *Engine) dispatch(ev event) {
	if ev.proc != nil {
		e.resumeProc(ev.proc)
		return
	}
	ev.fn()
}

// Run executes events until the queue is empty. If processes remain
// parked on semaphores when the queue drains, Run returns ErrDeadlock so
// that tests can detect wiring mistakes (a real deadlock would otherwise
// silently truncate the simulation).
func (e *Engine) Run() error {
	if e.running {
		return fmt.Errorf("sim: Run called reentrantly")
	}
	e.running = true
	defer func() { e.running = false }()
	for {
		ev, ok := e.next()
		if !ok {
			break
		}
		if ev.at > e.now {
			e.now = ev.at
		}
		e.dispatch(ev)
	}
	if e.parked > 0 {
		return e.deadlockErr()
	}
	return nil
}

// deadlockErr reports the parked processes by name, in spawn order among
// the still-live set (deterministic for a deterministic simulation).
func (e *Engine) deadlockErr() error {
	var names []string
	for _, p := range e.live {
		if p.state == procBlocked {
			names = append(names, p.name)
		}
	}
	return fmt.Errorf("sim: %w: %d process(es) still waiting: %s",
		ErrDeadlock, e.parked, strings.Join(names, ", "))
}

// Reset returns the engine to its initial state (clock at zero, no
// events) while keeping the event storage, so a harness can reuse one
// kernel across trials instead of growing fresh heaps and rings each
// time. Reset panics if the engine is running or if processes are still
// live: a parked process owns a coroutine stack that cannot be unwound
// safely, so only engines whose last Run completed without deadlock are
// reusable.
func (e *Engine) Reset() {
	if e.running {
		panic("sim: Reset called while running")
	}
	if len(e.live) > 0 {
		panic(fmt.Sprintf("sim: Reset with %d live process(es)", len(e.live)))
	}
	clear(e.queue)
	e.queue = e.queue[:0]
	clear(e.ready)
	e.ready = e.ready[:0]
	e.readyHead = 0
	e.now = 0
	e.seq = 0
	e.parked = 0
}
