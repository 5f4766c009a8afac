package sim

import (
	"iter"
	"sync"
)

// A coro is a reusable runtime coroutine that process bodies run on.
//
// Handoff protocol: the coroutine is an iter.Pull over loop, so a switch
// is the runtime's direct coroutine switch — the calling goroutine hands
// its thread straight to the coroutine and back, without waking anything
// through the scheduler. The scheduler resumes the coroutine with next
// and blocks until it parks or finishes; the coroutine hands control
// back with yield. iter.Pull's race annotations carry the happens-before
// edges that make the unsynchronized Proc/coro field accesses race-free.
//
// Coroutines outlive the processes (and engines) they serve: when a body
// returns, loop yields and the coro goes back to a process-wide pool.
// Building thousands of short-lived SoCs across an experiment fan-out
// therefore stops creating goroutines once the pool is warm. A pooled
// coro is resumed from whichever worker goroutine runs its next engine;
// iter.Pull allows that provided next and stop calls never overlap, and
// the single-owner scheduler guarantees they don't: a coro belongs to
// exactly one process at a time, and the pool's mutex orders the hand
// from one owner to the next.
//
// A panic (or runtime.Goexit) in a process body ends the coroutine and
// re-raises out of next on the goroutine that called Engine.Run. Such a
// coro never reaches finishProc, so it is never returned to the pool.
type coro struct {
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool // captured by loop on its first resume
	p     *Proc               // body to run; set by the scheduler before next
}

// coroPool keeps idle coroutines for reuse. A plain mutex-guarded stack
// rather than sync.Pool: pooled coros own suspended goroutines, which
// must be stopped, not dropped silently by a GC cycle.
var coroPool struct {
	mu   sync.Mutex
	free []*coro
}

// maxIdleCoros bounds the goroutines suspended in the pool. Beyond it,
// retiring coroutines are stopped; 256 comfortably covers the peak
// concurrent process count of the experiment fan-out.
const maxIdleCoros = 256

func getCoro() *coro {
	coroPool.mu.Lock()
	if n := len(coroPool.free); n > 0 {
		c := coroPool.free[n-1]
		coroPool.free[n-1] = nil
		coroPool.free = coroPool.free[:n-1]
		coroPool.mu.Unlock()
		return c
	}
	coroPool.mu.Unlock()
	c := &coro{}
	c.next, c.stop = iter.Pull(c.loop)
	return c
}

func putCoro(c *coro) {
	coroPool.mu.Lock()
	if len(coroPool.free) < maxIdleCoros {
		coroPool.free = append(coroPool.free, c)
		coroPool.mu.Unlock()
		return
	}
	coroPool.mu.Unlock()
	c.stop()
}

// loop runs process bodies handed over by schedulers until stopped: each
// yield after a body returns suspends the coroutine in the pool, and the
// next resume (true) starts the following body.
func (c *coro) loop(yield func(struct{}) bool) {
	c.yield = yield
	for {
		p := c.p
		p.fn(p)
		p.fn = nil
		p.state = procDone
		c.p = nil
		if !yield(struct{}{}) {
			return
		}
	}
}
