package sim

// Callback scheduling, queue inspection and counters that only the
// kernel tests use; the simulator itself schedules nothing but process
// wakeups.

// Schedule runs fn at the given absolute time. Scheduling in the past is
// an error in the caller; it is clamped to the current time so that the
// event still runs (in insertion order) rather than corrupting the clock.
func (e *Engine) Schedule(at Cycles, fn func()) {
	e.seq++
	if at <= e.now {
		e.ready = append(e.ready, event{at: e.now, seq: e.seq, fn: fn})
		return
	}
	e.push(event{at: at, seq: e.seq, fn: fn})
}

// After runs fn after delay cycles.
func (e *Engine) After(delay Cycles, fn func()) {
	e.Schedule(e.now+delay, fn)
}

// Pending reports the number of queued events (including same-cycle
// wakeups not yet drained).
func (e *Engine) Pending() int {
	return len(e.queue) + len(e.ready) - e.readyHead
}
