package sim

// Resource models a single non-preemptive FIFO server on the virtual
// timeline: a NoC link, an LLC slice port, a DRAM channel. Callers
// reserve service time with Acquire and receive the (start, end) window;
// queueing delay emerges when reservations overlap. Because reservations
// are granted in call order and the engine executes events in time order,
// the FIFO discipline matches arrival order at transaction granularity.
//
// Resource performs no event scheduling itself, which keeps per-line
// cache and link operations allocation-free and O(1). The zero value is
// an idle resource.
type Resource struct {
	availableAt Cycles
	busy        Cycles // total busy cycles, for utilization stats
}

// Acquire reserves dur cycles of service starting no earlier than at.
// It returns the service window. dur may be zero (a pure ordering point).
func (r *Resource) Acquire(at, dur Cycles) (start, end Cycles) {
	start = at
	if r.availableAt > start {
		start = r.availableAt
	}
	end = start + dur
	r.availableAt = end
	r.busy += dur
	return start, end
}

// BusyCycles reports the total reserved service time.
func (r *Resource) BusyCycles() Cycles { return r.busy }
