package mem

import "cohmeleon/internal/sim"

// Controller models one DRAM controller: a fixed access latency plus a
// data channel with the paper's bandwidth of 32 bits per cycle
// (LineBytes/4 cycles of channel occupancy per line). Each memory tile
// hosts one controller. The controller also implements the paper's
// off-chip access monitor: a counter of line transfers, readable by
// software.
type Controller struct {
	tile    int
	channel *sim.Resource
	latency sim.Cycles
	perLine sim.Cycles
	reads   int64
	writes  int64
}

// NewController creates a controller for the given memory tile.
// latency is the fixed access latency per burst; perLine is the channel
// occupancy per cache line (LineBytes / channel bytes-per-cycle).
func NewController(tile int, latency, perLine sim.Cycles) *Controller {
	if perLine <= 0 {
		panic("mem: controller needs positive per-line occupancy")
	}
	return &Controller{
		tile:    tile,
		channel: new(sim.Resource),
		latency: latency,
		perLine: perLine,
	}
}

// Access performs a burst of the given number of lines starting no
// earlier than at and returns its completion time. The burst pays the
// fixed latency once and occupies the channel for lines×perLine cycles;
// concurrent bursts queue FIFO. The access counter advances by lines.
func (c *Controller) Access(at sim.Cycles, lines int64, write bool) sim.Cycles {
	if lines <= 0 {
		return at
	}
	_, end := c.channel.Acquire(at, sim.Cycles(lines)*c.perLine)
	if write {
		c.writes += lines
	} else {
		c.reads += lines
	}
	return end + c.latency
}

// Post enqueues a posted write (or read for prefetch-like traffic): it
// reserves channel occupancy and counts the access, but returns the
// channel-accept time without the access latency, modelling writes the
// requester does not wait on.
func (c *Controller) Post(at sim.Cycles, lines int64, write bool) sim.Cycles {
	if lines <= 0 {
		return at
	}
	_, end := c.channel.Acquire(at, sim.Cycles(lines)*c.perLine)
	if write {
		c.writes += lines
	} else {
		c.reads += lines
	}
	return end
}

// Total returns the monitor value: total line accesses (reads + writes).
func (c *Controller) Total() int64 { return c.reads + c.writes }

// Reads returns the read-line count.
func (c *Controller) Reads() int64 { return c.reads }

// Writes returns the written-line count.
func (c *Controller) Writes() int64 { return c.writes }

// BusyCycles returns total channel occupancy, for utilization reports.
func (c *Controller) BusyCycles() sim.Cycles { return c.channel.BusyCycles() }
