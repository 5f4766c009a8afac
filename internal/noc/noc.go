// Package noc models the ESP-style 2D-mesh network-on-chip: a W×H grid
// of routers with one cycle of latency between neighbours, six 32-bit
// physical planes, and XY dimension-order routing. Messages are modelled
// at transaction granularity: a transfer reserves bandwidth on every
// directed link along its path and accumulates head latency, so hotspot
// congestion near memory tiles emerges from overlapping reservations.
package noc

import (
	"fmt"

	"cohmeleon/internal/sim"
)

// Plane identifies one of the six physical NoC planes. ESP dedicates
// separate planes to coherence requests, responses, and forwards (to
// avoid protocol deadlock) and to DMA request/data traffic; the sixth
// carries interrupts and register accesses.
type Plane int

// The six planes, named by the traffic class they carry.
const (
	PlaneCohReq  Plane = iota // coherence requests (GetS/GetM/PutM headers)
	PlaneCohRsp               // coherence responses (data to/from caches)
	PlaneCohFwd               // forwards: recalls and invalidations
	PlaneDMAReq               // DMA request headers
	PlaneDMAData              // DMA data payloads
	PlaneMisc                 // interrupts, configuration, monitors
	NumPlanes
)

// String returns the conventional ESP plane name.
func (p Plane) String() string {
	switch p {
	case PlaneCohReq:
		return "coh-req"
	case PlaneCohRsp:
		return "coh-rsp"
	case PlaneCohFwd:
		return "coh-fwd"
	case PlaneDMAReq:
		return "dma-req"
	case PlaneDMAData:
		return "dma-data"
	case PlaneMisc:
		return "misc"
	default:
		return fmt.Sprintf("plane(%d)", int(p))
	}
}

// FlitBytes is the width of every NoC plane: 32 bits, per the paper.
const FlitBytes = 4

// HopCycles is the router-to-router latency: one cycle, per the paper.
const HopCycles = 1

// HeaderFlits is the per-message header overhead in flits.
const HeaderFlits = 1

// Coord is a tile position on the mesh.
type Coord struct{ X, Y int }

// Mesh is the NoC fabric. It owns one FIFO link server per directed link
// per plane. Tiles are addressed by their mesh coordinate.
//
// A link's entire hot state is its availability cursor, so links are
// stored as bare sim.Cycles values — eight per hardware cache line — in
// one flat array indexed by (plane, linkIndex). Per-link busy accounting
// is folded into a per-plane total: reports only ever read the plane
// sum, and a transfer reserves the same service time on every link of
// its route, so one multiply per message replaces a store per hop.
type Mesh struct {
	width, height int
	// links[plane*linkCount + linkIndex] is the availableAt cursor of a
	// directed link; linkIndex encodes (from, direction).
	links     []sim.Cycles
	linkCount int
	// Flattened XY routes, precomputed at construction: the link indices
	// of route src->dst are routeLinks[routeOff[ri]:routeOff[ri+1]] with
	// ri = srcTile*tiles + dstTile. Offsets into one backing array keep
	// the lookup tables dense (4 bytes per entry instead of a 24-byte
	// slice header per pair); NewPath resolves a route once per tile
	// pair.
	routeOff   []int32
	routeLinks []int32
	// planeBusy accumulates the total reserved service time per plane.
	planeBusy [NumPlanes]sim.Cycles
}

// direction indices for the four mesh neighbours.
const (
	dirEast = iota
	dirWest
	dirNorth
	dirSouth
	numDirs
)

// NewMesh builds a width×height mesh with all links idle.
func NewMesh(width, height int) *Mesh {
	if width <= 0 || height <= 0 {
		panic("noc: mesh dimensions must be positive")
	}
	m := &Mesh{width: width, height: height}
	m.linkCount = width * height * numDirs
	m.links = make([]sim.Cycles, int(NumPlanes)*m.linkCount)
	m.buildRoutes()
	return m
}

// buildRoutes precomputes the XY route of every (src, dst) tile pair as
// a list of link indices in one backing array, addressed by offsets.
func (m *Mesh) buildRoutes() {
	tiles := m.width * m.height
	m.routeOff = make([]int32, tiles*tiles+1)
	var backing []int32
	ri := 0
	for sy := 0; sy < m.height; sy++ {
		for sx := 0; sx < m.width; sx++ {
			for dy := 0; dy < m.height; dy++ {
				for dx := 0; dx < m.width; dx++ {
					x, y := sx, sy
					for x < dx {
						backing = append(backing, int32(m.linkIndex(Coord{x, y}, dirEast)))
						x++
					}
					for x > dx {
						backing = append(backing, int32(m.linkIndex(Coord{x, y}, dirWest)))
						x--
					}
					for y < dy {
						backing = append(backing, int32(m.linkIndex(Coord{x, y}, dirSouth)))
						y++
					}
					for y > dy {
						backing = append(backing, int32(m.linkIndex(Coord{x, y}, dirNorth)))
						y--
					}
					ri++
					m.routeOff[ri] = int32(len(backing))
				}
			}
		}
	}
	m.routeLinks = backing
}

// InBounds reports whether c lies on the mesh.
func (m *Mesh) InBounds(c Coord) bool {
	return c.X >= 0 && c.X < m.width && c.Y >= 0 && c.Y < m.height
}

// linkIndex returns the resource index for the link leaving from in the
// given direction.
func (m *Mesh) linkIndex(from Coord, dir int) int {
	return (from.Y*m.width+from.X)*numDirs + dir
}

// Path is a precomputed unidirectional route on one plane: the way to
// send messages between a pair of tiles (an agent and its home LLC
// slice, an accelerator and a memory controller). Construction resolves
// every hop down to a pointer at its link's availability cursor, so the
// Send walk carries no route lookup, index arithmetic or bounds checks —
// it is the single hottest loop of the simulator.
type Path struct {
	route []*sim.Cycles // link cursors of the XY route (empty: src == dst)
	busy  *sim.Cycles   // the plane's busy total
}

// NewPath resolves the XY route from src to dst on the given plane. It
// allocates the pointer route; callers cache Paths (the SoC resolves all
// of its (agent, memory-tile) pairs once at build).
func (m *Mesh) NewPath(plane Plane, src, dst Coord) Path {
	if !m.InBounds(src) || !m.InBounds(dst) {
		panic(fmt.Sprintf("noc: path %v -> %v out of bounds", src, dst))
	}
	ri := (src.Y*m.width+src.X)*m.width*m.height + dst.Y*m.width + dst.X
	base := int(plane) * m.linkCount
	links := m.links[base : base+m.linkCount]
	idx := m.routeLinks[m.routeOff[ri]:m.routeOff[ri+1]]
	route := make([]*sim.Cycles, len(idx))
	for i, li := range idx {
		route[i] = &links[li]
	}
	return Path{route: route, busy: &m.planeBusy[plane]}
}

// Send transmits a message of size bytes along the path, starting no
// earlier than at, and returns the arrival time of the tail flit. The
// model is wormhole-like: the head advances one cycle per hop and the
// payload reserves serialization time on every link; queueing at any
// congested link delays the tail accordingly. A zero-hop path (src ==
// dst, e.g. an accelerator talking to the memory controller in its own
// tile) costs only serialization.
func (p *Path) Send(bytes int, at sim.Cycles) sim.Cycles {
	service := sim.Cycles((bytes+FlitBytes-1)/FlitBytes + HeaderFlits)
	route := p.route
	if len(route) == 0 {
		return at + service
	}
	cur := at
	for _, lp := range route {
		// Head moves one hop per cycle; the payload reserves service time
		// on every link along the precomputed XY route.
		start := cur
		if avail := *lp; avail > start {
			start = avail
		}
		*lp = start + service
		cur = start + HopCycles
	}
	*p.busy += service * sim.Cycles(len(route))
	// The tail leaves the last link at start+service and arrives one hop
	// later; with cur = start + HopCycles that is exactly cur + service.
	return cur + service
}

// LinkBusy returns the total busy cycles summed over all links of a
// plane, for utilization reporting.
func (m *Mesh) LinkBusy(plane Plane) sim.Cycles {
	return m.planeBusy[plane]
}
