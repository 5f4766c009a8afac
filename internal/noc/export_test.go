package noc

import (
	"fmt"

	"cohmeleon/internal/sim"
)

// Per-call routing: Route, Hops, Transfer and RoundTrip resolve the
// route on every call. The simulator sends every message on a Path; the
// tests keep these as the reference that Path is pinned against.

type step struct {
	from Coord
	dir  int
}

// Route returns the XY dimension-order route from src to dst as the list
// of (coordinate, direction) steps. An empty route means src == dst.
func (m *Mesh) Route(src, dst Coord) []step {
	if !m.InBounds(src) || !m.InBounds(dst) {
		panic(fmt.Sprintf("noc: route %v -> %v out of bounds", src, dst))
	}
	var path []step
	cur := src
	for cur.X != dst.X {
		d := dirEast
		next := Coord{cur.X + 1, cur.Y}
		if dst.X < cur.X {
			d = dirWest
			next = Coord{cur.X - 1, cur.Y}
		}
		path = append(path, step{cur, d})
		cur = next
	}
	for cur.Y != dst.Y {
		d := dirSouth
		next := Coord{cur.X, cur.Y + 1}
		if dst.Y < cur.Y {
			d = dirNorth
			next = Coord{cur.X, cur.Y - 1}
		}
		path = append(path, step{cur, d})
		cur = next
	}
	return path
}

// Hops returns the Manhattan distance between two coordinates.
func Hops(a, b Coord) int {
	return abs(a.X-b.X) + abs(a.Y-b.Y)
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// Transfer sends a message of size bytes from src to dst on the given
// plane, starting no earlier than at, and returns the arrival time of the
// tail flit. The model is wormhole-like: the head advances one cycle per
// hop and the payload reserves serialization time on every link; queueing
// at any congested link delays the tail accordingly.
//
// A zero-hop transfer (src == dst, e.g. an accelerator talking to the
// memory controller in its own tile) costs only serialization.
//
// Transfer resolves the route on every call and walks it by link index.
// Path.Send must apply the identical reservation discipline over
// cursor pointers resolved once; the property tests interleave the two
// on shared links.
func (m *Mesh) Transfer(plane Plane, src, dst Coord, bytes int, at sim.Cycles) sim.Cycles {
	if !m.InBounds(src) || !m.InBounds(dst) {
		panic(fmt.Sprintf("noc: transfer %v -> %v out of bounds", src, dst))
	}
	service := sim.Cycles((bytes+FlitBytes-1)/FlitBytes + HeaderFlits)
	ri := (src.Y*m.width+src.X)*m.width*m.height + dst.Y*m.width + dst.X
	route := m.routeLinks[m.routeOff[ri]:m.routeOff[ri+1]]
	if len(route) == 0 {
		return at + service
	}
	links := m.links[int(plane)*m.linkCount:]
	cur := at
	for _, li := range route {
		start := cur
		if avail := links[li]; avail > start {
			start = avail
		}
		links[li] = start + service
		cur = start + HopCycles
	}
	m.planeBusy[plane] += service * sim.Cycles(len(route))
	return cur + service
}

// RoundTrip models a small request (header-only) to dst followed by a
// response of size bytes back to src; it returns the time the response
// tail arrives. remoteService is extra time spent at the destination
// before the response departs.
func (m *Mesh) RoundTrip(reqPlane, rspPlane Plane, src, dst Coord, bytes int, remoteService, at sim.Cycles) sim.Cycles {
	reqArrive := m.Transfer(reqPlane, src, dst, 0, at)
	return m.Transfer(rspPlane, dst, src, bytes, reqArrive+remoteService)
}
