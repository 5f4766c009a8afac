package cache

import (
	"fmt"
	"math/bits"
)

// maxAssoc is the widest set a recency word can order: one 4-bit way
// index per rank in a 64-bit word.
const maxAssoc = 16

const (
	nibbleOnes = 0x1111_1111_1111_1111
	nibbleHigh = 0x8888_8888_8888_8888
)

// recency is the LRU replacement state of one set: the set's ways in
// recency order, one 4-bit way index per rank with rank 0 the most
// recently used, plus a bitmask of the valid ways. Ranks at or beyond
// the associativity hold 0xF, which names no way of a narrower set, so
// the find in touch never matches them.
//
// It is exact LRU: every touch moves its way to rank 0, so the valid
// ways' order is their order of last touch, and invalidation (drop)
// leaves the order alone. The victim is the lowest-indexed invalid way
// when one exists, else the way at the last rank.
type recency struct {
	order uint64
	valid uint16
}

// newRecency returns the state of an empty set of assoc ways, ranked
// in way order.
func newRecency(assoc int) recency {
	order := ^uint64(0)
	for w := assoc - 1; w >= 0; w-- {
		order = order<<4 | uint64(w)
	}
	return recency{order: order}
}

// touch makes way w the most recently used. It finds w's field with a
// SWAR zero-nibble search (the lowest flagged nibble is exact, since
// borrows only propagate upward) and shifts the more recent fields
// down one rank.
func (r *recency) touch(w int) {
	x := r.order ^ uint64(w)*nibbleOnes
	z := (x - nibbleOnes) &^ x & nibbleHigh
	through := uint64(2)<<uint(bits.TrailingZeros64(z)) - 1 // ranks 0..rank(w)
	r.order = r.order&^through | (r.order&(through>>4))<<4 | uint64(w)
}

// replace picks the way a fill of this set of assoc ways replaces — the
// lowest-indexed invalid way when one exists, else the way at the last
// rank — marks it valid and most recently used, and returns it. A fill
// of a full set is a one-rank rotation of the order: the victim moves
// from the last rank to rank 0, and no find is needed.
func (r *recency) replace(assoc int) int {
	if w := bits.TrailingZeros16(^r.valid); w < assoc {
		r.valid |= 1 << uint(w)
		r.touch(w)
		return w
	}
	last := 4 * uint(assoc-1)
	w := r.order >> last & 0xF
	ranks := uint64(1)<<(last+4) - 1 // ranks 0..assoc-1 (all ones at 16 ways)
	r.order = r.order&^ranks | r.order<<4&ranks | w
	return int(w)
}

// drop marks way w invalid, leaving the recency order unchanged.
func (r *recency) drop(w int) { r.valid &^= 1 << uint(w) }

// check reports whether the order is a permutation of the ways of a
// set of assoc ways, with 0xF at every rank beyond them.
func (r *recency) check(assoc int) error {
	var seen uint16
	for rank := 0; rank < maxAssoc; rank++ {
		w := int(r.order>>(4*uint(rank))) & 0xF
		switch {
		case rank >= assoc:
			if w != 0xF {
				return fmt.Errorf("recency order %016x: rank %d beyond %d ways holds %d", r.order, rank, assoc, w)
			}
		case w >= assoc || seen&(1<<uint(w)) != 0:
			return fmt.Errorf("recency order %016x is not a permutation of %d ways", r.order, assoc)
		default:
			seen |= 1 << uint(w)
		}
	}
	if r.valid>>uint(assoc) != 0 {
		return fmt.Errorf("recency valid mask %04x names ways beyond %d", r.valid, assoc)
	}
	return nil
}

// checkAssoc panics unless assoc fits a recency word.
func checkAssoc(assoc int) {
	if assoc <= 0 {
		panic("cache: associativity must be positive")
	}
	if assoc > maxAssoc {
		panic(fmt.Sprintf("cache: associativity %d exceeds the LRU order's %d ways", assoc, maxAssoc))
	}
}
