package cache

import "cohmeleon/internal/mem"

// The set-match helpers return the mask of the ways of one set whose tag
// equals line, comparing every way with no early exit. A hit lands at a
// data-dependent way, so a scan that stops at the first match pays a
// mispredicted branch on most hits; a full compare folds into
// flag-to-register moves instead. The caller takes the hit way as
// bits.TrailingZeros32 of the mask (32 on a miss, beyond any set).
//
// The in-tree widths — the 8-way LLC (matchTags) and the 4-way private
// caches (matchWays) — are unrolled, and the compiler turns each
// compare into a flag-to-register move (SETEQ/CMOV), not a branch;
// other widths take the equivalent loop. matchWays stays within the
// inliner's budget, so a private-cache lookup pays no call for it.
// Resident tags are unique within a set, so a mask holds at most one
// bit unless line is noLine, whose lowest bit names the first invalid
// way.

// matchTags matches line against one LLC set's tag array.
func matchTags(tags []mem.LineAddr, line mem.LineAddr) uint32 {
	var m uint32
	if len(tags) == 8 {
		t := (*[8]mem.LineAddr)(tags)
		if t[0] == line {
			m |= 1
		}
		if t[1] == line {
			m |= 2
		}
		if t[2] == line {
			m |= 4
		}
		if t[3] == line {
			m |= 8
		}
		if t[4] == line {
			m |= 16
		}
		if t[5] == line {
			m |= 32
		}
		if t[6] == line {
			m |= 64
		}
		if t[7] == line {
			m |= 128
		}
	} else {
		for k, tg := range tags {
			if tg == line {
				m |= 1 << uint(k)
			}
		}
	}
	return m
}

// matchWays matches line against one private-cache set.
func matchWays(set []way, line mem.LineAddr) uint32 {
	var m uint32
	if len(set) == 4 {
		w := (*[4]way)(set)
		if w[0].line == line {
			m |= 1
		}
		if w[1].line == line {
			m |= 2
		}
		if w[2].line == line {
			m |= 4
		}
		if w[3].line == line {
			m |= 8
		}
	} else {
		for k := range set {
			if set[k].line == line {
				m |= 1 << uint(k)
			}
		}
	}
	return m
}
