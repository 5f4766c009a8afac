package cache

import (
	"fmt"
	"math/bits"
	"testing"
	"unsafe"

	"cohmeleon/internal/mem"
)

// scanWay is the early-exit linear scan the set-match helpers replace:
// the first way whose tag equals line, or len(tags).
func scanWay(tags []mem.LineAddr, line mem.LineAddr) int {
	for k, tg := range tags {
		if tg == line {
			return k
		}
	}
	return len(tags)
}

// TestSetMatchMatchesLinearScan checks both set-match helpers against a
// linear scan on every width from 1 to 16 (the unrolled 4- and 8-way
// forms and the loop): a hit at each way, a miss, and sets with noLine
// ways, including a lookup of noLine itself.
func TestSetMatchMatchesLinearScan(t *testing.T) {
	for assoc := 1; assoc <= maxAssoc; assoc++ {
		t.Run(fmt.Sprintf("%dway", assoc), func(t *testing.T) {
			tags := make([]mem.LineAddr, assoc)
			set := make([]way, assoc)
			check := func(name string, line mem.LineAddr) {
				t.Helper()
				for k := range tags {
					set[k] = way{line: tags[k], state: Shared, llcWay: int32(k)}
				}
				want := scanWay(tags, line)
				for _, m := range []struct {
					helper string
					mask   uint32
				}{{"matchTags", matchTags(tags, line)}, {"matchWays", matchWays(set, line)}} {
					got := bits.TrailingZeros32(m.mask)
					if got > assoc {
						got = assoc
					}
					if got != want {
						t.Errorf("%s %s(%v, %d) = mask %b, want way %d", name, m.helper, tags, line, m.mask, want)
					}
					for k := range tags {
						if (m.mask>>uint(k)&1 != 0) != (tags[k] == line) {
							t.Errorf("%s %s(%v, %d) = mask %b: bit %d wrong", name, m.helper, tags, line, m.mask, k)
						}
					}
					if m.mask>>uint(assoc) != 0 {
						t.Errorf("%s %s(%v, %d) = mask %b names ways beyond %d", name, m.helper, tags, line, m.mask, assoc)
					}
				}
			}
			for k := range tags {
				tags[k] = mem.LineAddr(100 + 7*k)
			}
			for k := range tags {
				check(fmt.Sprintf("hit at way %d", k), tags[k])
			}
			check("miss", 99)
			// Invalid ways: every other way holds noLine. Resident lines
			// still hit where they are, and noLine matches every invalid
			// way, lowest first.
			for k := 0; k < assoc; k += 2 {
				tags[k] = noLine
			}
			for k := 1; k < assoc; k += 2 {
				check(fmt.Sprintf("hit at way %d among invalid ways", k), tags[k])
			}
			check("miss among invalid ways", 99)
			check("noLine", noLine)
		})
	}
}

// TestEntryLayout pins the sizes the tag scans are laid out for: a
// private-cache way (with its LLC way hint in the padding) is 16 bytes,
// so a 4-way set is one 64-byte line, and a directory entry is 32.
func TestEntryLayout(t *testing.T) {
	if got := unsafe.Sizeof(way{}); got != 16 {
		t.Errorf("way is %d bytes, want 16", got)
	}
	if got := unsafe.Sizeof(DirEntry{}); got != 32 {
		t.Errorf("DirEntry is %d bytes, want 32", got)
	}
}
