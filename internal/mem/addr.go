// Package mem models the partitioned physical memory of an ESP-style
// SoC: a global address space divided into one contiguous partition per
// memory tile, a page-granular allocator that spreads datasets across
// partitions, and DRAM controllers with fixed latency and the paper's
// 32-bits-per-cycle channel bandwidth.
package mem

import (
	"fmt"
	"math/bits"
)

// LineBytes is the cache-line size. The simulator tracks memory at
// cache-line granularity.
const LineBytes = 64

// Page geometry. ESP allocates accelerator data in big pages so the
// accelerator TLB holds the whole page table; we use 1 MB pages.
const (
	PageBytes = 1 << 20
	PageLines = PageBytes / LineBytes
	// PageLineShift is log2(PageLines), for shift-based page arithmetic.
	PageLineShift = 14
)

// Compile-time check that PageLineShift matches PageLines.
var _ = [1]struct{}{}[PageLines-1<<PageLineShift]

// LineAddr is a global physical cache-line address (byte address divided
// by LineBytes).
type LineAddr int64

// AddressMap describes the partitioning of the global address space
// across memory tiles: partition i owns lines
// [i*partLines, (i+1)*partLines).
type AddressMap struct {
	partitions int
	partLines  int64
	partShift  uint // log2(partLines) when partLines is a power of two, else 0
}

// NewAddressMap creates a map with the given number of partitions, each
// holding partBytes of DRAM. partBytes must be a multiple of PageBytes.
func NewAddressMap(partitions int, partBytes int64) *AddressMap {
	if partitions <= 0 {
		panic("mem: need at least one partition")
	}
	if partBytes <= 0 || partBytes%PageBytes != 0 {
		panic(fmt.Sprintf("mem: partition size %d not a positive multiple of page size", partBytes))
	}
	m := &AddressMap{partitions: partitions, partLines: partBytes / LineBytes}
	if m.partLines&(m.partLines-1) == 0 {
		m.partShift = uint(bits.TrailingZeros64(uint64(m.partLines)))
	}
	return m
}

// Partitions returns the number of memory partitions (memory tiles).
func (m *AddressMap) Partitions() int { return m.partitions }

// Home returns the partition that owns the given line.
func (m *AddressMap) Home(line LineAddr) int {
	var p int
	if m.partShift != 0 {
		p = int(uint64(line) >> m.partShift) // line is non-negative for any valid address
	} else {
		p = int(int64(line) / m.partLines)
	}
	if p < 0 || p >= m.partitions {
		panic(fmt.Sprintf("mem: line %d outside address space", line))
	}
	return p
}

// PartitionBase returns the first line of partition p.
func (m *AddressMap) PartitionBase(p int) LineAddr {
	return LineAddr(int64(p) * m.partLines)
}

// Extent is a contiguous run of physical lines within one partition.
type Extent struct {
	Start LineAddr
	Lines int64
}

// End returns one past the last line of the extent.
func (e Extent) End() LineAddr { return e.Start + LineAddr(e.Lines) }

// Buffer is an allocated dataset: a logically contiguous region backed by
// one or more physical extents (whole pages), possibly on different
// partitions. Logical offsets map to extents in order.
type Buffer struct {
	Bytes   int64
	Extents []Extent
}

// Lines returns the dataset size in cache lines (rounded up).
func (b *Buffer) Lines() int64 {
	return (b.Bytes + LineBytes - 1) / LineBytes
}

// Pages returns the number of physical pages backing the buffer.
func (b *Buffer) Pages() int {
	n := 0
	for _, e := range b.Extents {
		n += int(e.Lines / PageLines)
	}
	return n
}

// BytesOnPartition returns how many bytes of the buffer live on partition
// p. The final page may be partially used; bytes are attributed in
// logical order so the sum over partitions equals Bytes.
func (b *Buffer) BytesOnPartition(m *AddressMap, p int) int64 {
	var total, remaining int64
	remaining = b.Bytes
	for _, e := range b.Extents {
		extentBytes := e.Lines * LineBytes
		used := extentBytes
		if used > remaining {
			used = remaining
		}
		if m.Home(e.Start) == p {
			total += used
		}
		remaining -= used
		if remaining <= 0 {
			break
		}
	}
	return total
}

// Partitions returns the sorted set of partitions the buffer touches.
func (b *Buffer) Partitions(m *AddressMap) []int {
	seen := make(map[int]bool)
	var out []int
	for _, e := range b.Extents {
		p := m.Home(e.Start)
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	// Extents are appended in allocation order; keep deterministic order
	// by partition index.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}
