package mem

import "fmt"

// Allocator hands out whole pages, spreading consecutive pages of one
// dataset across partitions to balance DRAM channel load, the way ESP's
// large-page accelerator allocator distributes data across memory tiles.
// Placement picks the least-loaded partition (by allocated bytes) with a
// free page; ties resolve to the lowest partition index, keeping
// allocation deterministic.
type Allocator struct {
	m         *AddressMap
	freePages [][]int32 // per partition: stack of free page indices (descending, pop from end)
	usedBytes []int64   // per partition
}

// NewAllocator returns an allocator over the whole address space of m.
func NewAllocator(m *AddressMap) *Allocator {
	a := &Allocator{
		m:         m,
		freePages: make([][]int32, m.partitions),
		usedBytes: make([]int64, m.partitions),
	}
	pagesPerPart := int32(m.partLines / PageLines)
	for p := range a.freePages {
		stack := make([]int32, pagesPerPart)
		for i := int32(0); i < pagesPerPart; i++ {
			stack[i] = pagesPerPart - 1 - i // lowest page index on top
		}
		a.freePages[p] = stack
	}
	return a
}

// Alloc reserves bytes of memory (rounded up to whole pages) and returns
// the backing buffer, or an error if DRAM is exhausted.
func (a *Allocator) Alloc(bytes int64) (*Buffer, error) {
	if bytes <= 0 {
		return nil, fmt.Errorf("mem: allocation of %d bytes", bytes)
	}
	pages := int((bytes + PageBytes - 1) / PageBytes)
	buf := &Buffer{Bytes: bytes}
	for i := 0; i < pages; i++ {
		p := a.pickPartition()
		if p < 0 {
			a.Free(buf)
			return nil, fmt.Errorf("mem: out of memory allocating %d bytes", bytes)
		}
		stack := a.freePages[p]
		page := stack[len(stack)-1]
		a.freePages[p] = stack[:len(stack)-1]
		a.usedBytes[p] += PageBytes
		start := a.m.PartitionBase(p) + LineAddr(int64(page)*PageLines)
		// Merge with the previous extent when physically contiguous and on
		// the same partition (extents must never span partitions: the SoC
		// layer relies on one home memory tile per extent).
		if n := len(buf.Extents); n > 0 && buf.Extents[n-1].End() == start &&
			a.m.Home(buf.Extents[n-1].Start) == p {
			buf.Extents[n-1].Lines += PageLines
		} else {
			buf.Extents = append(buf.Extents, Extent{Start: start, Lines: PageLines})
		}
	}
	return buf, nil
}

// pickPartition returns the least-loaded partition with a free page, or
// -1 when memory is exhausted.
func (a *Allocator) pickPartition() int {
	best := -1
	for p := range a.freePages {
		if len(a.freePages[p]) == 0 {
			continue
		}
		if best < 0 || a.usedBytes[p] < a.usedBytes[best] {
			best = p
		}
	}
	return best
}

// Free returns the buffer's pages to the allocator. Freeing a nil buffer
// is a no-op.
func (a *Allocator) Free(buf *Buffer) {
	if buf == nil {
		return
	}
	for _, e := range buf.Extents {
		p := a.m.Home(e.Start)
		pageBase := (int64(e.Start) - int64(a.m.PartitionBase(p))) / PageLines
		for i := int64(0); i < e.Lines/PageLines; i++ {
			a.freePages[p] = append(a.freePages[p], int32(pageBase+i))
			a.usedBytes[p] -= PageBytes
		}
	}
	buf.Extents = nil
}
