package mem

import "fmt"

// Accessors that only tests use.

// PartLines returns the number of lines per partition.
func (m *AddressMap) PartLines() int64 { return m.partLines }

// TotalBytes returns the size of the whole address space.
func (m *AddressMap) TotalBytes() int64 {
	return int64(m.partitions) * m.partLines * LineBytes
}

// LineAt maps a logical line offset in [0, Lines()) to its physical line.
func (b *Buffer) LineAt(logical int64) LineAddr {
	if logical < 0 {
		panic("mem: negative logical line")
	}
	for _, e := range b.Extents {
		if logical < e.Lines {
			return e.Start + LineAddr(logical)
		}
		logical -= e.Lines
	}
	panic(fmt.Sprintf("mem: logical line %d beyond buffer", logical))
}

// UsedBytes reports the bytes currently allocated on partition p.
func (a *Allocator) UsedBytes(p int) int64 { return a.usedBytes[p] }

// FreePages reports the free pages remaining on partition p.
func (a *Allocator) FreePages(p int) int { return len(a.freePages[p]) }

// Tile returns the memory tile index this controller belongs to.
func (c *Controller) Tile() int { return c.tile }
