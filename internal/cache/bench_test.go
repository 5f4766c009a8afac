package cache

import (
	"testing"

	"cohmeleon/internal/mem"
)

// Micro-benchmarks for the tag-scan hot path. The simulator calls these
// operations once per cache line per transfer, so regressions here move
// every experiment's wall clock. Geometry matches the evaluation SoCs
// (512 kB LLC slice, 8-way; 64 kB L2, 4-way).

const benchLines = 64 << 10 // working set larger than the structures

func BenchmarkCacheAccessHit(b *testing.B) {
	c := New("l2", 64<<10, 4)
	for l := mem.LineAddr(0); l < 1024; l++ {
		c.Insert(l, Exclusive)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(mem.LineAddr(i & 1023))
	}
}

func BenchmarkCacheInsertThrash(b *testing.B) {
	c := New("l2", 64<<10, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Insert(mem.LineAddr(i&(benchLines-1)), Modified)
	}
}

func BenchmarkDirectoryAccessHit(b *testing.B) {
	d := NewDirectory("llc", 512<<10, 8)
	for l := mem.LineAddr(0); l < 8192; l++ {
		d.Insert(l, DirClean)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Access(mem.LineAddr(i & 8191))
	}
}

func BenchmarkDirectoryInsertThrash(b *testing.B) {
	d := NewDirectory("llc", 512<<10, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Insert(mem.LineAddr(i&(benchLines-1)), DirClean)
	}
}

// BenchmarkDirectoryAccessOrInsert exercises the merged scan on a
// thrashing mix (every second access misses and evicts).
func BenchmarkDirectoryAccessOrInsert(b *testing.B) {
	d := NewDirectory("llc", 512<<10, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.AccessOrInsert(mem.LineAddr(i&(benchLines-1)), DirClean)
	}
}

// benchRun is the 16-line group AccessOrInsertRun takes per call in
// the coherence flows, starting at line start.
func benchRun(lines []mem.LineAddr, start mem.LineAddr) []mem.LineAddr {
	for i := range lines {
		lines[i] = start + mem.LineAddr(i)
	}
	return lines
}

// BenchmarkDirectoryRunHit times a 16-line DMA read run whose lines are
// all resident.
func BenchmarkDirectoryRunHit(b *testing.B) {
	d := NewDirectory("llc", 512<<10, 8)
	lines := make([]mem.LineAddr, 16)
	upd := RunUpdate{Kind: RunDMA}
	var run DirRun
	for l := mem.LineAddr(0); l < 8192; l += 16 {
		d.AccessOrInsertRun(benchRun(lines, l), DirClean, upd, &run)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.AccessOrInsertRun(benchRun(lines, mem.LineAddr(i*16&8191)), DirClean, upd, &run)
	}
}

// BenchmarkDirectoryRunThrash times a 16-line DMA write run over a
// working set larger than the partition: every line misses and evicts
// a dirty victim.
func BenchmarkDirectoryRunThrash(b *testing.B) {
	d := NewDirectory("llc", 512<<10, 8)
	lines := make([]mem.LineAddr, 16)
	upd := RunUpdate{Kind: RunDMA, Write: true}
	var run DirRun
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.AccessOrInsertRun(benchRun(lines, mem.LineAddr(i*16&(benchLines-1))), DirDirty, upd, &run)
	}
}

func BenchmarkSharerIteration(b *testing.B) {
	e := &DirEntry{Sharers: 0x8421_0842_1084_2108}
	var sum int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.ForEachSharer(func(a int) { sum += a })
	}
	_ = sum
}
