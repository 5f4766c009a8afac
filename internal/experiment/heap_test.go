//go:build !race

package experiment

// Live-heap guard for the sweep grid: cells draw their own scenario, so
// what a sweep holds while its grid runs grows with the scenario count
// only by one result slot per cell. The race detector's shadow memory
// would swamp the reading, so it runs only in non-race builds (CI runs
// it beside the zero-alloc guards).

import (
	"context"
	"errors"
	"runtime"
	"testing"
)

// maxHeapPerScenario bounds the live heap one more scenario may add
// before the first cell completes: a result slot is about 170 B, a held
// scenario (SoC config, generator config) about 1.3 KB more.
const maxHeapPerScenario = 512

// TestSweepHeapPerScenario reads the live heap at the first completed
// cell of a screened sweep at two scenario counts, then cancels the
// rest of the grid.
func TestSweepHeapPerScenario(t *testing.T) {
	fidelityTestSetup(t)
	liveAtFirstCell := func(n int) uint64 {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		opt := screeningSweepOptions()
		opt.Workers = 1
		opt.SweepScenarios = n
		opt.Ctx = ctx
		var live uint64
		opt.CellDone = func(CellEvent) {
			if live != 0 {
				return
			}
			runtime.GC()
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			live = ms.HeapAlloc
			cancel()
		}
		if _, err := Sweep(opt); !errors.Is(err, context.Canceled) {
			t.Fatalf("%d scenarios: want a cancelled sweep, got %v", n, err)
		}
		return live
	}
	// The first sweep calibrates the cost model; both readings then hold
	// the same memoized model and calibration runs.
	small := liveAtFirstCell(64)
	large := liveAtFirstCell(4096)
	per := (float64(large) - float64(small)) / (4096 - 64)
	t.Logf("live heap at first cell: %d B at 64 scenarios, %d B at 4096 (%.0f B per extra scenario)", small, large, per)
	if per >= maxHeapPerScenario {
		t.Fatalf("live heap grows %.0f B per extra scenario, want < %d", per, maxHeapPerScenario)
	}
}
