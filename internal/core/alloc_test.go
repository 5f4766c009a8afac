//go:build !race

package core

// Zero-allocation guard for the agent's per-invocation path: screening
// replays decide and observe once per estimated invocation, so a stray
// allocation taxes every screened sweep. The race detector's shadow
// allocations would trip the guard, so it runs only in non-race builds
// (CI runs it with the other alloc guards).

import (
	"testing"

	"cohmeleon/internal/esp"
	"cohmeleon/internal/soc"
)

// TestZeroAllocDecideObserve: once an agent has decided on its
// accelerators and visited their states, a DecideAction→Observe cycle
// allocates nothing, for the default and the fine-grain agent.
func TestZeroAllocDecideObserve(t *testing.T) {
	for _, fineGrain := range []bool{false, true} {
		cfg := DefaultConfig()
		cfg.FineGrain = fineGrain
		c := mustNew(t, cfg)
		ctxs := make([]*esp.Context, 3)
		for i := range ctxs {
			ctxs[i] = ctxWith(i%2, float64(i), 1, float64(64<<10), int64(16<<10)<<i)
			ctxs[i].Acc = &soc.AccTile{ID: 2 * i}
		}
		res := &esp.Result{FootprintBytes: 16 << 10, ExecCycles: 1000, ActiveCycles: 900, CommCycles: 100, OffChipApprox: 64}
		cycle := func() {
			for _, ctx := range ctxs {
				act := c.DecideAction(ctx)
				res.Acc, res.Mode, res.Action = ctx.Acc, act.Hot(), act
				c.Observe(res)
			}
		}
		// Warm up: grow the pending and history slices and let ε-greedy
		// visit every action of every state these contexts encode.
		for i := 0; i < 200; i++ {
			cycle()
		}
		if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
			t.Errorf("fineGrain=%v: a warmed-up DecideAction→Observe cycle allocates %.1f times, want 0", fineGrain, allocs)
		}
	}
}
