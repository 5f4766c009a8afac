package experiment

import (
	"context"
	"fmt"
	"time"
)

// runGrid executes one checkpointed grid — n cells, each either adopted
// from the checkpoint via load (returns true when cell i is now filled)
// or produced via compute (fills cell i and publishes its checkpoint).
// It is the single seam where shared (multi-process) sharding plugs in:
//
//   - Not shared: exactly the loop the experiments always ran — one
//     fan-out over [0, n), load-else-compute per cell. No lease path is
//     touched, which is what keeps single-process runs byte-identical
//     to builds that predate shared mode.
//
//   - Shared: the worker repeats rounds of a fan-out over the still-
//     missing cells. Per cell per round it first re-tries load — that
//     is how cells computed and published by peer processes are
//     adopted — then tries to claim the cell's lease; a claim means
//     compute under a heartbeat, publish, release. Cells leased to
//     live peers are skipped this round. A round that fills nothing
//     (every missing cell is leased out) sleeps one heartbeat before
//     polling again. The loop ends when every cell is filled, so every
//     worker that returns has assembled the complete grid and renders
//     the full report — byte-identical across workers because cells
//     are pure functions of their inputs and replay is byte-exact.
//
// The leases are a dedup layer, not a correctness gate: if claiming a
// cell keeps *failing* (not losing races — erroring, e.g. an unwritable
// lease directory), the worker falls back to computing the cell with no
// lease at all. Duplicate computation publishes identical bytes; a
// wedged grid helps nobody.
func runGrid(opt Options, ck *checkpoint, n int, load func(i int) bool, compute func(i int) error) error {
	if !opt.Shared {
		return forEachOpt(opt, n, func(i int) error {
			if load(i) {
				return nil
			}
			return compute(i)
		})
	}
	if ck == nil {
		return fmt.Errorf("experiment: shared mode needs a cache directory (set -cache-dir)")
	}
	lt, err := openLeaseTable(ck.store, ck.key, opt)
	if err != nil {
		return err
	}
	ctx := opt.ctx()
	done := make([]bool, n)       // cell filled (adopted or computed)
	acquireErrs := make([]int, n) // consecutive claim errors per cell
	remaining := n
	for remaining > 0 {
		if ctx.Err() != nil {
			return interruptedErr(ctx, n-remaining, n)
		}
		// One round: visit every missing cell. The done/acquireErrs
		// slices are written under the fan-out and read after its
		// WaitGroup join, so rounds never race on them.
		err := forEachOpt(opt, n, func(i int) error {
			if done[i] {
				return nil
			}
			if load(i) {
				done[i] = true
				return nil
			}
			tok, claimed, cerr := lt.claim(i)
			if cerr != nil {
				acquireErrs[i]++
				if acquireErrs[i] < leaseFallbackAfter {
					return nil // leased next round, or fall back then
				}
				bump(leaseFallbacks, 1)
				if err := compute(i); err != nil {
					return err
				}
				done[i] = true
				return nil
			}
			acquireErrs[i] = 0
			if !claimed {
				return nil // held by a live peer, or lost a race
			}
			// Double-check under the lease: a peer may have published
			// this cell between our load miss and our claim (publish
			// precedes release, so a claimable lease means any prior
			// holder's cell is visible). Without this, that window would
			// recompute the cell — harmlessly, but needlessly.
			if load(i) {
				lt.release(i, tok)
				lt.forget(i)
				done[i] = true
				return nil
			}
			stop := lt.keepAlive(i, tok)
			err := compute(i)
			stop()
			if err != nil {
				// The cell failed deterministically (transient retries
				// already happened inside compute). Release so a peer
				// isn't stuck waiting out the TTL to hit the same error.
				lt.release(i, tok)
				return err
			}
			lt.release(i, tok)
			lt.forget(i)
			done[i] = true
			return nil
		})
		if err != nil {
			return err
		}
		wasMissing := remaining
		remaining = 0
		for _, d := range done {
			if !d {
				remaining++
			}
		}
		// A round that filled nothing means every missing cell is leased
		// to a peer (or erroring below the fallback threshold): wait one
		// heartbeat for peers to publish or their leases to stale out. A
		// round that made progress polls again immediately — peers may
		// have published more in the meantime.
		if remaining > 0 && remaining == wasMissing {
			if err := sleepCtx(ctx, lt.heartbeat); err != nil {
				return interruptedErr(ctx, n-remaining, n)
			}
		}
	}
	return nil
}

// sleepCtx sleeps d or until ctx cancels, whichever first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
