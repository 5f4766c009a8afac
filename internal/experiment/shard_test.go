package experiment

import (
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"cohmeleon/internal/faultinject"
)

// Shared-mode (multi-process sharding) pins. The in-process stand-in for
// "N processes" is N concurrent Sweep/Learners calls with distinct
// worker ids: they exercise the identical lease protocol over the
// identical shared directory — only the kill -9 itself needs real
// processes, and that lives in scripts/chaos_shard_smoke.sh.

// sharedSweepOptions configures one shared worker. The TTL is generous
// (2s, so a 400ms heartbeat) so a race-detector scheduling stall can
// never make a live worker look dead and flake the test; dead-holder
// tests shorten the observer's TTL instead.
func sharedSweepOptions(worker string) Options {
	opt := Tiny()
	opt.SweepScenarios = 3
	opt.Shared = true
	opt.WorkerID = worker
	opt.LeaseTTL = 2 * time.Second
	return opt
}

// TestSharedSweepTwoWorkersByteIdentical: two concurrent shared workers
// over one cache dir must each assemble the complete grid and render
// the exact report of a plain single-process run, with a store that
// fscks clean, no duplicated compute beyond reclaims/fallbacks, and no
// lease files left behind — at full and at screening fidelity.
func TestSharedSweepTwoWorkersByteIdentical(t *testing.T) {
	for _, fid := range []string{FidelityFull, FidelityScreening} {
		t.Run(fid, func(t *testing.T) {
			resumeTestSetup(t)
			opt := sharedSweepOptions("")
			opt.Shared = false
			opt.WorkerID = ""
			opt.Fidelity = fid
			ref, err := Sweep(opt)
			if err != nil {
				t.Fatal(err)
			}
			refText := ref.Render()

			dir := t.TempDir()
			ResetRunCache()
			ResetCheckpointStats()
			if err := SetRunCacheDir(dir); err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			reports := make([]string, 2)
			errs := make([]error, 2)
			for w := 0; w < 2; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					o := sharedSweepOptions([]string{"w1", "w2"}[w])
					o.Fidelity = fid
					res, err := Sweep(o)
					if err != nil {
						errs[w] = err
						return
					}
					reports[w] = res.Render()
				}(w)
			}
			wg.Wait()
			for w, err := range errs {
				if err != nil {
					t.Fatalf("worker %d: %v", w, err)
				}
			}
			for w, got := range reports {
				if got != refText {
					t.Errorf("worker %d report differs from single-process run:\n--- want ---\n%s\n--- got ---\n%s", w, refText, got)
				}
			}
			// Both live workers heartbeat faster than the TTL, so no reclaim may
			// have happened, and cells must not have been computed twice: cells
			// saved is exactly the grid (every save after the first would need a
			// reclaimed or fallback claim on an unpublished cell).
			st := Snapshot().Lease
			if st.Reclaimed != 0 || st.Expired != 0 || st.Lost != 0 || st.Fallbacks != 0 {
				t.Errorf("live workers tripped failure paths: %+v", st)
			}
			if ck := Snapshot().Checkpoint; ck.Saved != int64(opt.SweepScenarios) {
				t.Errorf("cells saved = %d, want %d (each cell computed exactly once across workers)",
					ck.Saved, opt.SweepScenarios)
			}
			v, err := VerifyRunCache(dir)
			if err != nil {
				t.Fatal(err)
			}
			if !v.Clean() {
				t.Errorf("fsck not clean: %v", v)
			}
			// Every lease released: the leases tree holds no live lease files.
			if left, _ := filepath.Glob(filepath.Join(leaseRoot(dir), "*", "*.lease")); len(left) != 0 {
				t.Errorf("leases left behind after a clean run: %v", left)
			}
		})
	}
}

// TestSharedSweepDeadWorkerReclaimed: every cell is pre-leased to a
// holder that never heartbeats (a kill -9 victim in miniature); a
// shared worker with a short TTL must expire and reclaim every lease
// exactly once and still produce the single-process report.
func TestSharedSweepDeadWorkerReclaimed(t *testing.T) {
	resumeTestSetup(t)
	opt := sharedSweepOptions("")
	opt.Shared = false
	opt.WorkerID = ""
	ref, err := Sweep(opt)
	if err != nil {
		t.Fatal(err)
	}
	refText := ref.Render()

	dir := t.TempDir()
	ResetRunCache()
	ResetCheckpointStats()
	if err := SetRunCacheDir(dir); err != nil {
		t.Fatal(err)
	}
	// Pre-claim every cell as the dead holder, straight through the
	// lease layer against the real grid's lease directory.
	surv := sharedSweepOptions("survivor")
	surv.LeaseTTL = 300 * time.Millisecond
	ck, err := openCheckpoint("sweep", sweepParamHash(surv, nil), true)
	if err != nil || ck == nil {
		t.Fatalf("openCheckpoint = (%v, %v)", ck, err)
	}
	dead, err := openLeaseTable(ck.store, ck.key, Options{WorkerID: "dead", LeaseTTL: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < surv.SweepScenarios; i++ {
		if _, claimed, err := dead.claim(i); !claimed || err != nil {
			t.Fatalf("dead pre-claim cell %d = (%v, %v)", i, claimed, err)
		}
	}
	before := Snapshot().Lease

	res, err := Sweep(surv)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Render(); got != refText {
		t.Errorf("survivor report differs from single-process run:\n--- want ---\n%s\n--- got ---\n%s", refText, got)
	}
	st := Snapshot().Lease
	if got := st.Reclaimed - before.Reclaimed; got != int64(surv.SweepScenarios) {
		t.Errorf("Reclaimed = %d, want %d (every dead lease reclaimed exactly once)",
			got, surv.SweepScenarios)
	}
	if got := st.Expired - before.Expired; got < int64(surv.SweepScenarios) {
		t.Errorf("Expired = %d, want ≥ %d", got, surv.SweepScenarios)
	}
	// One tokened reclaim marker per cell is the on-disk audit trail.
	marks, _ := filepath.Glob(filepath.Join(leaseRoot(dir), "*", "*.reclaimed-*"))
	if len(marks) != surv.SweepScenarios {
		t.Errorf("reclaim markers = %d, want %d", len(marks), surv.SweepScenarios)
	}
	if v, err := VerifyRunCache(dir); err != nil || !v.Clean() {
		t.Errorf("fsck = (%v, %v), want clean", v, err)
	}
}

// TestSharedSweepUnderFaults is the concurrent-process store property
// test: two shared workers hammer one cache dir while a seeded random
// fault campaign fails lease and store operations under them. Both
// reports must stay byte-identical to the fault-free single-process
// run, the store must fsck clean afterwards, and no cell may have been
// computed more than twice.
func TestSharedSweepUnderFaults(t *testing.T) {
	resumeTestSetup(t)
	opt := sharedSweepOptions("")
	opt.Shared = false
	opt.WorkerID = ""
	ref, err := Sweep(opt)
	if err != nil {
		t.Fatal(err)
	}
	refText := ref.Render()

	for seed := int64(1); seed <= 3; seed++ {
		dir := t.TempDir()
		ResetRunCache()
		ResetCheckpointStats()
		if err := SetRunCacheDir(dir); err != nil {
			t.Fatal(err)
		}
		// Campaign points cover every lease operation plus run-store
		// writes. Checkpoint writes are deliberately reliable here so
		// "computed at most twice" stays provable: a failed publish
		// would legitimately force a third compute, which the kill -9
		// smoke exercises instead.
		faultinject.Enable(faultinject.RandomFaults(seed, []faultinject.Point{
			faultinject.LeaseAcquire, faultinject.LeaseRenew,
			faultinject.LeaseRelease, faultinject.LeaseReclaim,
			faultinject.StoreWrite, faultinject.StoreRename,
		}, 6, 8))

		var mu sync.Mutex
		computed := make(map[int]int)
		countOpt := func(worker string) Options {
			o := sharedSweepOptions(worker)
			o.CellDone = func(e CellEvent) {
				if !e.Replayed {
					mu.Lock()
					computed[e.Index]++
					mu.Unlock()
				}
			}
			return o
		}
		var wg sync.WaitGroup
		reports := make([]string, 2)
		errs := make([]error, 2)
		for w := 0; w < 2; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				res, err := Sweep(countOpt([]string{"w1", "w2"}[w]))
				if err != nil {
					errs[w] = err
					return
				}
				reports[w] = res.Render()
			}(w)
		}
		wg.Wait()
		faultinject.Disable()
		for w, err := range errs {
			if err != nil {
				t.Fatalf("seed %d: worker %d: %v", seed, w, err)
			}
		}
		for w, got := range reports {
			if got != refText {
				t.Errorf("seed %d: worker %d report differs under faults:\n--- want ---\n%s\n--- got ---\n%s",
					seed, w, refText, got)
			}
		}
		for i, n := range computed {
			if n > 2 {
				t.Errorf("seed %d: cell %d computed %d times, want ≤ 2", seed, i, n)
			}
		}
		if v, err := VerifyRunCache(dir); err != nil || !v.Clean() {
			t.Errorf("seed %d: fsck = (%v, %v), want clean", seed, v, err)
		}
	}
}

// TestSharedLearnersTwoWorkersByteIdentical: the learners grid shards
// the same way the sweep does, at full and at screening fidelity.
func TestSharedLearnersTwoWorkersByteIdentical(t *testing.T) {
	for _, fid := range []string{FidelityFull, FidelityScreening} {
		t.Run(fid, func(t *testing.T) {
			resumeTestSetup(t)
			base := Tiny()
			base.LearnerScenarios = 2
			base.Fidelity = fid
			ref, err := Learners(base)
			if err != nil {
				t.Fatal(err)
			}
			refText := ref.Render()

			dir := t.TempDir()
			ResetRunCache()
			ResetCheckpointStats()
			if err := SetRunCacheDir(dir); err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			reports := make([]string, 2)
			errs := make([]error, 2)
			for w := 0; w < 2; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					o := base
					o.Shared = true
					o.WorkerID = []string{"w1", "w2"}[w]
					o.LeaseTTL = 2 * time.Second
					res, err := Learners(o)
					if err != nil {
						errs[w] = err
						return
					}
					reports[w] = res.Render()
				}(w)
			}
			wg.Wait()
			for w, err := range errs {
				if err != nil {
					t.Fatalf("worker %d: %v", w, err)
				}
			}
			for w, got := range reports {
				if got != refText {
					t.Errorf("worker %d learners report differs from single-process run:\n--- want ---\n%s\n--- got ---\n%s", w, refText, got)
				}
			}
			if v, err := VerifyRunCache(dir); err != nil || !v.Clean() {
				t.Errorf("fsck = (%v, %v), want clean", v, err)
			}
		})
	}
}

// TestSharedModeRequiresCacheDir: shared mode without a store to
// coordinate through is rejected up front, not silently single-process.
func TestSharedModeRequiresCacheDir(t *testing.T) {
	resumeTestSetup(t)
	opt := sharedSweepOptions("w1")
	if _, err := Sweep(opt); err == nil || !strings.Contains(err.Error(), "cache directory") {
		t.Fatalf("shared sweep without cache dir = %v, want cache-directory error", err)
	}
}

// TestSharedOptionValidation: a negative lease TTL is an option error.
func TestSharedOptionValidation(t *testing.T) {
	opt := Tiny()
	opt.Shared = true
	opt.LeaseTTL = -time.Second
	if err := opt.Validate(); err == nil {
		t.Fatal("negative TTL validated clean")
	}
}
