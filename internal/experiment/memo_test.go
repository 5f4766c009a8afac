package experiment

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"cohmeleon/internal/core"
	"cohmeleon/internal/policy"
	"cohmeleon/internal/soc"
	"cohmeleon/internal/store"
	"cohmeleon/internal/workload"
)

// TestCorruptRunEntriesQuarantinedExactlyOnce is the self-healing
// matrix: a truncated entry, a version-mismatched envelope, and plain
// garbage must each load as a clean miss (identical recomputed result),
// be renamed *.corrupt exactly once, and leave the store healthy — the
// recomputed entry persists at the original path and serves the next
// load from disk with nothing further quarantined.
func TestCorruptRunEntriesQuarantinedExactlyOnce(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(t *testing.T, path string)
	}{
		{"truncated", func(t *testing.T, path string) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"version-mismatched", func(t *testing.T, path string) {
			data, err := store.Seal(runCacheVersion+1, &persistedRun{Version: runCacheVersion + 1})
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"garbage", func(t *testing.T, path string) {
			if err := os.WriteFile(path, []byte("not a gob stream"), 0o644); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			memoTestSetup(t)
			dir := t.TempDir()
			if err := SetRunCacheDir(dir); err != nil {
				t.Fatal(err)
			}
			cfg, app := memoTestInputs(t)
			first, err := runApp(context.Background(), cfg, policy.NewFixed(soc.LLCCohDMA), app, 7)
			if err != nil {
				t.Fatal(err)
			}
			files, err := filepath.Glob(filepath.Join(dir, "run-v*.gob"))
			if err != nil || len(files) != 1 {
				t.Fatalf("persisted %v (err %v), want exactly one entry", files, err)
			}
			tc.corrupt(t, files[0])

			ResetRunCache() // drop the in-memory memo so the disk entry is consulted
			if err := SetRunCacheDir(dir); err != nil {
				t.Fatal(err)
			}
			again, err := runApp(context.Background(), cfg, policy.NewFixed(soc.LLCCohDMA), app, 7)
			if err != nil {
				t.Fatal(err)
			}
			if !sameMeasurements(again, first) {
				t.Error("recomputed result after quarantine differs from the original")
			}
			st := Snapshot().RunCache
			if st.Quarantined != 1 {
				t.Fatalf("quarantined %d entries, want exactly 1", st.Quarantined)
			}
			if st.DiskHits != 0 || st.Misses != 1 {
				t.Fatalf("corrupt entry load counted %d disk hits, %d misses; want a clean miss", st.DiskHits, st.Misses)
			}
			if _, err := os.Stat(files[0] + ".corrupt"); err != nil {
				t.Fatalf("corrupt entry not renamed: %v", err)
			}

			// The store healed: the recompute re-persisted, and a fresh
			// process serves it from disk without touching quarantine again.
			ResetRunCache()
			if err := SetRunCacheDir(dir); err != nil {
				t.Fatal(err)
			}
			third, err := runApp(context.Background(), cfg, policy.NewFixed(soc.LLCCohDMA), app, 7)
			if err != nil {
				t.Fatal(err)
			}
			if !sameMeasurements(third, first) {
				t.Error("post-heal disk hit differs from the original result")
			}
			st = Snapshot().RunCache
			if st.DiskHits != 1 || st.Quarantined != 0 {
				t.Fatalf("post-heal load counted %d disk hits, %d quarantines; want 1 and 0", st.DiskHits, st.Quarantined)
			}
		})
	}
}

// sameMeasurements compares two app results by everything a report
// consumes (totals and the per-phase series); revived results re-resolve
// accelerator identities against the config, so pointer-deep equality is
// deliberately not required.
func sameMeasurements(a, b *workload.AppResult) bool {
	return a.Cycles == b.Cycles && a.OffChip == b.OffChip && a.Policy == b.Policy &&
		reflect.DeepEqual(a.ExecSeries(), b.ExecSeries()) &&
		reflect.DeepEqual(a.MemSeries(), b.MemSeries())
}

// memoTestSetup resets the run cache around a test and restores the
// package defaults afterwards (the cache is process-global).
func memoTestSetup(t *testing.T) {
	t.Helper()
	ResetRunCache()
	t.Cleanup(func() {
		ResetRunCache()
		appRunMemo.enabled = true
		appRunMemo.cap = 1024
		if err := SetRunCacheDir(""); err != nil {
			t.Error(err)
		}
	})
}

// memoTestInputs builds a small (config, app) pair that simulates fast.
func memoTestInputs(t *testing.T) (*soc.Config, *workload.App) {
	t.Helper()
	cfg := soc.SoC6()
	app, err := workload.Generate(cfg, workload.GenConfig{MinInvocations: 12, Classes: []workload.SizeClass{workload.Small, workload.Medium}}, 3)
	if err != nil {
		t.Fatal(err)
	}
	return cfg, app
}

func TestRunCacheKeying(t *testing.T) {
	cfg, app := memoTestInputs(t)
	k1, ok := runCacheKey(cfg, policy.NewFixed(soc.NonCohDMA), app, 7)
	if !ok {
		t.Fatal("fixed policy must be memoizable")
	}
	k2, _ := runCacheKey(cfg, policy.NewFixed(soc.NonCohDMA), app, 7)
	if k1 != k2 {
		t.Error("identical inputs must key identically")
	}
	if k3, _ := runCacheKey(cfg, policy.NewFixed(soc.CohDMA), app, 7); k3 == k1 {
		t.Error("different mode must change the key")
	}
	if k4, _ := runCacheKey(cfg, policy.NewFixed(soc.NonCohDMA), app, 8); k4 == k1 {
		t.Error("different seed must change the key")
	}
	cfg2 := soc.SoC6()
	cfg2.L2KB *= 2
	if k5, _ := runCacheKey(cfg2, policy.NewFixed(soc.NonCohDMA), app, 7); k5 == k1 {
		t.Error("different cache geometry must change the key")
	}
	app2, err := workload.Generate(cfg, workload.GenConfig{MinInvocations: 12, Classes: []workload.SizeClass{workload.Small, workload.Medium}}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if k6, _ := runCacheKey(cfg, policy.NewFixed(soc.NonCohDMA), app2, 7); k6 == k1 {
		t.Error("different app must change the key")
	}
	if _, ok := runCacheKey(cfg, policy.NewRandom(1), app, 7); ok {
		t.Error("the random policy must not be memoizable (its RNG carries state across runs)")
	}
	agent, err := core.New(agentConfig(Tiny()))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := runCacheKey(cfg, agent, app, 7); ok {
		t.Error("learning policies must bypass the run cache")
	}
}

func TestRunCacheHitReturnsIdenticalInsulatedResult(t *testing.T) {
	memoTestSetup(t)
	cfg, app := memoTestInputs(t)

	first, err := runApp(context.Background(), cfg, policy.NewFixed(soc.LLCCohDMA), app, 7)
	if err != nil {
		t.Fatal(err)
	}
	st := Snapshot().RunCache
	if st.Misses != 1 || st.Hits != 0 {
		t.Fatalf("after cold run: %+v, want 1 miss", st)
	}
	second, err := runApp(context.Background(), cfg, policy.NewFixed(soc.LLCCohDMA), app, 7)
	if err != nil {
		t.Fatal(err)
	}
	st = Snapshot().RunCache
	if st.Hits != 1 {
		t.Fatalf("after warm run: %+v, want 1 hit", st)
	}
	if !reflect.DeepEqual(first.Phases, second.Phases) || first.Cycles != second.Cycles || first.OffChip != second.OffChip {
		t.Fatal("memoized result differs from the simulated one")
	}
	// Results are insulated: mutating one caller's copy must not leak
	// into the next hit.
	second.Phases[0].Cycles = 12345
	second.Phases[0].Invocations[0].ExecCycles = 999
	third, err := runApp(context.Background(), cfg, policy.NewFixed(soc.LLCCohDMA), app, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first.Phases, third.Phases) {
		t.Fatal("a caller's mutation leaked into the cache")
	}
}

func TestRunCacheCapacityEviction(t *testing.T) {
	memoTestSetup(t)
	appRunMemo.cap = 1
	cfg, app := memoTestInputs(t)

	if _, err := runApp(context.Background(), cfg, policy.NewFixed(soc.NonCohDMA), app, 7); err != nil {
		t.Fatal(err)
	}
	if _, err := runApp(context.Background(), cfg, policy.NewFixed(soc.LLCCohDMA), app, 7); err != nil {
		t.Fatal(err)
	}
	st := Snapshot().RunCache
	if st.Evictions == 0 {
		t.Fatalf("capacity 1 after two distinct runs: %+v, want an eviction", st)
	}
	// The evicted first key must miss (and resimulate) again.
	if _, err := runApp(context.Background(), cfg, policy.NewFixed(soc.NonCohDMA), app, 7); err != nil {
		t.Fatal(err)
	}
	if st = Snapshot().RunCache; st.Misses != 3 || st.Hits != 0 {
		t.Fatalf("after eviction: %+v, want 3 misses and no hits", st)
	}
}

func TestRunCachePersistenceRoundTrip(t *testing.T) {
	memoTestSetup(t)
	dir := t.TempDir()
	if err := SetRunCacheDir(dir); err != nil {
		t.Fatal(err)
	}
	cfg, app := memoTestInputs(t)

	fresh, err := runApp(context.Background(), cfg, policy.NewManual(), app, 7)
	if err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(dir, "run-v*.gob"))
	if err != nil || len(files) != 1 {
		t.Fatalf("cache dir files = %v (err %v), want exactly one", files, err)
	}

	// A fresh process is modeled by dropping the in-memory layer; the
	// disk copy must serve the rerun and revive identical results,
	// including the re-resolved accelerator identities.
	ResetRunCache()
	revived, err := runApp(context.Background(), cfg, policy.NewManual(), app, 7)
	if err != nil {
		t.Fatal(err)
	}
	st := Snapshot().RunCache
	if st.DiskHits != 1 || st.Misses != 0 {
		t.Fatalf("after warm-disk run: %+v, want 1 disk hit", st)
	}
	if revived.Cycles != fresh.Cycles || revived.OffChip != fresh.OffChip || revived.Policy != fresh.Policy {
		t.Fatal("revived totals differ")
	}
	if len(revived.Phases) != len(fresh.Phases) {
		t.Fatal("revived phase count differs")
	}
	for pi := range fresh.Phases {
		f, r := fresh.Phases[pi], revived.Phases[pi]
		if f.Name != r.Name || f.Cycles != r.Cycles || f.OffChip != r.OffChip || len(f.Invocations) != len(r.Invocations) {
			t.Fatalf("phase %d differs", pi)
		}
		for ii := range f.Invocations {
			fi, ri := f.Invocations[ii], r.Invocations[ii]
			if fi.Acc.InstName != ri.Acc.InstName || fi.Acc.ID != ri.Acc.ID ||
				fi.Acc.Spec.Name != ri.Acc.Spec.Name ||
				fi.Mode != ri.Mode || fi.FootprintBytes != ri.FootprintBytes ||
				fi.ExecCycles != ri.ExecCycles || fi.ActiveCycles != ri.ActiveCycles ||
				fi.CommCycles != ri.CommCycles || fi.OffChipApprox != ri.OffChipApprox ||
				fi.OffChipTrue != ri.OffChipTrue {
				t.Fatalf("phase %d invocation %d differs: %+v vs %+v", pi, ii, fi, ri)
			}
		}
	}

	// A corrupt file must miss cleanly, not fail the run.
	ResetRunCache()
	if err := os.WriteFile(files[0], []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := runApp(context.Background(), cfg, policy.NewManual(), app, 7); err != nil {
		t.Fatal(err)
	}
	if st := Snapshot().RunCache; st.Misses != 1 {
		t.Fatalf("after corrupt file: %+v, want a clean miss", st)
	}
}

// TestSweepByteIdenticalAcrossCacheModes renders a tiny sweep with the
// cache disabled, cold, and warm from a persisted directory: all three
// reports must be byte-identical, and the warm run must actually hit.
func TestSweepByteIdenticalAcrossCacheModes(t *testing.T) {
	memoTestSetup(t)
	opt := Tiny()
	opt.SweepScenarios = 2
	opt.Workers = 2

	appRunMemo.enabled = false
	off, err := Sweep(opt)
	if err != nil {
		t.Fatal(err)
	}
	offR := off.Render()

	appRunMemo.enabled = true
	dir := t.TempDir()
	if err := SetRunCacheDir(dir); err != nil {
		t.Fatal(err)
	}
	cold, err := Sweep(opt)
	if err != nil {
		t.Fatal(err)
	}
	coldR := cold.Render()
	coldStats := Snapshot().RunCache
	if coldStats.Misses == 0 {
		t.Fatalf("cold cached sweep recorded no misses: %+v", coldStats)
	}

	ResetRunCache() // model a fresh process over the same cache dir
	warm, err := Sweep(opt)
	if err != nil {
		t.Fatal(err)
	}
	warmR := warm.Render()
	warmStats := Snapshot().RunCache
	if warmStats.DiskHits == 0 {
		t.Fatalf("warm cached sweep hit nothing: %+v", warmStats)
	}

	if offR != coldR {
		t.Error("cache-off and cache-cold sweep reports differ")
	}
	if offR != warmR {
		t.Error("cache-off and cache-warm sweep reports differ")
	}
	if !strings.Contains(offR, "cohmeleon") {
		t.Error("sweep render looks broken")
	}
}
