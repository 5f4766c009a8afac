package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cohmeleon/internal/experiment"
)

// errFrom runs the CLI entry point and returns its error text.
func errFrom(t *testing.T, args ...string) string {
	t.Helper()
	err := run(args)
	if err == nil {
		t.Fatalf("run(%v) succeeded, want error", args)
	}
	return err.Error()
}

func TestRunRejectsUnknownExperimentListingValidIDs(t *testing.T) {
	msg := errFrom(t, "run", "bogus")
	for _, id := range []string{"fig9", "sweep", "table4"} {
		if !strings.Contains(msg, id) {
			t.Fatalf("error %q does not list valid id %q", msg, id)
		}
	}
}

func TestRunRejectsUnknownIDBeforeRunningAnything(t *testing.T) {
	// The typo is last: resolution must fail before table4 runs (and
	// prints); run returns the lookup error either way, so assert on it.
	msg := errFrom(t, "run", "-profile", "tiny", "table4", "bogus")
	if !strings.Contains(msg, "unknown id") {
		t.Fatalf("unexpected error: %q", msg)
	}
}

func TestRunRejectsExplicitBadWorkers(t *testing.T) {
	for _, w := range []string{"0", "-3"} {
		msg := errFrom(t, "run", "-workers", w, "table4")
		if !strings.Contains(msg, "-workers") {
			t.Fatalf("error %q does not explain the -workers flag", msg)
		}
	}
}

func TestRunRejectsExplicitBadScenarios(t *testing.T) {
	msg := errFrom(t, "run", "-scenarios", "0", "sweep")
	if !strings.Contains(msg, "-scenarios") {
		t.Fatalf("error %q does not explain the -scenarios flag", msg)
	}
}

func TestRunRejectsSweepFlagsWithoutSweep(t *testing.T) {
	for _, args := range [][]string{
		{"run", "-qtable-save", "x.gob", "table4"},
		{"run", "-qtable-load", "x.gob", "table4"},
		{"run", "-scenarios", "8", "table4"},
	} {
		msg := errFrom(t, args...)
		if !strings.Contains(msg, "only applies to the sweep") {
			t.Fatalf("args %v: error %q should explain the sweep-only flag", args, msg)
		}
	}
}

func TestRunRejectsUnknownLearnerListingValidNames(t *testing.T) {
	msg := errFrom(t, "run", "-learner", "sarsa", "fig9")
	for _, name := range []string{"-learner", "q", "double-q", "ucb1", "boltzmann"} {
		if !strings.Contains(msg, name) {
			t.Fatalf("error %q does not mention %q", msg, name)
		}
	}
}

func TestRunRejectsUnknownScheduleListingValidNames(t *testing.T) {
	msg := errFrom(t, "run", "-schedule", "cosine", "fig9")
	for _, name := range []string{"-schedule", "linear", "exp", "const"} {
		if !strings.Contains(msg, name) {
			t.Fatalf("error %q does not mention %q", msg, name)
		}
	}
}

func TestRunRejectsLearnerFlagsOnNonTrainingExperiments(t *testing.T) {
	for _, args := range [][]string{
		{"run", "-learner", "double-q", "table4"},
		{"run", "-schedule", "exp", "table4", "fig2"},
	} {
		msg := errFrom(t, args...)
		if !strings.Contains(msg, "train an agent") {
			t.Fatalf("args %v: error %q should explain the training-only flags", args, msg)
		}
		if !strings.Contains(msg, "learners") {
			t.Fatalf("args %v: error %q should list the training experiments", args, msg)
		}
	}
}

func TestRunRejectsNoIDs(t *testing.T) {
	msg := errFrom(t, "run")
	if !strings.Contains(msg, "sweep") {
		t.Fatalf("error %q should list valid ids", msg)
	}
}

func TestRunRejectsUnknownProfile(t *testing.T) {
	msg := errFrom(t, "run", "-profile", "huge", "table4")
	if !strings.Contains(msg, "profile") {
		t.Fatalf("unexpected error: %q", msg)
	}
}

func TestRunTinyTable4Succeeds(t *testing.T) {
	if err := run([]string{"run", "-profile", "tiny", "table4"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunRejectsProfilingWithParallelWorkers(t *testing.T) {
	for _, flag := range []string{"-cpuprofile", "-memprofile"} {
		msg := errFrom(t, "run", flag, "/tmp/p.prof", "-workers", "2", "table4")
		if !strings.Contains(msg, "-workers 1") {
			t.Fatalf("%s: error %q should require -workers 1", flag, msg)
		}
	}
}

func TestRunProfilesWrittenOnCleanExit(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.prof")
	heap := filepath.Join(dir, "heap.prof")
	if err := run([]string{"run", "-profile", "tiny", "-cpuprofile", cpu, "-memprofile", heap, "table4"}); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cpu, heap} {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile %s not written: %v", p, err)
		}
		if st.Size() == 0 {
			t.Fatalf("profile %s is empty", p)
		}
	}
}

func TestRunRejectsResumeWithoutCacheDir(t *testing.T) {
	msg := errFrom(t, "run", "-resume", "sweep")
	if !strings.Contains(msg, "-cache-dir") {
		t.Fatalf("error %q should require -cache-dir", msg)
	}
}

func TestRunRejectsResumeOnNonCheckpointedExperiments(t *testing.T) {
	msg := errFrom(t, "run", "-resume", "-cache-dir", t.TempDir(), "table4")
	if !strings.Contains(msg, "checkpointed") || !strings.Contains(msg, "sweep") {
		t.Fatalf("error %q should list the checkpointed experiments", msg)
	}
}

func TestRunRejectsSharedWithoutCacheDir(t *testing.T) {
	msg := errFrom(t, "run", "-shared", "sweep")
	if !strings.Contains(msg, "-cache-dir") {
		t.Fatalf("error %q should require -cache-dir", msg)
	}
}

func TestRunRejectsSharedOnNonCheckpointedExperiments(t *testing.T) {
	msg := errFrom(t, "run", "-shared", "-cache-dir", t.TempDir(), "table4")
	if !strings.Contains(msg, "checkpointed") || !strings.Contains(msg, "sweep") {
		t.Fatalf("error %q should list the checkpointed experiments", msg)
	}
}

func TestRunRejectsLeaseFlagsWithoutShared(t *testing.T) {
	for _, args := range [][]string{
		{"run", "-worker-id", "w1", "-cache-dir", os.TempDir(), "sweep"},
		{"run", "-lease-ttl", "5s", "-cache-dir", os.TempDir(), "sweep"},
	} {
		msg := errFrom(t, args...)
		if !strings.Contains(msg, "-shared") {
			t.Fatalf("error %q should point at -shared", msg)
		}
	}
}

func TestRunRejectsNegativeLeaseTTL(t *testing.T) {
	msg := errFrom(t, "run", "-shared", "-lease-ttl", "-5s", "-cache-dir", t.TempDir(), "sweep")
	if !strings.Contains(msg, "-lease-ttl") {
		t.Fatalf("error %q should explain the -lease-ttl flag", msg)
	}
}

// TestRunSharedSingleWorkerMatchesPlainRun: one -shared worker with
// nobody to share with is the degenerate fleet; its report must be
// byte-identical to the plain run and it must clean up its leases.
func TestRunSharedSingleWorkerMatchesPlainRun(t *testing.T) {
	// This test warms the in-memory run memo with tiny-sweep entries
	// that later store tests expect to simulate (and persist) cold.
	experiment.ResetRunCache()
	t.Cleanup(experiment.ResetRunCache)
	dir := t.TempDir()
	outPlain := filepath.Join(dir, "plain.txt")
	outShared := filepath.Join(dir, "shared.txt")
	if err := run([]string{"run", "-profile", "tiny", "-scenarios", "2", "-out", outPlain, "sweep"}); err != nil {
		t.Fatal(err)
	}
	cache := filepath.Join(dir, "cache")
	if err := run([]string{"run", "-profile", "tiny", "-scenarios", "2",
		"-shared", "-worker-id", "solo", "-cache-dir", cache, "-out", outShared, "sweep"}); err != nil {
		t.Fatal(err)
	}
	want := reportBody(t, outPlain)
	got := reportBody(t, outShared)
	if want != got {
		t.Fatalf("shared single-worker report differs from plain run:\n--- plain ---\n%s\n--- shared ---\n%s", want, got)
	}
	leases, _ := filepath.Glob(filepath.Join(cache, "leases", "*", "*.lease"))
	if len(leases) != 0 {
		t.Fatalf("leases left behind: %v", leases)
	}
}

// reportBody reads a report file with its wall-clock footer lines
// stripped (the only legitimately varying bytes).
func reportBody(t *testing.T, path string) string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var kept []string
	for _, line := range strings.Split(string(data), "\n") {
		if strings.Contains(line, "completed in") {
			continue
		}
		kept = append(kept, line)
	}
	return strings.Join(kept, "\n")
}

func TestRunRejectsCacheVerifyWithoutCacheDir(t *testing.T) {
	msg := errFrom(t, "run", "-cache-verify", "table4")
	if !strings.Contains(msg, "-cache-dir") {
		t.Fatalf("error %q should require -cache-dir", msg)
	}
}

func TestRunCacheVerifyWithoutIDsIsAnFsckOnlyRun(t *testing.T) {
	if err := run([]string{"run", "-cache-verify", "-cache-dir", t.TempDir()}); err != nil {
		t.Fatal(err)
	}
}

func TestRunCacheVerifyQuarantinesCorruptEntries(t *testing.T) {
	dir := t.TempDir()
	args := []string{"run", "-profile", "tiny", "-scenarios", "2", "-cache-dir", dir, "sweep"}
	if err := run(args); err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(dir, "run-v*.gob"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no persisted runs to corrupt (%v, err %v)", files, err)
	}
	if err := os.WriteFile(files[0], []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	experiment.ResetRunCache()
	msg := errFrom(t, "run", "-cache-verify", "-cache-dir", dir)
	if !strings.Contains(msg, "quarantined") {
		t.Fatalf("fsck over a corrupted store returned %q, want a quarantine report", msg)
	}
	if _, err := os.Stat(files[0] + ".corrupt"); err != nil {
		t.Fatalf("corrupt entry not renamed: %v", err)
	}
	// The store healed: a second pass is clean.
	experiment.ResetRunCache()
	if err := run([]string{"run", "-cache-verify", "-cache-dir", dir}); err != nil {
		t.Fatalf("second fsck after quarantine: %v", err)
	}
}

func TestRunResumeReplaysCheckpointedCells(t *testing.T) {
	dir := t.TempDir()
	out1 := filepath.Join(t.TempDir(), "first.txt")
	out2 := filepath.Join(t.TempDir(), "second.txt")
	base := []string{"run", "-profile", "tiny", "-scenarios", "2", "-cache-dir", dir}
	if err := run(append(base, "-out", out1, "sweep")); err != nil {
		t.Fatal(err)
	}
	if st := experiment.Snapshot().Checkpoint; st.Saved == 0 {
		t.Fatalf("first run saved no checkpoint cells: %+v", st)
	}
	experiment.ResetRunCache()
	experiment.ResetCheckpointStats()
	if err := run(append(base, "-resume", "-out", out2, "sweep")); err != nil {
		t.Fatal(err)
	}
	if st := experiment.Snapshot().Checkpoint; st.Replayed == 0 {
		t.Fatalf("resumed run replayed no cells: %+v", st)
	}
	first, err := os.ReadFile(out1)
	if err != nil {
		t.Fatal(err)
	}
	second, err := os.ReadFile(out2)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := stripTimings(string(second)), stripTimings(string(first)); got != want {
		t.Fatalf("resumed report differs from original:\n--- original ---\n%s\n--- resumed ---\n%s", want, got)
	}
}

// stripTimings drops the wall-clock completion lines, the only
// legitimately nondeterministic part of a rendered report.
func stripTimings(s string) string {
	var out []string
	for _, line := range strings.Split(s, "\n") {
		if strings.Contains(line, "completed in") {
			continue
		}
		out = append(out, line)
	}
	return strings.Join(out, "\n")
}

func TestRunCacheDirPersistsAcrossInvocations(t *testing.T) {
	dir := t.TempDir()
	args := []string{"run", "-profile", "tiny", "-scenarios", "2", "-cache-dir", dir, "sweep"}
	if err := run(args); err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(dir, "run-v*.gob"))
	if err != nil || len(files) == 0 {
		t.Fatalf("cache dir holds %v (err %v), want persisted runs", files, err)
	}
	experiment.ResetRunCache()
	if err := run(args); err != nil {
		t.Fatal(err)
	}
	if st := experiment.Snapshot().RunCache; st.DiskHits == 0 {
		t.Fatalf("second invocation over the cache dir hit nothing: %+v", st)
	}
}
