package experiment

import (
	"context"
	"errors"
	"testing"

	"cohmeleon/internal/faultinject"
)

// resumeTestSetup resets cache and checkpoint state around a test and
// arms cleanup for the process-global fault script.
func resumeTestSetup(t *testing.T) {
	t.Helper()
	memoTestSetup(t)
	ResetCheckpointStats()
	t.Cleanup(func() {
		faultinject.Disable()
		ResetCheckpointStats()
	})
}

// sweepResumeOptions is the tiny sweep the crash-safety properties are
// checked on: small enough to interrupt at every cell, large enough
// that an interrupt always leaves work behind.
func sweepResumeOptions() Options {
	opt := Tiny()
	opt.SweepScenarios = 3
	return opt
}

// TestSweepInterruptAtEveryCellThenResumeIsByteIdentical is the
// correctness pin for checkpoint/resume: a sweep cancelled at each
// possible cell index, then resumed from its checkpoints, must render
// the exact report of an uninterrupted run — and leave a store that
// fscks clean.
func TestSweepInterruptAtEveryCellThenResumeIsByteIdentical(t *testing.T) {
	resumeTestSetup(t)
	opt := sweepResumeOptions()
	ref, err := Sweep(opt)
	if err != nil {
		t.Fatal(err)
	}
	refText := ref.Render()

	for k := 0; k < opt.SweepScenarios; k++ {
		dir := t.TempDir()
		ResetRunCache()
		ResetCheckpointStats()
		if err := SetRunCacheDir(dir); err != nil {
			t.Fatal(err)
		}

		// Cancel exactly when cell k dispatches. Workers that already
		// hold other cells finish them (and checkpoint); cell k itself
		// aborts at its first app-run boundary.
		ctx, cancel := context.WithCancel(context.Background())
		faultinject.Enable(faultinject.NewScript(faultinject.Rule{
			Point:  faultinject.Trial,
			N:      k,
			Action: faultinject.Action{Call: cancel},
		}))
		iopt := opt
		iopt.Ctx = ctx
		_, err := Sweep(iopt)
		faultinject.Disable()
		cancel()
		if err == nil {
			t.Fatalf("cell %d: interrupted sweep reported success", k)
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cell %d: interrupted sweep failed with %v, want a context.Canceled chain", k, err)
		}

		ropt := opt
		ropt.Resume = true
		res, err := Sweep(ropt)
		if err != nil {
			t.Fatalf("cell %d: resume: %v", k, err)
		}
		if got := res.Render(); got != refText {
			t.Errorf("cell %d: resumed report differs from uninterrupted run:\n--- want ---\n%s\n--- got ---\n%s", k, refText, got)
		}
		v, err := VerifyRunCache(dir)
		if err != nil {
			t.Fatalf("cell %d: fsck: %v", k, err)
		}
		if !v.Clean() {
			t.Errorf("cell %d: store dirty after interrupt+resume: %s", k, v)
		}
	}
}

// TestSweepResumeReplaysInsteadOfRecomputing pins that resume actually
// serves checkpointed cells rather than quietly re-simulating them.
func TestSweepResumeReplaysInsteadOfRecomputing(t *testing.T) {
	resumeTestSetup(t)
	opt := sweepResumeOptions()
	if err := SetRunCacheDir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	if _, err := Sweep(opt); err != nil {
		t.Fatal(err)
	}
	if st := Snapshot().Checkpoint; st.Saved != int64(opt.SweepScenarios) {
		t.Fatalf("first run saved %d cells, want %d", st.Saved, opt.SweepScenarios)
	}
	ResetCheckpointStats()
	ropt := opt
	ropt.Resume = true
	if _, err := Sweep(ropt); err != nil {
		t.Fatal(err)
	}
	st := Snapshot().Checkpoint
	if st.Replayed != int64(opt.SweepScenarios) || st.Saved != 0 {
		t.Fatalf("resume replayed %d and saved %d cells, want %d and 0", st.Replayed, st.Saved, opt.SweepScenarios)
	}
}

// TestLearnersInterruptResumeIsByteIdentical runs the same pin on the
// learners grid, whose cells embed no learner state but cover the
// two-stage (prep, grid) shape.
func TestLearnersInterruptResumeIsByteIdentical(t *testing.T) {
	resumeTestSetup(t)
	opt := Tiny()
	opt.LearnerScenarios = 2
	ref, err := Learners(opt)
	if err != nil {
		t.Fatal(err)
	}
	refText := ref.Render()

	dir := t.TempDir()
	ResetRunCache()
	if err := SetRunCacheDir(dir); err != nil {
		t.Fatal(err)
	}
	// Cancel mid-grid. The grid is the second forEach, but Trial indices
	// are not namespaced per loop: index 1 fires in the 2-cell prep stage
	// first, so the interrupt lands there — which is fine, the property
	// must hold wherever the cut falls.
	ctx, cancel := context.WithCancel(context.Background())
	faultinject.Enable(faultinject.NewScript(faultinject.Rule{
		Point:  faultinject.Trial,
		N:      1,
		Action: faultinject.Action{Call: cancel},
	}))
	iopt := opt
	iopt.Ctx = ctx
	_, err = Learners(iopt)
	faultinject.Disable()
	cancel()
	if err == nil {
		t.Fatal("interrupted learners run reported success")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted learners run failed with %v, want a context.Canceled chain", err)
	}

	ropt := opt
	ropt.Resume = true
	res, err := Learners(ropt)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if got := res.Render(); got != refText {
		t.Errorf("resumed learners report differs from uninterrupted run:\n--- want ---\n%s\n--- got ---\n%s", refText, got)
	}
}

// TestInjectedStoreFaultsNeverChangeReports is the degraded-store pin:
// a fault at any persistence point downgrades the store (recompute, skip
// persisting, quarantine) but never changes a report or fails a run —
// and the store the faults left behind still resumes identically.
func TestInjectedStoreFaultsNeverChangeReports(t *testing.T) {
	resumeTestSetup(t)
	opt := sweepResumeOptions()
	ref, err := Sweep(opt)
	if err != nil {
		t.Fatal(err)
	}
	refText := ref.Render()

	points := []faultinject.Point{
		faultinject.StoreOpen, faultinject.StoreCreate,
		faultinject.StoreWrite, faultinject.StoreRename,
		faultinject.CkptOpen, faultinject.CkptCreate,
		faultinject.CkptWrite, faultinject.CkptRename,
	}
	scripts := map[string]*faultinject.Script{
		"random-campaign": faultinject.RandomFaults(99, points, 4, 12),
	}
	for _, p := range points {
		scripts[string(p)] = faultinject.NewScript(faultinject.Fail(p, 1), faultinject.Fail(p, 2))
	}
	for name, script := range scripts {
		dir := t.TempDir()
		ResetRunCache()
		if err := SetRunCacheDir(dir); err != nil {
			t.Fatal(err)
		}
		fopt := opt
		fopt.Resume = true // empty checkpoint: exercises the ckpt read path too
		faultinject.Enable(script)
		res, err := Sweep(fopt)
		faultinject.Disable()
		if err != nil {
			t.Fatalf("%s: injected store fault failed the run: %v", name, err)
		}
		if got := res.Render(); got != refText {
			t.Errorf("%s: injected store fault changed the report", name)
		}
		// The degraded store must still serve a clean, identical resume.
		ResetRunCache()
		if err := SetRunCacheDir(dir); err != nil {
			t.Fatal(err)
		}
		res2, err := Sweep(fopt)
		if err != nil {
			t.Fatalf("%s: rerun over degraded store: %v", name, err)
		}
		if got := res2.Render(); got != refText {
			t.Errorf("%s: rerun over degraded store changed the report", name)
		}
	}
}

// TestInjectedWorkerPanicSurfacesAndStorePersists pins panic hygiene at
// the experiment level: an injected worker panic propagates as a
// TrialPanic carrying the injected value, and the cells completed before
// the panic still allow an identical resumed report afterwards.
func TestInjectedWorkerPanicSurfacesAndStorePersists(t *testing.T) {
	resumeTestSetup(t)
	opt := sweepResumeOptions()
	opt.Workers = 2 // the worker-pool path; inline trials re-raise raw by design
	ref, err := Sweep(opt)
	if err != nil {
		t.Fatal(err)
	}
	refText := ref.Render()

	dir := t.TempDir()
	ResetRunCache()
	if err := SetRunCacheDir(dir); err != nil {
		t.Fatal(err)
	}
	func() {
		defer func() {
			r := recover()
			if r == nil {
				t.Fatal("injected panic did not propagate")
			}
			tp, ok := r.(*TrialPanic)
			if !ok {
				t.Fatalf("recovered %T (%v), want *TrialPanic", r, r)
			}
			if tp.Value != "injected-worker-panic" {
				t.Fatalf("TrialPanic carries %v, want the injected value", tp.Value)
			}
		}()
		faultinject.Enable(faultinject.NewScript(faultinject.Rule{
			Point:  faultinject.Trial,
			N:      opt.SweepScenarios - 1,
			Action: faultinject.Action{Panic: "injected-worker-panic"},
		}))
		defer faultinject.Disable()
		Sweep(opt)
	}()

	ropt := opt
	ropt.Resume = true
	res, err := Sweep(ropt)
	if err != nil {
		t.Fatalf("resume after panic: %v", err)
	}
	if got := res.Render(); got != refText {
		t.Errorf("report after worker panic differs from uninterrupted run")
	}
}

// TestAutoLearnersResumeScreensNothing: auto learners screens a
// scenario only when one of its cells computes, so resuming a fully
// checkpointed run replays every cell, screens none, and renders the
// same report.
func TestAutoLearnersResumeScreensNothing(t *testing.T) {
	resumeTestSetup(t)
	opt := Tiny()
	opt.LearnerScenarios = 2
	opt.Fidelity = FidelityAuto
	if err := SetRunCacheDir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	ref, err := Learners(opt)
	if err != nil {
		t.Fatal(err)
	}
	cells := Snapshot().Checkpoint.Saved
	if st := Snapshot().Fidelity; st.ScreenedCells != cells {
		t.Fatalf("first run screened %d of its %d cells, want all", st.ScreenedCells, cells)
	}
	ResetRunCache()
	ResetCheckpointStats()
	ropt := opt
	ropt.Resume = true
	res, err := Learners(ropt)
	if err != nil {
		t.Fatal(err)
	}
	if st := Snapshot().Checkpoint; st.Replayed != cells || st.Saved != 0 {
		t.Fatalf("resume replayed %d and saved %d cells, want %d and 0", st.Replayed, st.Saved, cells)
	}
	if st := Snapshot().Fidelity; st.ScreenedCells != 0 {
		t.Fatalf("fully replayed resume screened %d cells, want 0", st.ScreenedCells)
	}
	if got, want := res.Render(), ref.Render(); got != want {
		t.Fatalf("resumed report differs:\n--- want ---\n%s\n--- got ---\n%s", want, got)
	}
}
