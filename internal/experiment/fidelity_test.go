package experiment

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"cohmeleon/internal/costmodel"
)

// Pinned held-out accuracy floor for the calibrated cost model on the
// test seed: regressions in the feature set, the fit, or the calibration
// grid that blow past these bounds fail here (and in the CI screening
// smoke, which runs this test), not silently in the error bounds a
// screened report prints.
const (
	pinnedMAPE    = 0.60 // per-invocation mean relative error
	pinnedAggMAPE = 0.45 // per-run aggregate mean relative error
)

// fidelityTestSetup clears the process-global model memo and counters
// around a test (they are shared exactly like the run cache).
func fidelityTestSetup(t *testing.T) {
	t.Helper()
	memoTestSetup(t)
}

// screeningSweepOptions is sweepOptions at screening fidelity.
func screeningSweepOptions() Options {
	opt := sweepOptions()
	opt.Fidelity = FidelityScreening
	return opt
}

// nonFullFidelities are the modes that run cells under the estimator.
var nonFullFidelities = []string{FidelityScreening}

// TestScreeningSweepDeterministicAcrossWorkers: a screened sweep
// report must be byte-identical whether calibration and screening run
// sequentially or on eight workers — the same
// property the cycle-accurate harness guarantees, extended to the
// analytical path.
func TestScreeningSweepDeterministicAcrossWorkers(t *testing.T) {
	for _, fid := range nonFullFidelities {
		t.Run(fid, func(t *testing.T) {
			fidelityTestSetup(t)
			render := func(workers int) string {
				ResetRunCache() // force a fresh calibration fit under this worker count
				opt := sweepOptions()
				opt.Fidelity = fid
				opt.Workers = workers
				rep, err := Sweep(opt)
				if err != nil {
					t.Fatal(err)
				}
				return rep.Render()
			}
			seq := render(1)
			par := render(8)
			if seq != par {
				t.Fatalf("%s sweep report differs between workers=1 and workers=8:\n--- seq ---\n%s\n--- par ---\n%s", fid, seq, par)
			}
			if !strings.Contains(seq, "fidelity="+fid) {
				t.Fatalf("%s report missing the fidelity note:\n%s", fid, seq)
			}
		})
	}
}

// TestScreeningLearnersDeterministicAcrossWorkers: the same property
// for the learner grid at screening fidelity.
func TestScreeningLearnersDeterministicAcrossWorkers(t *testing.T) {
	for _, fid := range nonFullFidelities {
		t.Run(fid, func(t *testing.T) {
			fidelityTestSetup(t)
			render := func(workers int) string {
				ResetRunCache()
				opt := learnerTestOptions()
				opt.Fidelity = fid
				opt.Workers = workers
				res, err := Learners(opt)
				if err != nil {
					t.Fatal(err)
				}
				return res.Render()
			}
			seq := render(1)
			par := render(8)
			if seq != par {
				t.Fatalf("%s learners report differs between workers=1 and workers=8:\n--- seq ---\n%s\n--- par ---\n%s", fid, seq, par)
			}
			if !strings.Contains(seq, "fidelity="+fid) {
				t.Fatalf("%s report missing the fidelity note:\n%s", fid, seq)
			}
		})
	}
}

// TestCalibrationRefitBitIdentical: two independent calibrations from
// the same options must produce bit-identical coefficients — and stay
// within the pinned held-out accuracy floor.
func TestCalibrationRefitBitIdentical(t *testing.T) {
	fidelityTestSetup(t)
	opt := Tiny()
	m1, err := calibratedModel(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	ResetRunCache() // drop the model memo and the memoized calibration runs
	m2, err := calibratedModel(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if m1.ExecCoef != m2.ExecCoef || m1.MemCoef != m2.MemCoef {
		t.Fatal("refit from scratch changed coefficients")
	}
	if m1.Err != m2.Err {
		t.Fatalf("refit changed error bounds: %+v vs %+v", m1.Err, m2.Err)
	}
	if st := Snapshot().Fidelity; st.ModelFits != 1 {
		t.Fatalf("second calibration performed %d fits, want exactly 1", st.ModelFits)
	}
	if m1.Err.MAPE > pinnedMAPE {
		t.Fatalf("held-out MAPE %.3f above the pinned %.2f floor", m1.Err.MAPE, pinnedMAPE)
	}
	if m1.Err.AggMAPE > pinnedAggMAPE {
		t.Fatalf("held-out aggregate MAPE %.3f above the pinned %.2f floor", m1.Err.AggMAPE, pinnedAggMAPE)
	}
}

// TestModelDiskCacheAndQuarantine: a fitted model persists under
// -cache-dir, serves the next process from disk bit-exactly, and a
// corrupted file quarantines and refits exactly once — the run store's
// self-healing contract applied to coefficients.
func TestModelDiskCacheAndQuarantine(t *testing.T) {
	fidelityTestSetup(t)
	dir := t.TempDir()
	if err := SetRunCacheDir(dir); err != nil {
		t.Fatal(err)
	}
	opt := Tiny()
	first, err := calibratedModel(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(dir, "costmodel-v*.gob"))
	if err != nil || len(files) != 1 {
		t.Fatalf("persisted %v (err %v), want exactly one model file", files, err)
	}

	// Fresh process: the model must come from disk, not a refit.
	ResetRunCache()
	if err := SetRunCacheDir(dir); err != nil {
		t.Fatal(err)
	}
	again, err := calibratedModel(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if again.ExecCoef != first.ExecCoef || again.MemCoef != first.MemCoef {
		t.Fatal("disk-loaded model differs from the fitted one")
	}
	if st := Snapshot().Fidelity; st.ModelDiskHits != 1 || st.ModelFits != 0 {
		t.Fatalf("disk load counted %d disk hits, %d fits; want 1 and 0", st.ModelDiskHits, st.ModelFits)
	}

	// Corrupt the file: the next load must quarantine it, refit to the
	// same coefficients, and re-persist.
	data, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(files[0], data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	ResetRunCache()
	if err := SetRunCacheDir(dir); err != nil {
		t.Fatal(err)
	}
	healed, err := calibratedModel(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if healed.ExecCoef != first.ExecCoef {
		t.Fatal("post-quarantine refit differs from the original fit")
	}
	if st := Snapshot().Fidelity; st.ModelDiskHits != 0 || st.ModelFits != 1 {
		t.Fatalf("corrupt load counted %d disk hits, %d fits; want 0 and 1", st.ModelDiskHits, st.ModelFits)
	}
	if _, err := os.Stat(files[0] + ".corrupt"); err != nil {
		t.Fatalf("corrupt model file not quarantined: %v", err)
	}
	if _, err := os.Stat(files[0]); err != nil {
		t.Fatalf("refit model not re-persisted: %v", err)
	}
}

// TestVerifyQuarantinesCorruptCostModel: the fsck decodes every
// current-version cost-model file, quarantines a corrupt one as a load
// would, and counts other versions as stale without reading them.
func TestVerifyQuarantinesCorruptCostModel(t *testing.T) {
	fidelityTestSetup(t)
	dir := t.TempDir()
	if err := SetRunCacheDir(dir); err != nil {
		t.Fatal(err)
	}
	good, err := costmodel.Encode(&costmodel.Model{Protocol: "mesi"})
	if err != nil {
		t.Fatal(err)
	}
	bad := modelCachePath(dir, runKey{1})
	stale := filepath.Join(dir, fmt.Sprintf("costmodel-v%d-%x.gob", costmodel.FormatVersion+1, runKey{2}))
	for path, data := range map[string][]byte{
		modelCachePath(dir, runKey{0}): good,
		bad:                            []byte("not a model"),
		stale:                          []byte("another format"),
	} {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	res, err := VerifyRunCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if res.Models != 2 || res.ModelsOK != 1 || res.Quarantined != 1 || res.Stale != 1 || res.Clean() {
		t.Fatalf("fsck = %v; want 1/2 cost models ok, 1 quarantined, 1 stale", res)
	}
	if _, err := os.Stat(bad + ".corrupt"); err != nil {
		t.Fatalf("corrupt cost model not quarantined: %v", err)
	}
	if _, err := os.Stat(stale); err != nil {
		t.Fatalf("stale cost model not left in place: %v", err)
	}
	if res, err := VerifyRunCache(dir); err != nil || !res.Clean() || res.PriorQuarantine != 1 {
		t.Fatalf("second fsck = %v, %v; want clean with 1 prior quarantine", res, err)
	}
}

// TestFidelityOptionsValidate: unknown modes and screened Q-table
// exports are rejected up front, with the valid set named.
func TestFidelityOptionsValidate(t *testing.T) {
	for _, fid := range []string{"approximate", "auto"} {
		opt := Tiny()
		opt.Fidelity = fid
		err := opt.Validate()
		if err == nil {
			t.Fatalf("unknown fidelity %q accepted", fid)
		}
		if want := "(valid: full, screening)"; !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not name exactly the valid modes %s", err, want)
		}
	}
	opt := Tiny()
	opt.Fidelity = FidelityScreening
	opt.QTableSave = "trained.qtable"
	if err := opt.Validate(); err == nil {
		t.Fatal("Q-table export under screening fidelity accepted")
	}
	opt.QTableSave = ""
	if err := opt.Validate(); err != nil {
		t.Fatalf("screening fidelity alone rejected: %v", err)
	}
}

// TestFidelityStatsSurface: a screened sweep must surface its traffic
// in the diagnostics snapshot (/statsz serves exactly this struct).
func TestFidelityStatsSurface(t *testing.T) {
	fidelityTestSetup(t)
	if _, err := Sweep(screeningSweepOptions()); err != nil {
		t.Fatal(err)
	}
	st := Snapshot().Fidelity
	if st.ModelFits != 1 {
		t.Fatalf("snapshot counts %d model fits, want 1", st.ModelFits)
	}
	if st.ScreenedCells != 2 {
		t.Fatalf("snapshot counts %d screened cells, want 2", st.ScreenedCells)
	}
	if st.EscalatedCells != 0 {
		t.Fatalf("snapshot counts %d escalated cells, want 0: no mode escalates", st.EscalatedCells)
	}
}

// TestCalibrationSingleFlight: concurrent screened sweeps in one
// process must share one calibration fit (the second waits for the
// first's model) and render identical reports.
func TestCalibrationSingleFlight(t *testing.T) {
	fidelityTestSetup(t)
	opt := screeningSweepOptions()
	opt.SweepScenarios = 1
	var reports [2]string
	var errs [2]error
	var wg sync.WaitGroup
	for i := range reports {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rep, err := Sweep(opt)
			if err != nil {
				errs[i] = err
				return
			}
			reports[i] = rep.Render()
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if st := Snapshot().Fidelity; st.ModelFits != 1 || st.ModelMemoHits != 1 {
		t.Fatalf("concurrent sweeps performed %d fits and %d memo hits, want 1 and 1", st.ModelFits, st.ModelMemoHits)
	}
	if reports[0] != reports[1] {
		t.Fatalf("concurrent screened sweeps differ:\n--- first ---\n%s\n--- second ---\n%s", reports[0], reports[1])
	}
}
