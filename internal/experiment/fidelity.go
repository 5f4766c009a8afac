package experiment

import (
	"context"
	"crypto/sha256"
	"fmt"
	"path/filepath"
	"sync"

	"cohmeleon/internal/costmodel"
	"cohmeleon/internal/faultinject"
	"cohmeleon/internal/policy"
	"cohmeleon/internal/scenario"
	"cohmeleon/internal/soc"
	"cohmeleon/internal/store"
	"cohmeleon/internal/workload"
)

// Two-fidelity evaluation for the grid experiments (sweep, learners).
// Every cell is written once over the evaluator seam (harness.go);
// fidelity only chooses the evaluator. Full fidelity, the default, is
// the memoized cycle-accurate simulator. Screening fidelity is the
// estimator: internal/costmodel's analytical model, calibrated by least
// squares against cycle-accurate runs of a small pinned calibration
// grid (drawn through the same content-keyed run store, so the
// calibration simulations dedup and persist like any other run).
// Screened reports carry the calibration's held-out error bounds. This
// file holds the calibration and the fidelity notes.

// Fidelity mode names (Options.Fidelity; empty resolves to full).
const (
	FidelityFull      = "full"
	FidelityScreening = "screening"
)

// ValidFidelities lists the accepted mode names for error messages.
func ValidFidelities() string {
	return fmt.Sprintf("%s, %s", FidelityFull, FidelityScreening)
}

// fidelityMode resolves the option's fidelity (empty means full).
func (o Options) fidelityMode() string {
	if o.Fidelity == "" {
		return FidelityFull
	}
	return o.Fidelity
}

// Calibration grid: a few small scenarios, each run under every fixed
// uniform mode. The constants are part of the model's content key — a
// change refits rather than resurrecting stale coefficients. The seed
// salt keeps calibration scenarios disjoint from any experiment's own
// scenario sets (which derive from opt.Seed directly).
const (
	calibScenarios   = 3
	calibInvocations = 60
	calibSeedSalt    = 0x5eedc0defee1fa57
)

// calibSeed derives the calibration scenario seed from the options.
func calibSeed(opt Options) uint64 { return opt.Seed ^ calibSeedSalt }

// modelMemo caches fitted models in-process, keyed by calibration
// content. ResetRunCache clears it alongside the run memo. An entry is
// published before its model is ready, so concurrent callers of one key
// wait for a single load or fit, as runMemo.getOrRun does for runs.
var modelMemo = struct {
	mu      sync.Mutex
	entries map[runKey]*modelEntry
}{entries: make(map[runKey]*modelEntry)}

// modelEntry is one model, ready once done is closed. A failed load or
// fit leaves the memo before done closes, so waiters retry it.
type modelEntry struct {
	done chan struct{}
	m    *costmodel.Model
	err  error
}

// modelKey fingerprints everything that determines the fitted
// coefficients: the model format (feature set), the simulator timing
// model (runCacheVersion is its proxy, exactly as for run entries), and
// the calibration grid's identity.
func modelKey(opt Options) runKey {
	h := sha256.New()
	fmt.Fprintf(h, "costmodel|fmt%d|rc%d|nf%d|hold%d|scen%d|inv%d|seed%d|proto=%s\n",
		costmodel.FormatVersion, runCacheVersion, costmodel.NumFeatures,
		costmodel.HoldEvery, calibScenarios, calibInvocations,
		calibSeed(opt), opt.Protocol)
	var k runKey
	h.Sum(k[:0])
	return k
}

// modelCachePath names a model's file in the cache directory.
func modelCachePath(dir string, key runKey) string {
	return filepath.Join(dir, fmt.Sprintf("costmodel-v%d-%x.gob", costmodel.FormatVersion, key[:]))
}

// calibratedModel returns the fitted analytical model for the options,
// from the in-process memo, the cache directory, or a fresh
// calibration. Concurrent callers share one load or fit. Calibration is
// deterministic: scenarios, runs, and sample order are fixed functions
// of the content key, so identical inputs yield bit-identical
// coefficients on any machine or worker count.
func calibratedModel(ctx context.Context, opt Options) (*costmodel.Model, error) {
	key := modelKey(opt)
	for {
		modelMemo.mu.Lock()
		if e, ok := modelMemo.entries[key]; ok {
			modelMemo.mu.Unlock()
			select {
			case <-e.done:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			if e.err != nil {
				// The owner failed, perhaps only because its own context
				// ended; its entry is gone, so try again.
				continue
			}
			bump(modelMemoHits, 1)
			return e.m, nil
		}
		e := &modelEntry{done: make(chan struct{})}
		modelMemo.entries[key] = e
		modelMemo.mu.Unlock()

		e.m, e.err = loadOrFitModel(ctx, opt, key)
		if e.err != nil {
			modelMemo.mu.Lock()
			if modelMemo.entries[key] == e {
				delete(modelMemo.entries, key)
			}
			modelMemo.mu.Unlock()
		}
		close(e.done)
		return e.m, e.err
	}
}

// modelFaults are the cost-model files' failpoints: the run store's
// write points, and no read point.
var modelFaults = store.Faults{
	Create: faultinject.StoreCreate, Write: faultinject.StoreWrite, Rename: faultinject.StoreRename,
}

// loadOrFitModel loads the model for key from the cache directory or,
// failing that, fits it and persists the coefficients there. Corrupt
// coefficients quarantine like any other store entry, so the refit
// regenerates them exactly once.
func loadOrFitModel(ctx context.Context, opt Options, key runKey) (*costmodel.Model, error) {
	st := RunStore()
	var path string
	if st.Dir() != "" {
		path = modelCachePath(st.Dir(), key)
		var m *costmodel.Model
		status, _ := st.Read(path, modelFaults, func(data []byte) (err error) {
			m, err = costmodel.Decode(data)
			return err
		})
		if status == store.Hit {
			bump(modelDiskHits, 1)
			return m, nil
		}
	}

	m, err := fitModel(ctx, opt)
	if err != nil {
		return nil, err
	}
	bump(modelFits, 1)
	if path != "" {
		data, err := costmodel.Encode(m)
		if err == nil {
			err = store.WriteAtomic(path, data, modelFaults)
		}
		if err != nil {
			st.WriteFailed("cost model", err)
		}
	}
	return m, nil
}

// fitModel runs the calibration grid — calibScenarios small scenarios,
// each under every fixed uniform mode — through the cycle-accurate
// simulator (memoized and persisted like any static run) and fits the
// analytical model against every invocation, in fixed order.
func fitModel(ctx context.Context, opt Options) (*costmodel.Model, error) {
	scens, err := scenario.Sample(scenarioSpec(opt, calibInvocations), calibScenarios, calibSeed(opt))
	if err != nil {
		return nil, fmt.Errorf("experiment: calibration scenarios: %w", err)
	}
	apps := make([]*workload.App, len(scens))
	extractors := make([]*costmodel.Extractor, len(scens))
	for i, sc := range scens {
		if apps[i], err = sc.App(0); err != nil {
			return nil, fmt.Errorf("experiment: calibration app: %w", err)
		}
		if extractors[i], err = costmodel.NewExtractor(sc.Cfg); err != nil {
			return nil, fmt.Errorf("experiment: calibration extractor: %w", err)
		}
	}

	// One run per (scenario, uniform mode), fanned out; results land by
	// index so the harvested sample order is worker-count independent.
	nModes := int(soc.NumModes)
	runs := make([]*workload.AppResult, len(scens)*nModes)
	if err := forEachOpt(opt, len(runs), func(i int) error {
		si, mi := i/nModes, i%nModes
		sc := scens[si]
		res, err := runApp(ctx, sc.Cfg, policy.NewFixed(soc.AllModes[mi]), apps[si], sc.Seed+3)
		if err != nil {
			return fmt.Errorf("calibration %s/%s: %w", sc.Cfg.Name, soc.AllModes[mi], err)
		}
		runs[i] = res
		return nil
	}); err != nil {
		return nil, err
	}

	var samples []costmodel.Sample
	for i, res := range runs {
		si := i / nModes
		samples = harvestSamples(extractors[si], apps[si], res, i, samples)
	}
	m, err := costmodel.Fit(samples, opt.Protocol)
	if err != nil {
		return nil, fmt.Errorf("experiment: calibration fit: %w", err)
	}
	return m, nil
}

// harvestSamples appends one calibration sample per invocation of a
// cycle-accurate run, all tagged with the run's group index (the
// aggregate error bounds sum per group). The action is reconstructed
// from the recorded mode (calibration runs are uniform fixed-mode;
// persisted-run revival round-trips Mode, not Action).
func harvestSamples(ex *costmodel.Extractor, app *workload.App, res *workload.AppResult, group int, out []costmodel.Sample) []costmodel.Sample {
	for pi := range res.Phases {
		threads := len(app.Phases[pi].Threads)
		for _, inv := range res.Phases[pi].Invocations {
			ai, ok := ex.AccIndex(inv.Acc.InstName)
			if !ok {
				continue
			}
			var s costmodel.Sample
			ex.Features(ai, soc.ModeAction(inv.Mode), inv.FootprintBytes, threads, &s.X)
			s.Exec = float64(inv.ExecCycles)
			s.Mem = float64(inv.OffChipTrue)
			s.Group = group
			out = append(out, s)
		}
	}
	return out
}

// fidelityNotes renders the calibration error bounds every screened
// report carries, plus its coverage line.
func fidelityNotes(m *costmodel.Model, total int) []string {
	return []string{fmt.Sprintf(
		"fidelity=%s: analytical cost model calibrated on %d cycle-accurate samples (held-out: per-invocation MAPE %.1f%%/max %.1f%% on %d samples; per-run aggregate MAPE %.1f%%/max %.1f%%)",
		FidelityScreening, m.Err.FitSamples+m.Err.HeldOut, 100*m.Err.MAPE, 100*m.Err.MaxRel, m.Err.HeldOut,
		100*m.Err.AggMAPE, 100*m.Err.AggMax),
		fmt.Sprintf("all %d cells estimated analytically; no cycle-accurate verification", total)}
}
