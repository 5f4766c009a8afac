package experiment

import (
	"context"
	"crypto/sha256"
	"fmt"
	"path/filepath"
	"sync"

	"cohmeleon/internal/esp"
	"cohmeleon/internal/faultinject"
	"cohmeleon/internal/sim"
	"cohmeleon/internal/soc"
	"cohmeleon/internal/store"
	"cohmeleon/internal/workload"
)

// Content-keyed memoization of application runs. A static (non-learning)
// policy makes an app run a pure function of (SoC configuration, policy,
// application, seed): the simulator is deterministic, a fresh SoC is
// built per run, and the policy neither holds mutable state nor observes
// anything it retains. runApp therefore consults a process-wide memo
// keyed by a content hash of those four before simulating, and —
// when a cache directory is configured — a persistent store, so
// repeated artifact regeneration skips the simulation entirely.
//
// Policies opt in by implementing MemoKey (Fixed, Manual and
// FixedHeterogeneous do). Learning policies and Random bypass the cache:
// their runs mutate policy state (value tables, reward history, RNG
// position), so replaying a stored result would diverge from a real run.
// Byte-identity of every report — across worker counts and with the
// cache cold, warm or disabled — follows from the memoized value being
// exactly the value a fresh simulation would produce.

// memoKeyed marks a policy whose app runs are pure functions of the run
// inputs. The key must change whenever the policy's decisions could.
type memoKeyed interface{ MemoKey() string }

// runCacheVersion tags the content hash and the persisted-run format.
// Bump it whenever the simulator's timing model or the persisted layout
// changes: stale cache directories then miss cleanly instead of
// resurrecting results from an older model. Version 2 framed every
// entry in the store's checksummed envelope (internal/store), so
// corruption is detected by re-hashing rather than by hoping gob
// notices.
const runCacheVersion = 2

type runKey [sha256.Size]byte

// runCacheKey derives the content key, reporting ok=false when the
// policy is not memoizable.
func runCacheKey(cfg *soc.Config, pol esp.Policy, app *workload.App, seed uint64) (runKey, bool) {
	mk, ok := pol.(memoKeyed)
	if !ok {
		return runKey{}, false
	}
	h := sha256.New()
	fmt.Fprintf(h, "cohrun|v%d|seed%d|pol|%s|%s|ovh%d\n",
		runCacheVersion, seed, pol.Name(), mk.MemoKey(), pol.OverheadCycles())
	cfg.HashContent(h)
	app.HashContent(h)
	// Reuse functions are opaque, but a run only ever evaluates them at
	// the app's thread footprints: probing those outputs pins their
	// behavioral contribution exactly.
	for _, fp := range app.Footprints() {
		for i := range cfg.Accs {
			spec := cfg.Accs[i].Spec
			fmt.Fprintf(h, "reuse|%s|%d|%d\n", cfg.Accs[i].InstName, fp, spec.Reuse(fp, spec.PLMBytes))
		}
	}
	var k runKey
	h.Sum(k[:0])
	return k, true
}

// memoEntry is one in-flight or completed run. Waiters block on done;
// res is the insulated master copy (callers get clones).
type memoEntry struct {
	done chan struct{}
	res  *workload.AppResult
	err  error
}

type runMemo struct {
	mu      sync.Mutex
	enabled bool // off: every runApp simulates and nothing is stored (identity tests)
	cap     int  // in-process entry bound; oldest entries evict first
	store   *store.Store
	entries map[runKey]*memoEntry
	order   []runKey // insertion order, for capacity eviction
}

// appRunMemo is the process-wide run cache. In-process memoization is
// always on (results are byte-identical either way — see the file
// comment); persistence activates when its store has a directory.
var appRunMemo = &runMemo{
	enabled: true,
	cap:     1024,
	store:   &store.Store{},
	entries: make(map[runKey]*memoEntry),
}

// SetRunCacheDir opens the process store over dir (see store.Open): an
// empty dir disables persistence but keeps the in-process memo. The
// new store starts with zeroed failure counters.
func SetRunCacheDir(dir string) error {
	st, err := store.Open(dir)
	if err != nil {
		return err
	}
	appRunMemo.mu.Lock()
	defer appRunMemo.mu.Unlock()
	appRunMemo.store = st
	return nil
}

// RunStore returns the process store: every durable file under the
// cache directory is read, written and counted through it.
func RunStore() *store.Store {
	appRunMemo.mu.Lock()
	defer appRunMemo.mu.Unlock()
	return appRunMemo.store
}

// ResetRunCache drops every in-process run and model entry and zeroes
// every counter but the checkpoint ones (ResetCheckpointStats); the
// cache directory setting (and its files) are untouched.
func ResetRunCache() {
	appRunMemo.mu.Lock()
	defer appRunMemo.mu.Unlock()
	appRunMemo.entries = make(map[runKey]*memoEntry)
	appRunMemo.order = nil
	appRunMemo.store.Reset()
	processCounters.reset(0, ckptReplayed)
	modelMemo.mu.Lock()
	modelMemo.entries = make(map[runKey]*modelEntry)
	modelMemo.mu.Unlock()
}

// getOrRun returns the memoized result for key, loading it from the
// persistent store or simulating via run on a miss. Concurrent callers
// of the same key share one simulation — including callers from
// different serve-mode jobs, whose contexts carry their own counters so
// each job sees its share of the dedup.
func (m *runMemo) getOrRun(ctx context.Context, key runKey, cfg *soc.Config, app *workload.App, run func() (*workload.AppResult, error)) (*workload.AppResult, error) {
	m.mu.Lock()
	if e, ok := m.entries[key]; ok {
		m.mu.Unlock()
		<-e.done
		if e.err != nil {
			// The owning computation failed; recompute uncached so every
			// caller surfaces the (deterministic) error independently.
			return run()
		}
		bumpJob(ctx, runMemoHits)
		return cloneAppResult(e.res), nil
	}
	e := &memoEntry{done: make(chan struct{})}
	m.entries[key] = e
	m.order = append(m.order, key)
	m.evictLocked()
	st := m.store
	m.mu.Unlock()

	if st.Dir() != "" {
		// Absent, corrupt (now quarantined), and unreadable entries all
		// fall through to simulation; only a verified entry is served.
		if res, ok := loadPersistedRun(st, key, cfg, app); ok {
			bumpJob(ctx, runDiskHits)
			e.res = res
			close(e.done)
			return cloneAppResult(res), nil
		}
	}
	res, err := run()
	if err != nil {
		e.err = err
		close(e.done)
		m.mu.Lock()
		delete(m.entries, key)
		m.mu.Unlock()
		return nil, err
	}
	bumpJob(ctx, runMisses)
	e.res = cloneAppResult(res) // insulate the master from caller mutation
	close(e.done)
	if st.Dir() != "" {
		storePersistedRun(st, key, e.res)
	}
	return res, nil
}

// evictLocked enforces the capacity bound (caller holds mu). Evicting
// an in-flight entry is safe: its waiters hold the entry pointer and
// still see the close; the map merely forgets the key.
func (m *runMemo) evictLocked() {
	for len(m.entries) > m.cap && len(m.order) > 0 {
		k := m.order[0]
		m.order = m.order[1:]
		if _, ok := m.entries[k]; ok {
			delete(m.entries, k)
			bump(runEvictions, 1)
		}
	}
}

// cloneAppResult deep-copies the phases and invocation results so no
// two callers share mutable structure. The App and AccTile pointers are
// shared: both are read-only descriptors for result consumers.
func cloneAppResult(r *workload.AppResult) *workload.AppResult {
	out := *r
	out.Phases = make([]workload.PhaseResult, len(r.Phases))
	for i := range r.Phases {
		p := r.Phases[i]
		invs := make([]*esp.Result, len(p.Invocations))
		for j, inv := range p.Invocations {
			c := *inv
			invs[j] = &c
		}
		p.Invocations = invs
		out.Phases[i] = p
	}
	return &out
}

// Persisted-run layout: a portable mirror of workload.AppResult, framed
// in the store's checksummed envelope on disk. The AccTile pointers
// inside esp.Result are simulation-instance identities and cannot be
// stored; the instance name round-trips instead and is re-resolved
// against the (content-identical) configuration on load.
type persistedRun struct {
	Version int
	Policy  string
	Cycles  sim.Cycles
	OffChip int64
	Phases  []persistedPhase
}

type persistedPhase struct {
	Name        string
	Cycles      sim.Cycles
	OffChip     int64
	Invocations []persistedInv
}

type persistedInv struct {
	AccInst        string
	Mode           soc.Mode
	FootprintBytes int64
	ExecCycles     sim.Cycles
	ActiveCycles   sim.Cycles
	CommCycles     sim.Cycles
	OffChipApprox  float64
	OffChipTrue    int64
}

// runCachePath names a key's file in the cache directory.
func runCachePath(dir string, key runKey) string {
	return filepath.Join(dir, fmt.Sprintf("run-v%d-%x.gob", runCacheVersion, key[:]))
}

// runFaults are the run store's failpoints.
var runFaults = store.Faults{
	Open: faultinject.StoreOpen, Create: faultinject.StoreCreate,
	Write: faultinject.StoreWrite, Rename: faultinject.StoreRename,
}

// storePersistedRun writes the result for key atomically, so concurrent
// processes sharing a cache directory never read a torn file.
// Persistence is an optimization — the computed result is still
// returned on failure — and the store counts and reports failures.
func storePersistedRun(st *store.Store, key runKey, res *workload.AppResult) {
	p := persistedRun{
		Version: runCacheVersion,
		Policy:  res.Policy,
		Cycles:  res.Cycles,
		OffChip: res.OffChip,
	}
	for i := range res.Phases {
		ph := &res.Phases[i]
		pp := persistedPhase{Name: ph.Name, Cycles: ph.Cycles, OffChip: ph.OffChip}
		for _, inv := range ph.Invocations {
			pp.Invocations = append(pp.Invocations, persistedInv{
				AccInst:        inv.Acc.InstName,
				Mode:           inv.Mode,
				FootprintBytes: inv.FootprintBytes,
				ExecCycles:     inv.ExecCycles,
				ActiveCycles:   inv.ActiveCycles,
				CommCycles:     inv.CommCycles,
				OffChipApprox:  inv.OffChipApprox,
				OffChipTrue:    inv.OffChipTrue,
			})
		}
		p.Phases = append(p.Phases, pp)
	}
	st.Write("run store", runCachePath(st.Dir(), key), runCacheVersion, &p, runFaults)
}

// loadPersistedRun reads, verifies, and revives the result for key.
// Absence is the one benign miss; a corrupt entry — undecodable,
// checksum mismatch, wrong embedded version, or foreign content — is
// quarantined so it is regenerated exactly once instead of being
// re-read and re-failing on every run.
func loadPersistedRun(st *store.Store, key runKey, cfg *soc.Config, app *workload.App) (*workload.AppResult, bool) {
	var res *workload.AppResult
	status, _ := st.Read(runCachePath(st.Dir(), key), runFaults, func(data []byte) (err error) {
		res, err = revivePersistedRun(data, cfg, app)
		return err
	})
	return res, status == store.Hit
}

// revivePersistedRun verifies an entry's bytes and rebuilds the result.
// Any error means the entry is corrupt.
func revivePersistedRun(data []byte, cfg *soc.Config, app *workload.App) (*workload.AppResult, error) {
	var p persistedRun
	if err := unsealRun(data, &p); err != nil {
		return nil, err
	}
	// Revive the accelerator identities against the configuration: the
	// content key guarantees cfg matches the one the run simulated, so a
	// synthesized read-only tile per instance carries the same
	// ID/InstName/Spec a fresh simulation's results would.
	tiles := make(map[string]*soc.AccTile, len(cfg.Accs))
	for i := range cfg.Accs {
		tiles[cfg.Accs[i].InstName] = &soc.AccTile{
			ID:       i,
			InstName: cfg.Accs[i].InstName,
			Spec:     cfg.Accs[i].Spec,
		}
	}
	out := &workload.AppResult{
		App:     app,
		Policy:  p.Policy,
		Cycles:  p.Cycles,
		OffChip: p.OffChip,
	}
	for _, pp := range p.Phases {
		ph := workload.PhaseResult{Name: pp.Name, Cycles: pp.Cycles, OffChip: pp.OffChip}
		for _, pi := range pp.Invocations {
			tile, ok := tiles[pi.AccInst]
			if !ok {
				return nil, fmt.Errorf("experiment: run entry names unknown accelerator %q", pi.AccInst)
			}
			ph.Invocations = append(ph.Invocations, &esp.Result{
				Acc:            tile,
				Mode:           pi.Mode,
				FootprintBytes: pi.FootprintBytes,
				ExecCycles:     pi.ExecCycles,
				ActiveCycles:   pi.ActiveCycles,
				CommCycles:     pi.CommCycles,
				OffChipApprox:  pi.OffChipApprox,
				OffChipTrue:    pi.OffChipTrue,
			})
		}
		out.Phases = append(out.Phases, ph)
	}
	return out, nil
}

// unsealRun verifies a run entry's envelope and decodes its payload,
// rejecting a payload of another format version.
func unsealRun(data []byte, p *persistedRun) error {
	if err := store.Unseal(data, runCacheVersion, p); err != nil {
		return err
	}
	if p.Version != runCacheVersion {
		return fmt.Errorf("experiment: run entry payload version %d, want %d", p.Version, runCacheVersion)
	}
	return nil
}
