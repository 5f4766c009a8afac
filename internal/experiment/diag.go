package experiment

import (
	"context"
	"sync/atomic"
)

// One counter table. Every experiment layer — run store, two-fidelity,
// retry, lease, checkpoint — counts into the process's table through
// bump, and the run-store and retry events a serve-mode job causes are
// counted into that job's own table too (bumpJob). Snapshot is the only
// reader: it renders the table as StatsSnapshot for structured
// consumers (serve's /statsz, perfbench, the CLI's stderr summary). The
// store's failure counters and one-shot stderr warnings live with the
// store (internal/store); Snapshot reads them from the process store.

// counter names one entry of the table.
type counter int

const (
	runMemoHits counter = iota
	runDiskHits
	runMisses
	runEvictions
	cellRetries
	modelFits
	modelMemoHits
	modelDiskHits
	screenedCells
	escalatedCells
	leaseAcquired
	leaseRenewed
	leaseExpired
	leaseReclaimed
	leaseContended
	leaseLost
	leaseFallbacks
	// The checkpoint counters come last: ResetRunCache zeroes every
	// counter before them, ResetCheckpointStats these two.
	ckptReplayed
	ckptSaved
	numCounters
)

// counterTable is one set of counters.
type counterTable [numCounters]atomic.Int64

// reset zeroes the counters in [from, to).
func (t *counterTable) reset(from, to counter) {
	for c := from; c < to; c++ {
		t[c].Store(0)
	}
}

// processCounters is the process-wide table.
var processCounters counterTable

// bump adds n to the process-wide counter c.
func bump(c counter, n int64) { processCounters[c].Add(n) }

// bumpJob counts one c event process-wide and, when ctx carries a serve
// job's counters (WithJobCounters), for that job too.
func bumpJob(ctx context.Context, c counter) {
	processCounters[c].Add(1)
	if jc, _ := ctx.Value(jobCountersKey{}).(*JobCounters); jc != nil {
		jc.t[c].Add(1)
	}
}

// StatsSnapshot bundles every robustness counter — run store,
// checkpoint, retry, two-fidelity, lease — for structured consumers
// (/statsz).
type StatsSnapshot struct {
	RunCache   RunCacheStats
	Checkpoint CheckpointStats
	Retry      RetryStats
	Fidelity   FidelityStats
	Lease      LeaseStats
}

// RunCacheStats counts run-cache traffic since the last reset.
type RunCacheStats struct {
	// Hits served from the in-process memo (including callers that
	// waited on a concurrent worker's in-flight simulation).
	Hits int64
	// DiskHits served from the persistent cache directory.
	DiskHits int64
	// Misses that had to simulate.
	Misses int64
	// Evictions of in-process entries past the capacity bound.
	Evictions int64
	// WriteFailures, ReadFailures and Quarantined are the process
	// store's counters (store.Stats), over every kind of durable file.
	WriteFailures int64
	ReadFailures  int64
	Quarantined   int64
}

// CheckpointStats counts checkpoint traffic since the last reset.
type CheckpointStats struct {
	// Replayed cells served from a previous run's checkpoint.
	Replayed int64
	// Saved cells persisted by this run.
	Saved int64
}

// RetryStats counts cell-retry traffic since the last reset.
type RetryStats struct {
	// CellRetries is the number of cell attempts that were retried
	// after a transient failure.
	CellRetries int64
}

// FidelityStats counts two-fidelity traffic since the last reset.
type FidelityStats struct {
	// ModelFits counts least-squares calibrations actually performed.
	ModelFits int64
	// ModelMemoHits and ModelDiskHits count fitted models served from
	// the in-process memo and the cache directory.
	ModelMemoHits int64
	ModelDiskHits int64
	// ScreenedCells counts grid cells evaluated analytically.
	ScreenedCells int64
	// EscalatedCells counts screened cells auto escalated to
	// cycle-accurate simulation.
	EscalatedCells int64
}

// LeaseStats counts shared-mode lease traffic since the last reset.
type LeaseStats struct {
	// Acquired leases (fresh claims and post-reclaim re-claims).
	Acquired int64
	// Renewed heartbeats on held leases.
	Renewed int64
	// Expired counts stale-lease detections: a peer's lease whose
	// renewal counter stalled for a full TTL.
	Expired int64
	// Reclaimed counts stale leases this process actually took (won the
	// reclaim rename); at most one worker ever wins each.
	Reclaimed int64
	// Contended counts acquire races lost: the exclusive link found a
	// lease another worker published first.
	Contended int64
	// Lost counts held leases observed taken away (reclaimed by a peer
	// that judged this worker dead); the holder stops renewing and
	// finishes its in-flight cell, whose bytes are identical anyway.
	Lost int64
	// Fallbacks counts cells computed without a lease after repeated
	// acquire failures (never after mere contention).
	Fallbacks int64
}

// Snapshot returns the current counters.
func Snapshot() StatsSnapshot {
	v := func(c counter) int64 { return processCounters[c].Load() }
	st := RunStore().Stats()
	return StatsSnapshot{
		RunCache: RunCacheStats{
			Hits: v(runMemoHits), DiskHits: v(runDiskHits), Misses: v(runMisses), Evictions: v(runEvictions),
			WriteFailures: st.WriteFailures, ReadFailures: st.ReadFailures, Quarantined: st.Quarantined,
		},
		Checkpoint: CheckpointStats{Replayed: v(ckptReplayed), Saved: v(ckptSaved)},
		Retry:      RetryStats{CellRetries: v(cellRetries)},
		Fidelity: FidelityStats{
			ModelFits: v(modelFits), ModelMemoHits: v(modelMemoHits), ModelDiskHits: v(modelDiskHits),
			ScreenedCells: v(screenedCells), EscalatedCells: v(escalatedCells),
		},
		Lease: LeaseStats{
			Acquired: v(leaseAcquired), Renewed: v(leaseRenewed), Expired: v(leaseExpired),
			Reclaimed: v(leaseReclaimed), Contended: v(leaseContended), Lost: v(leaseLost),
			Fallbacks: v(leaseFallbacks),
		},
	}
}

// ResetCheckpointStats zeroes the checkpoint counters.
func ResetCheckpointStats() { processCounters.reset(ckptReplayed, numCounters) }

// JobCounters accumulates the share of run-store and retry traffic
// attributable to one experiment run, attached via WithJobCounters. The
// serve layer uses it to report per-job dedup (memo/disk hits) without
// disturbing the process-wide counters, which are always incremented
// too.
type JobCounters struct{ t counterTable }

// JobCounterView is a plain snapshot of JobCounters.
type JobCounterView struct {
	MemoHits    int64 `json:"memo_hits"`
	DiskHits    int64 `json:"disk_hits"`
	Misses      int64 `json:"misses"`
	CellRetries int64 `json:"cell_retries"`
}

// View snapshots the counters.
func (c *JobCounters) View() JobCounterView {
	return JobCounterView{
		MemoHits:    c.t[runMemoHits].Load(),
		DiskHits:    c.t[runDiskHits].Load(),
		Misses:      c.t[runMisses].Load(),
		CellRetries: c.t[cellRetries].Load(),
	}
}

type jobCountersKey struct{}

// WithJobCounters attaches per-run counters to an experiment context.
func WithJobCounters(ctx context.Context, c *JobCounters) context.Context {
	return context.WithValue(ctx, jobCountersKey{}, c)
}
