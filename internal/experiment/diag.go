package experiment

import (
	"context"
	"sync/atomic"
)

// Counter snapshots. Each layer — run store, checkpoint, retry,
// two-fidelity, lease — keeps its own counters; Snapshot bundles them
// for structured consumers (serve's /statsz, perfbench), and
// JobCounters attributes a share of them to one serve-mode job. The
// store's one-shot stderr warnings live with its counters in
// internal/store.

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

// Snapshot returns the current counters.
func Snapshot() StatsSnapshot {
	return StatsSnapshot{
		RunCache:   GetRunCacheStats(),
		Checkpoint: GetCheckpointStats(),
		Retry:      GetRetryStats(),
		Fidelity:   GetFidelityStats(),
		Lease:      GetLeaseStats(),
	}
}

// JobCounters accumulates the share of run-store and retry traffic
// attributable to one experiment run, attached via WithJobCounters. The
// serve layer uses it to report per-job dedup (memo/disk hits) without
// disturbing the process-wide counters, which are always incremented
// too.
type JobCounters struct {
	MemoHits    atomic.Int64
	DiskHits    atomic.Int64
	Misses      atomic.Int64
	CellRetries atomic.Int64
}

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
		MemoHits:    c.MemoHits.Load(),
		DiskHits:    c.DiskHits.Load(),
		Misses:      c.Misses.Load(),
		CellRetries: c.CellRetries.Load(),
	}
}

type jobCountersKey struct{}

// WithJobCounters attaches per-run counters to an experiment context.
func WithJobCounters(ctx context.Context, c *JobCounters) context.Context {
	return context.WithValue(ctx, jobCountersKey{}, c)
}

// jobCountersFrom returns the attached counters, or nil.
func jobCountersFrom(ctx context.Context) *JobCounters {
	c, _ := ctx.Value(jobCountersKey{}).(*JobCounters)
	return c
}
