package experiment

import (
	"context"
	"fmt"
	"os"
	"time"

	"cohmeleon/internal/learn"
	"cohmeleon/internal/soc/protocol"
)

// Options scales the experiments. Defaults reproduce the paper's
// protocol; Quick returns a reduced configuration for tests and
// continuous benchmarking, trading statistical weight for runtime while
// keeping every code path identical.
type Options struct {
	// Seed drives SoC traffic-generator instantiation, application
	// generation and every stochastic policy.
	Seed uint64
	// Runs is the number of repeated executions averaged per measurement
	// point in the motivation studies (the paper averages ten).
	Runs int
	// TrainIterations is Cohmeleon's training length for Figures 5, 7
	// and 9 (the paper finds ten sufficient).
	TrainIterations int
	// MinInvocations sizes generated applications (the paper's instances
	// have several hundred invocations).
	MinInvocations int
	// Fig6Models is the number of reward-weight settings explored.
	Fig6Models int
	// Fig6TrainIterations is the training length per Figure-6 model
	// (the paper uses 50).
	Fig6TrainIterations int
	// Fig8Schedules are the decay schedules compared in Figure 8.
	Fig8Schedules []int
	// Workers bounds the number of independent trials run concurrently
	// per fan-out stage. Zero (the default) uses runtime.GOMAXPROCS(0);
	// 1 forces the sequential order. Every trial simulates a fresh SoC
	// with pre-assigned seeds and results are collected by index, so
	// rendered reports are byte-identical for any worker count. Stages
	// that nest (Figure 9's per-SoC policy preparation contains its own
	// fan-out) split the budget across levels rather than multiplying it.
	Workers int
	// SweepScenarios is the number of randomized (SoC × workload)
	// scenarios the sweep experiment samples and runs.
	SweepScenarios int
	// QTableSave, when set, makes the sweep write the visit-weighted
	// merge of its per-scenario trained Q-tables to this file.
	QTableSave string
	// QTableLoad, when set, makes the sweep additionally evaluate the
	// Q-table from this file frozen on every scenario, reported as
	// "cohmeleon-transfer" — the train-on-A/test-on-B workflow.
	QTableLoad string
	// Learner selects the agent's algorithm seam by learn-registry name
	// for every experiment that trains a Cohmeleon agent; empty keeps
	// the paper's tabular Q-learning ("q").
	Learner string
	// Schedule selects the agent's ε/α trajectory by learn-registry
	// name; empty keeps the paper's linear decay ("linear").
	Schedule string
	// Protocol selects the coherence-protocol stack by protocol-registry
	// name for every SoC the experiments build (hand-built topologies
	// and sampled scenarios alike); empty keeps the default MESI-style
	// stack ("mesi"), which is byte-identical to the pre-seam simulator.
	Protocol string
	// FineGrain widens the Cohmeleon agent's action space with per-region
	// (hot, cold) mode splits for invocations whose footprint exceeds the
	// private L2. Off (the default) keeps the paper's uniform four-mode
	// space and is byte-identical to it.
	FineGrain bool
	// Fidelity selects how the grid experiments (sweep, learners)
	// evaluate their cells: "full" (default; also the empty string) is
	// the cycle-accurate simulator, byte-identical to before the seam
	// existed; "screening" estimates every cell with the calibrated
	// analytical cost model and notes its held-out error bounds.
	Fidelity string
	// LearnerScenarios is the number of randomized scenarios the
	// learners experiment runs its (algorithm × schedule) grid over.
	LearnerScenarios int
	// Ctx, when non-nil, cancels experiments cooperatively: the worker
	// pool stops dispatching new trials and in-flight work cuts out at
	// its next app-run boundary, returning an error that wraps
	// ctx.Err(). Checks sit at trial and run boundaries only, so an
	// uncancelled run is byte-identical to one with a nil Ctx.
	Ctx context.Context
	// Resume replays completed cells from the checkpoint a previous
	// (typically interrupted) sweep or learners run left under the run
	// cache directory, re-running only the missing cells; the resumed
	// report is byte-identical to an uninterrupted run. Without a cache
	// directory there is no checkpoint and Resume is inert. Experiments
	// that don't checkpoint ignore it (the CLI rejects the flag there).
	Resume bool
	// Retry, when non-nil, retries transient cell failures (IsTransient)
	// with capped exponential backoff at the grid-cell boundary.
	// Deterministic trial errors are never retried. Cells are pure
	// functions of their inputs, so retry cannot change report bytes.
	Retry *RetryPolicy
	// Gate, when non-nil, bounds the cells in flight across every
	// fan-out sharing it — the serve layer's cross-job cell budget.
	Gate Gate
	// CellDone, when non-nil, is invoked after every completed grid cell
	// of a checkpointed experiment (sweep, learners), possibly from
	// concurrent workers. It must be cheap and must not mutate
	// experiment state; the serve layer uses it to stream progress.
	CellDone func(CellEvent)
	// Shared makes the grid experiments (sweep, learners) shard their
	// cells across any number of independent processes pointed at the
	// same run cache directory, coordinated only through checksummed
	// lease files under <cache-dir>/leases/. Each worker claims absent
	// cells, heartbeats while computing, adopts cells its peers publish,
	// and reclaims leases whose heartbeats stall; every worker that runs
	// to completion assembles the full report, byte-identical to the
	// single-process run. Requires a cache directory. Off (the default)
	// touches no lease path at all and is byte-identical to before the
	// mode existed.
	Shared bool
	// WorkerID names this process in lease files for operator diagnosis;
	// empty derives "<hostname>-<pid>". Only meaningful with Shared.
	WorkerID string
	// LeaseTTL is how long a lease's renewal counter may stall before
	// peers judge its holder dead and reclaim the cell; zero means 10s.
	// Staleness is measured on each observer's own monotonic clock, so
	// host clock skew cannot expire a live lease. Only meaningful with
	// Shared. Held leases renew every TTL/5.
	LeaseTTL time.Duration
}

// workerID resolves the worker identity written into lease files.
func (o Options) workerID() string {
	if o.WorkerID != "" {
		return o.WorkerID
	}
	host, err := os.Hostname()
	if err != nil || host == "" {
		host = "worker"
	}
	return fmt.Sprintf("%s-%d", host, os.Getpid())
}

// leaseTTL resolves the staleness threshold.
func (o Options) leaseTTL() time.Duration {
	if o.LeaseTTL > 0 {
		return o.LeaseTTL
	}
	return 10 * time.Second
}

// leaseHeartbeat is the renewal interval: a fifth of the TTL, so a live
// holder renews several times before any observer could judge it dead.
func (o Options) leaseHeartbeat() time.Duration { return o.leaseTTL() / 5 }

// CellEvent describes one completed grid cell of a checkpointed
// experiment.
type CellEvent struct {
	// Experiment is the grid's ID ("sweep", "learners").
	Experiment string
	// Index and Total locate the cell in the grid.
	Index int
	Total int
	// Replayed reports whether the cell was served from a checkpoint
	// rather than computed.
	Replayed bool
}

// cellDone delivers a cell event when a listener is configured.
func (o Options) cellDone(e CellEvent) {
	if o.CellDone != nil {
		o.CellDone(e)
	}
}

// ctx resolves the experiment context (nil means never cancelled).
func (o Options) ctx() context.Context {
	if o.Ctx != nil {
		return o.Ctx
	}
	return context.Background()
}

// Validate reports option errors before any experiment spends cycles
// on them. The zero Workers (= GOMAXPROCS) is valid here; rejecting an
// explicitly passed zero is the CLI's job, since only the flag parser
// knows the difference.
func (o Options) Validate() error {
	switch {
	case o.Workers < 0:
		return fmt.Errorf("experiment: workers %d must be ≥ 0 (0 = GOMAXPROCS)", o.Workers)
	case o.Runs < 1:
		return fmt.Errorf("experiment: runs %d must be ≥ 1", o.Runs)
	case o.TrainIterations < 1:
		return fmt.Errorf("experiment: training iterations %d must be ≥ 1", o.TrainIterations)
	case o.MinInvocations < 1:
		return fmt.Errorf("experiment: min invocations %d must be ≥ 1", o.MinInvocations)
	case o.SweepScenarios < 1:
		return fmt.Errorf("experiment: sweep scenarios %d must be ≥ 1", o.SweepScenarios)
	case o.LearnerScenarios < 1:
		return fmt.Errorf("experiment: learner scenarios %d must be ≥ 1", o.LearnerScenarios)
	case o.LeaseTTL < 0:
		return fmt.Errorf("experiment: lease TTL %v must be ≥ 0", o.LeaseTTL)
	}
	if o.Retry != nil {
		if err := o.Retry.Validate(); err != nil {
			return err
		}
	}
	if _, err := learn.NewAlgorithm(o.Learner); err != nil {
		return err
	}
	if _, err := learn.NewSchedule(o.Schedule, learn.ScheduleParams{
		Epsilon0: 0.5, Alpha0: 0.25, DecayIterations: 1,
	}); err != nil {
		return err
	}
	if _, err := protocol.Lookup(o.Protocol); err != nil {
		return err
	}
	switch o.fidelityMode() {
	case FidelityFull, FidelityScreening:
	default:
		return fmt.Errorf("experiment: unknown fidelity %q (valid: %s)", o.Fidelity, ValidFidelities())
	}
	if o.QTableSave != "" && o.fidelityMode() != FidelityFull {
		// A screened agent trained against the analytical model, not the
		// simulator; exporting its table as a reusable artifact would
		// silently launder model error into later full-fidelity runs.
		return fmt.Errorf("experiment: -qtable-save requires full fidelity (got %s)", o.fidelityMode())
	}
	return nil
}

// Default returns the paper-faithful configuration.
func Default() Options {
	return Options{
		Seed:                42,
		Runs:                10,
		TrainIterations:     10,
		MinInvocations:      300,
		Fig6Models:          15,
		Fig6TrainIterations: 50,
		Fig8Schedules:       []int{10, 30, 50},
		SweepScenarios:      64,
		LearnerScenarios:    12,
	}
}

// Quick returns a scaled-down configuration: same protocol, fewer
// repetitions and shorter training, sized to finish a full suite in
// minutes.
func Quick() Options {
	return Options{
		Seed:                42,
		Runs:                2,
		TrainIterations:     4,
		MinInvocations:      120,
		Fig6Models:          6,
		Fig6TrainIterations: 5,
		Fig8Schedules:       []int{4, 8},
		SweepScenarios:      64,
		LearnerScenarios:    6,
	}
}

// Tiny returns the smallest meaningful configuration, for unit tests.
func Tiny() Options {
	return Options{
		Seed:                42,
		Runs:                1,
		TrainIterations:     2,
		MinInvocations:      40,
		Fig6Models:          2,
		Fig6TrainIterations: 2,
		Fig8Schedules:       []int{2},
		SweepScenarios:      4,
		LearnerScenarios:    3,
	}
}
