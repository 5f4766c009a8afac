package server

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"cohmeleon/internal/experiment"
	"cohmeleon/internal/faultinject"
	"cohmeleon/internal/store"
)

// Config sizes the server's admission control and worker pools.
type Config struct {
	// CacheDir is the run-store directory jobs share; required. The
	// content-keyed store is the cross-job dedup, the checkpoints are
	// the crash-resume, and the job manifests live under it.
	CacheDir string
	// QueueCap bounds the jobs waiting for a runner; a full queue
	// refuses admission (429). Must be ≥ 1.
	QueueCap int
	// JobWorkers is the number of jobs running concurrently. Must be ≥ 1.
	JobWorkers int
	// CellBudget bounds the grid cells in flight across ALL jobs — the
	// global backpressure that keeps N concurrent jobs from running
	// N × workers cells at once. 0 means GOMAXPROCS.
	CellBudget int
	// CellWorkers is each job's fan-out width (Options.Workers);
	// 0 means GOMAXPROCS. The effective parallelism is still capped by
	// CellBudget.
	CellWorkers int
	// Retry is the transient-failure policy applied at every cell
	// boundary. The zero value disables retry; DefaultRetryPolicy is
	// the serving default.
	Retry experiment.RetryPolicy
	// JobTimeout is the default per-job deadline (0 = none); a spec's
	// timeout_sec overrides it per job.
	JobTimeout time.Duration
	// Shared makes every job's grid cells shard across other -shared
	// cohmeleon processes (serve instances or batch runs) on the same
	// cache directory, deduped through lease files instead of only this
	// process's in-memory singleflight. The worker id derives from
	// host+pid.
	Shared bool
}

// validate rejects un-servable configurations with the valid ranges.
func (c Config) validate() error {
	switch {
	case c.CacheDir == "":
		return fmt.Errorf("server: cache directory required (jobs dedup, checkpoint, and resume through it)")
	case c.QueueCap < 1:
		return fmt.Errorf("server: queue capacity %d invalid: need ≥ 1", c.QueueCap)
	case c.JobWorkers < 1:
		return fmt.Errorf("server: job workers %d invalid: need ≥ 1", c.JobWorkers)
	case c.CellBudget < 0:
		return fmt.Errorf("server: cell budget %d invalid: need ≥ 0 (0 = GOMAXPROCS)", c.CellBudget)
	case c.CellWorkers < 0:
		return fmt.Errorf("server: cell workers %d invalid: need ≥ 0 (0 = GOMAXPROCS)", c.CellWorkers)
	case c.JobTimeout < 0:
		return fmt.Errorf("server: job timeout %v invalid: need ≥ 0 (0 = none)", c.JobTimeout)
	}
	if c.Retry.MaxAttempts != 0 {
		if err := c.Retry.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// Admission-refusal sentinels; the HTTP layer maps both to 429.
var (
	// ErrDraining: the server is shutting down and admits nothing.
	ErrDraining = errors.New("server: draining, not accepting jobs")
	// ErrQueueFull: the job queue is at capacity.
	ErrQueueFull = errors.New("server: job queue full")
)

// Server owns the job lifecycle: admission, the runner pool, the
// cross-job cell gate, manifests, and drain.
type Server struct {
	cfg       Config
	gate      experiment.Gate
	queue     *jobQueue
	manifests string
	store     *store.Store

	mu       sync.Mutex
	jobs     map[string]*Job
	order    []*Job // admission order, for listing
	seq      int
	draining bool

	runners  sync.WaitGroup
	baseCtx  context.Context
	baseStop context.CancelFunc
}

// New builds a server over cfg.CacheDir, pointing the experiment run
// store at it and re-adopting every job manifest a previous process
// left behind. Runners do not start until Start.
func New(cfg Config) (*Server, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if err := experiment.SetRunCacheDir(cfg.CacheDir); err != nil {
		return nil, err
	}
	budget := cfg.CellBudget
	if budget == 0 {
		budget = runtime.GOMAXPROCS(0)
	}
	dir := manifestDir(cfg.CacheDir)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("server: job manifest dir: %w", err)
	}
	ctx, stop := context.WithCancel(context.Background())
	s := &Server{
		cfg:       cfg,
		gate:      experiment.NewGate(budget),
		queue:     newJobQueue(cfg.QueueCap),
		manifests: dir,
		store:     experiment.RunStore(),
		jobs:      make(map[string]*Job),
		baseCtx:   ctx,
		baseStop:  stop,
	}
	if err := s.adopt(); err != nil {
		stop()
		return nil, err
	}
	return s, nil
}

// adopt revives persisted jobs: settled ones serve their reports,
// unsettled ones re-enter the queue (past its capacity — admission was
// already granted once) and will resume from their checkpoints.
func (s *Server) adopt() error {
	manifests, err := loadManifests(s.store, s.manifests)
	if err != nil {
		return err
	}
	for _, m := range manifests {
		j, requeue := jobFromManifest(m)
		s.jobs[j.id] = j
		s.order = append(s.order, j)
		if j.seq > s.seq {
			s.seq = j.seq
		}
		if requeue {
			s.queue.force(j)
			s.persistJob(j) // running/interrupted manifests re-persist as queued
		}
	}
	return nil
}

// Start launches the runner pool.
func (s *Server) Start() {
	for i := 0; i < s.cfg.JobWorkers; i++ {
		s.runners.Add(1)
		go s.runner()
	}
}

// Submit validates and admits a job. ErrDraining and ErrQueueFull are
// the refusal signals (HTTP 429); validation failures are client
// errors (HTTP 400).
func (s *Server) Submit(spec JobSpec) (*Job, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if err := faultinject.Check(faultinject.ServeAdmit); err != nil {
		return nil, err
	}
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil, ErrDraining
	}
	s.seq++
	j := newJob(fmt.Sprintf("job-%06d", s.seq), spec)
	j.seq = s.seq
	s.jobs[j.id] = j
	s.order = append(s.order, j)
	s.mu.Unlock()
	// Persist before the job becomes poppable: a runner's later
	// running/done manifests must never be overwritten by the admission
	// write landing late.
	s.persistJob(j)
	if !s.queue.push(j) {
		s.forget(j)
		s.mu.Lock()
		draining := s.draining
		s.mu.Unlock()
		if draining {
			return nil, ErrDraining
		}
		return nil, ErrQueueFull
	}
	return j, nil
}

// forget withdraws a job that was never admitted: a refused submission
// must leave no manifest for a restart to adopt.
func (s *Server) forget(j *Job) {
	s.mu.Lock()
	delete(s.jobs, j.id)
	for i, o := range s.order {
		if o == j {
			s.order = append(s.order[:i], s.order[i+1:]...)
			break
		}
	}
	s.mu.Unlock()
	if s.manifests != "" {
		os.Remove(manifestPath(s.manifests, j.id))
	}
}

// Job looks up a job by ID.
func (s *Server) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Jobs returns every known job in admission order.
func (s *Server) Jobs() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Job, len(s.order))
	copy(out, s.order)
	return out
}

// Cancel asks a job to stop: queued jobs settle cancelled at once,
// running jobs unwind cooperatively (in-flight cells finish and
// checkpoint). Reports whether the job exists.
func (s *Server) Cancel(id string) (*Job, bool) {
	j, ok := s.Job(id)
	if !ok {
		return nil, false
	}
	if j.requestCancel() && j.State() == StateCancelled {
		// Settled straight from the queue; running jobs persist when
		// their runner unwinds.
		s.persistJob(j)
	}
	return j, true
}

// Draining reports whether a drain has begun.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// QueueDepth reports the jobs waiting for a runner.
func (s *Server) QueueDepth() int { return s.queue.depth() }

// CellsInFlight reports the grid cells currently executing.
func (s *Server) CellsInFlight() int { return s.gate.InFlight() }

// runner is one job-execution loop.
func (s *Server) runner() {
	defer s.runners.Done()
	for {
		j, ok := s.queue.pop()
		if !ok {
			return
		}
		s.runJob(j)
	}
}

// runJob executes one job through the experiment machinery and
// classifies the outcome.
func (s *Server) runJob(j *Job) {
	ctx, cancel := context.WithCancel(s.baseCtx)
	defer cancel()
	timeout := s.cfg.JobTimeout
	if j.spec.TimeoutSec > 0 {
		timeout = time.Duration(j.spec.TimeoutSec) * time.Second
	}
	if timeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	if !j.start(cancel) {
		return // cancelled while queued
	}
	s.persistJob(j)

	opt, err := j.spec.options()
	if err == nil {
		opt.Workers = s.cfg.CellWorkers
		opt.Ctx = experiment.WithJobCounters(ctx, &j.counters)
		if s.cfg.Retry.MaxAttempts != 0 {
			retry := s.cfg.Retry
			opt.Retry = &retry
		}
		opt.Gate = s.gate
		opt.CellDone = j.noteCell
		opt.Shared = s.cfg.Shared
		var entry experiment.Entry
		entry, err = experiment.Lookup(j.spec.Experiment)
		if err == nil {
			var rep experiment.Report
			rep, err = entry.Run(opt)
			if err == nil {
				// The contract: these bytes are exactly what the CLI's
				// report section renders for the same flags.
				j.finish(StateDone, rep.Render(), "")
				s.persistJob(j)
				return
			}
		}
	}
	switch {
	case j.wasCancelled():
		j.finish(StateCancelled, "", err.Error())
	case errors.Is(err, context.DeadlineExceeded):
		j.finish(StateFailed, "", fmt.Sprintf("job deadline exceeded: %v", err))
	case errors.Is(err, context.Canceled):
		// Drained or shut down mid-flight: completed cells are
		// checkpointed; a restart resumes from them.
		j.finish(StateInterrupted, "", err.Error())
	default:
		j.finish(StateFailed, "", err.Error())
	}
	s.persistJob(j)
}

// Drain gracefully winds the server down: admission stops (new POSTs
// see 429), queued jobs stay queued — persisted for the next process —
// running jobs are cancelled cooperatively so their in-flight cells
// finish and checkpoint, and every manifest is re-persisted. Blocks
// until the runner pool exits; idempotent.
func (s *Server) Drain() {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.runners.Wait()
		return
	}
	s.draining = true
	s.mu.Unlock()

	s.queue.close()
	for _, j := range s.Jobs() {
		j.interrupt()
	}
	s.runners.Wait()
	// Settle still-queued jobs so event streams end; their manifests
	// keep them queued for re-adoption.
	for _, j := range s.Jobs() {
		j.settle()
		s.persistJob(j)
	}
	s.baseStop()
}
