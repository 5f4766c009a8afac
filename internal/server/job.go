// Package server turns the batch experiment runner into a resilient
// sweep-as-a-service: an HTTP job server that accepts sweep/learners
// job specs, fans their grid cells across a bounded worker pool through
// the same fan-out/checkpoint machinery the CLI uses, streams per-cell
// progress, and serves final reports that are byte-identical to the
// equivalent CLI run. Robustness is layered on the experiment package's
// existing guarantees: per-job deadlines and cooperative cancel ride on
// Options.Ctx, transient cell failures retry with capped backoff,
// admission control bounds both the job queue and the cells in flight,
// and a graceful drain checkpoints in-flight cells and persists job
// manifests so a restart over the same cache directory re-adopts and
// resumes jobs byte-identically.
package server

import (
	"fmt"
	"strings"
	"sync"

	"cohmeleon/internal/experiment"
)

// JobState is a job's lifecycle position.
type JobState string

const (
	// StateQueued: admitted, waiting for a job slot.
	StateQueued JobState = "queued"
	// StateRunning: cells are executing.
	StateRunning JobState = "running"
	// StateDone: completed; the report is ready and immutable.
	StateDone JobState = "done"
	// StateFailed: a deterministic cell error or the job deadline ended
	// it; rerunning the same spec would fail the same way (deadline
	// aside), so failed is terminal.
	StateFailed JobState = "failed"
	// StateCancelled: the client cancelled it (DELETE /jobs/{id}).
	StateCancelled JobState = "cancelled"
	// StateInterrupted: a drain stopped it mid-flight. Completed cells
	// are checkpointed; a restart over the same cache directory
	// re-admits the job and replays them.
	StateInterrupted JobState = "interrupted"
)

// Terminal reports whether the state can never progress again, in this
// process or any other. Interrupted is deliberately not terminal: it
// resumes after a restart.
func (s JobState) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// servableExperiments are the experiments a job may name: the
// checkpointed grids with flat cell loops (the admission gate must not
// span nested fan-outs — see experiment.Gate).
var servableExperiments = map[string]bool{"sweep": true, "learners": true}

// servableIDs lists the servable experiments for error messages.
func servableIDs() string {
	var out []string
	for _, id := range experiment.IDs() {
		if servableExperiments[id] {
			out = append(out, id)
		}
	}
	return strings.Join(out, ", ")
}

// JobSpec is the client-submitted description of one experiment run.
// It mirrors the CLI's run flags: a job with spec fields X is the same
// computation as `cohmeleon run` with the corresponding flags, and its
// report is byte-identical to that run's.
type JobSpec struct {
	// Experiment is the grid to run: "sweep" or "learners".
	Experiment string `json:"experiment"`
	// Profile scales the run: "quick" (default), "full", or "tiny".
	Profile string `json:"profile,omitempty"`
	// Seed overrides the experiment seed (0 keeps the profile default).
	Seed uint64 `json:"seed,omitempty"`
	// Scenarios overrides the sweep's scenario count (sweep only).
	Scenarios int `json:"scenarios,omitempty"`
	// Learner and Schedule select the agent's learner stack.
	Learner  string `json:"learner,omitempty"`
	Schedule string `json:"schedule,omitempty"`
	// Protocol selects the coherence-protocol stack by registry name
	// (empty = the default "mesi").
	Protocol string `json:"protocol,omitempty"`
	// FineGrain widens the agent's action space with per-region
	// (hot, cold) mode splits.
	FineGrain bool `json:"fine_grain,omitempty"`
	// Fidelity selects the cell evaluation path: "full" (default, also
	// the empty string; cycle-accurate) or "screening" (calibrated
	// analytical estimates with error bounds).
	Fidelity string `json:"fidelity,omitempty"`
	// TimeoutSec caps the job's wall-clock seconds (0 = the server's
	// default deadline, if any).
	TimeoutSec int `json:"timeout_sec,omitempty"`
}

// options maps the spec onto experiment options, the exact way the CLI
// maps its flags; Resume is always on — serve jobs replay any cell an
// identical earlier job checkpointed, which is both the cross-job
// dedup and what makes post-drain re-adoption resume instead of
// restart.
func (s JobSpec) options() (experiment.Options, error) {
	var opt experiment.Options
	switch s.Profile {
	case "", "quick":
		opt = experiment.Quick()
	case "full":
		opt = experiment.Default()
	case "tiny":
		opt = experiment.Tiny()
	default:
		return opt, fmt.Errorf("server: unknown profile %q (valid: quick, full, tiny)", s.Profile)
	}
	if s.Seed != 0 {
		opt.Seed = s.Seed
	}
	if s.Scenarios > 0 {
		opt.SweepScenarios = s.Scenarios
	}
	opt.Learner = s.Learner
	opt.Schedule = s.Schedule
	opt.Protocol = s.Protocol
	opt.FineGrain = s.FineGrain
	opt.Fidelity = s.Fidelity
	opt.Resume = true
	return opt, nil
}

// Validate rejects malformed specs at admission, before they occupy a
// queue slot.
func (s JobSpec) Validate() error {
	if !servableExperiments[s.Experiment] {
		return fmt.Errorf("server: experiment %q not servable (valid: %s)", s.Experiment, servableIDs())
	}
	if s.Scenarios < 0 {
		return fmt.Errorf("server: scenarios %d must be ≥ 0 (0 = profile default)", s.Scenarios)
	}
	if s.Scenarios > 0 && s.Experiment != "sweep" {
		return fmt.Errorf("server: scenarios only applies to the sweep experiment")
	}
	if s.TimeoutSec < 0 {
		return fmt.Errorf("server: timeout_sec %d must be ≥ 0 (0 = server default)", s.TimeoutSec)
	}
	opt, err := s.options()
	if err != nil {
		return err
	}
	return opt.Validate()
}

// Event is one NDJSON progress line on a job's event stream.
type Event struct {
	// Event is "state" (lifecycle transition) or "cell" (one grid cell
	// completed).
	Event string   `json:"event"`
	State JobState `json:"state,omitempty"`
	Error string   `json:"error,omitempty"`
	// Cell fields (event == "cell"): the completed cell's index, the
	// running completion count, the grid size, and whether the cell was
	// replayed from a checkpoint rather than computed.
	Cell     int  `json:"cell,omitempty"`
	Done     int  `json:"done,omitempty"`
	Total    int  `json:"total,omitempty"`
	Replayed bool `json:"replayed,omitempty"`
}

// CellProgress summarizes a job's grid progress.
type CellProgress struct {
	Done     int `json:"done"`
	Replayed int `json:"replayed"`
	Total    int `json:"total"`
}

// JobStatus is the JSON shape of GET /jobs/{id}.
type JobStatus struct {
	ID    string       `json:"id"`
	Spec  JobSpec      `json:"spec"`
	State JobState     `json:"state"`
	Error string       `json:"error,omitempty"`
	Cells CellProgress `json:"cells"`
	// Counters is the job's share of run-store and retry traffic —
	// memo/disk hits are cells and app runs this job got for free from
	// other jobs (or its own earlier attempts).
	Counters experiment.JobCounterView `json:"counters"`
	// ReportReady reports whether GET /jobs/{id}/report will serve.
	ReportReady bool `json:"report_ready"`
}

// Job is one admitted experiment run.
type Job struct {
	id       string
	seq      int // admission order, stable across restarts
	spec     JobSpec
	counters experiment.JobCounters

	mu        sync.Mutex
	cond      *sync.Cond // signals new events and settlement
	state     JobState
	errText   string
	report    string
	cells     CellProgress
	events    []Event
	settled   bool   // no further events in this process
	cancelled bool   // client cancel, vs. drain interrupt
	cancel    func() // cancels the running job's context
}

// newJob returns a queued job.
func newJob(id string, spec JobSpec) *Job {
	j := &Job{id: id, spec: spec, state: StateQueued}
	j.cond = sync.NewCond(&j.mu)
	j.events = append(j.events, Event{Event: "state", State: StateQueued})
	return j
}

// Status snapshots the job for the status endpoint.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return JobStatus{
		ID:          j.id,
		Spec:        j.spec,
		State:       j.state,
		Error:       j.errText,
		Cells:       j.cells,
		Counters:    j.counters.View(),
		ReportReady: j.state == StateDone,
	}
}

// State returns the current lifecycle state.
func (j *Job) State() JobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Report returns the rendered report, valid once the job is done.
func (j *Job) Report() (string, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.report, j.state == StateDone
}

// start transitions queued → running, recording the cancel hook.
// Returns false when the job already settled (cancelled while queued).
func (j *Job) start(cancel func()) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.settled || j.state != StateQueued {
		return false
	}
	j.state = StateRunning
	j.cancel = cancel
	j.appendEventLocked(Event{Event: "state", State: StateRunning})
	return true
}

// finish settles the job in a post-run state.
func (j *Job) finish(state JobState, report, errText string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.settled {
		return
	}
	j.state = state
	j.report = report
	j.errText = errText
	j.cancel = nil
	j.settled = true
	j.appendEventLocked(Event{Event: "state", State: state, Error: errText})
	j.cond.Broadcast()
}

// settle ends the event stream without changing state — used for jobs
// still queued when the server drains: their manifests stay queued (a
// restart re-admits them) but in-process watchers must not hang.
func (j *Job) settle() {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.settled {
		return
	}
	j.settled = true
	j.cond.Broadcast()
}

// requestCancel implements DELETE /jobs/{id}. A queued job settles
// cancelled immediately (the runner skips settled jobs); a running job
// gets its context cancelled and settles when the experiment unwinds;
// a settled job is left alone. Reports whether anything changed.
func (j *Job) requestCancel() bool {
	j.mu.Lock()
	if j.settled {
		j.mu.Unlock()
		return false
	}
	j.cancelled = true
	if j.state == StateQueued {
		j.state = StateCancelled
		j.settled = true
		j.appendEventLocked(Event{Event: "state", State: StateCancelled})
		j.cond.Broadcast()
		j.mu.Unlock()
		return true
	}
	cancel := j.cancel
	j.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	return true
}

// wasCancelled reports whether the client asked for cancellation.
func (j *Job) wasCancelled() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.cancelled
}

// interrupt cancels a running job's context without marking it
// client-cancelled — the drain path, classified as interrupted.
func (j *Job) interrupt() {
	j.mu.Lock()
	cancel := j.cancel
	j.mu.Unlock()
	if cancel != nil {
		cancel()
	}
}

// noteCell records one completed grid cell; wired to Options.CellDone,
// so it may run from concurrent workers.
func (j *Job) noteCell(e experiment.CellEvent) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.cells.Done++
	j.cells.Total = e.Total
	if e.Replayed {
		j.cells.Replayed++
	}
	j.appendEventLocked(Event{
		Event: "cell", Cell: e.Index, Done: j.cells.Done,
		Total: e.Total, Replayed: e.Replayed,
	})
}

// appendEventLocked records an event and wakes stream readers.
func (j *Job) appendEventLocked(e Event) {
	j.events = append(j.events, e)
	j.cond.Broadcast()
}

// wake nudges event-stream readers so they can notice a dead client.
func (j *Job) wake() {
	j.mu.Lock()
	j.cond.Broadcast()
	j.mu.Unlock()
}

// nextEvent blocks until event i exists (returning it and true) or the
// job settles with fewer events / giveUp returns true (returning false).
func (j *Job) nextEvent(i int, giveUp func() bool) (Event, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	for {
		if i < len(j.events) {
			return j.events[i], true
		}
		if j.settled || giveUp() {
			return Event{}, false
		}
		j.cond.Wait()
	}
}
