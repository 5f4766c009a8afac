package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"cohmeleon/internal/experiment"
	"cohmeleon/internal/faultinject"
)

// serverTestSetup isolates the experiment package's process globals
// between tests (the server points the run store at its cache dir).
func serverTestSetup(t *testing.T) {
	t.Helper()
	experiment.ResetRunCache()
	experiment.ResetCheckpointStats()
	t.Cleanup(func() {
		faultinject.Disable()
		experiment.ResetRunCache()
		experiment.ResetCheckpointStats()
		if err := experiment.SetRunCacheDir(""); err != nil {
			t.Error(err)
		}
	})
}

// tinySweepSpec is the job every integration test runs: small enough
// to finish in seconds, big enough to interrupt mid-grid.
func tinySweepSpec() JobSpec {
	return JobSpec{Experiment: "sweep", Profile: "tiny", Scenarios: 3}
}

// tinySweepWant computes, once, the report bytes the equivalent CLI
// run renders (`run -profile tiny -scenarios 3 sweep`, no cache) — the
// byte-identity reference every served report is compared against.
var (
	wantOnce   sync.Once
	wantReport string
	wantErr    error
)

func tinySweepWant(t *testing.T) string {
	t.Helper()
	wantOnce.Do(func() {
		if wantErr = experiment.SetRunCacheDir(""); wantErr != nil {
			return
		}
		opt := experiment.Tiny()
		opt.SweepScenarios = 3
		var res *experiment.SweepResult
		if res, wantErr = experiment.Sweep(opt); wantErr == nil {
			wantReport = res.Render()
		}
	})
	if wantErr != nil {
		t.Fatalf("reference sweep: %v", wantErr)
	}
	return wantReport
}

// testConfig returns a small serving configuration over dir.
func testConfig(dir string) Config {
	return Config{
		CacheDir:   dir,
		QueueCap:   8,
		JobWorkers: 1,
		Retry:      experiment.DefaultRetryPolicy(),
	}
}

// --- HTTP helpers -------------------------------------------------------

func httpDo(t *testing.T, method, url, body string) (int, http.Header, []byte) {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, data
}

func submitJob(t *testing.T, base, spec string) JobStatus {
	t.Helper()
	code, _, body := httpDo(t, "POST", base+"/jobs", spec)
	if code != http.StatusAccepted {
		t.Fatalf("POST /jobs = %d, want 202; body: %s", code, body)
	}
	var st JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("job status: %v", err)
	}
	return st
}

func jobStatus(t *testing.T, base, id string) JobStatus {
	t.Helper()
	code, _, body := httpDo(t, "GET", base+"/jobs/"+id, "")
	if code != http.StatusOK {
		t.Fatalf("GET /jobs/%s = %d; body: %s", id, code, body)
	}
	var st JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("job status: %v", err)
	}
	return st
}

func waitTerminal(t *testing.T, base, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(3 * time.Minute)
	for {
		st := jobStatus(t, base, id)
		if st.State.Terminal() || st.State == StateInterrupted {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s", id, st.State)
		}
		time.Sleep(25 * time.Millisecond)
	}
}

func fetchReport(t *testing.T, base, id string) string {
	t.Helper()
	code, _, body := httpDo(t, "GET", base+"/jobs/"+id+"/report", "")
	if code != http.StatusOK {
		t.Fatalf("GET /jobs/%s/report = %d; body: %s", id, code, body)
	}
	return string(body)
}

// --- unit: queue, spec, manifest ---------------------------------------

func TestJobQueueBoundsForceAndClose(t *testing.T) {
	q := newJobQueue(2)
	a, b, c, d := newJob("a", JobSpec{}), newJob("b", JobSpec{}), newJob("c", JobSpec{}), newJob("d", JobSpec{})
	if !q.push(a) || !q.push(b) {
		t.Fatal("pushes under capacity refused")
	}
	if q.push(c) {
		t.Fatal("push beyond capacity admitted")
	}
	if !q.force(c) {
		t.Fatal("force beyond capacity refused")
	}
	if q.depth() != 3 {
		t.Fatalf("depth = %d, want 3", q.depth())
	}
	if j, ok := q.pop(); !ok || j != a {
		t.Fatalf("pop = %v, want job a", j)
	}
	q.close()
	if q.push(d) || q.force(d) {
		t.Fatal("closed queue admitted a job")
	}
	if _, ok := q.pop(); ok {
		t.Fatal("closed queue dispatched a job")
	}
	if q.depth() != 2 {
		t.Fatalf("closed queue dropped queued jobs: depth = %d, want 2", q.depth())
	}
}

func TestJobSpecValidation(t *testing.T) {
	cases := []struct {
		spec JobSpec
		want string // error substring; empty = valid
	}{
		{JobSpec{Experiment: "sweep"}, ""},
		{JobSpec{Experiment: "learners", Profile: "tiny"}, ""},
		{JobSpec{Experiment: "sweep", Profile: "full", Seed: 7, Scenarios: 2, TimeoutSec: 60}, ""},
		{JobSpec{}, "not servable"},
		{JobSpec{Experiment: "fig9"}, "not servable"},
		{JobSpec{Experiment: "sweep", Profile: "huge"}, "unknown profile"},
		{JobSpec{Experiment: "sweep", Scenarios: -1}, "scenarios"},
		{JobSpec{Experiment: "learners", Scenarios: 2}, "only applies to the sweep"},
		{JobSpec{Experiment: "sweep", TimeoutSec: -1}, "timeout_sec"},
		{JobSpec{Experiment: "sweep", Learner: "nope"}, "nope"},
		{JobSpec{Experiment: "sweep", Schedule: "nope"}, "nope"},
		{JobSpec{Experiment: "sweep", Fidelity: "screening"}, ""},
		{JobSpec{Experiment: "sweep", Fidelity: "auto"}, "unknown fidelity"},
	}
	for _, c := range cases {
		err := c.spec.Validate()
		if c.want == "" {
			if err != nil {
				t.Errorf("Validate(%+v) = %v, want ok", c.spec, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Validate(%+v) = %v, want substring %q", c.spec, err, c.want)
		}
	}
}

func TestManifestRoundTripAndCorruptQuarantine(t *testing.T) {
	serverTestSetup(t)
	dir := t.TempDir()
	m := manifest{
		ID: "job-000003", Seq: 3, Spec: tinySweepSpec(), State: string(StateDone),
		Report: "the report", Cells: CellProgress{Done: 3, Total: 3, Replayed: 1},
	}
	if err := experiment.RunStore().Write("job manifest", manifestPath(dir, m.ID), manifestVersion, &m, manifestFaults); err != nil {
		t.Fatal(err)
	}
	got, err := loadManifests(experiment.RunStore(), dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].ID != m.ID || got[0].Report != m.Report || got[0].Cells != m.Cells {
		t.Fatalf("round trip lost data: %+v", got)
	}
	// A corrupt manifest is quarantined and skipped, not fatal.
	bad := manifestPath(dir, "job-000004")
	if err := os.WriteFile(bad, []byte("rot"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err = loadManifests(experiment.RunStore(), dir)
	if err != nil {
		t.Fatalf("corrupt manifest failed the load: %v", err)
	}
	if len(got) != 1 {
		t.Fatalf("manifests = %d, want 1 (corrupt one skipped)", len(got))
	}
	if _, err := os.Stat(bad + ".corrupt"); err != nil {
		t.Fatalf("corrupt manifest not quarantined: %v", err)
	}
}

// --- integration: byte-identity, dedup, faults, restart, drain ---------

// TestServeReportByteIdenticalToCLIColdAndWarm is the tentpole
// contract: a served job's report is byte-identical to the equivalent
// CLI run — on a cold cache, and again when a duplicate job replays
// every cell.
func TestServeReportByteIdenticalToCLIColdAndWarm(t *testing.T) {
	serverTestSetup(t)
	want := tinySweepWant(t)
	srv, err := New(testConfig(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	defer srv.Drain()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	cold := submitJob(t, ts.URL, `{"experiment":"sweep","profile":"tiny","scenarios":3}`)
	st := waitTerminal(t, ts.URL, cold.ID)
	if st.State != StateDone {
		t.Fatalf("cold job = %s (%s), want done", st.State, st.Error)
	}
	if got := fetchReport(t, ts.URL, cold.ID); got != want {
		t.Fatalf("cold served report differs from CLI bytes:\n--- served ---\n%s--- cli ---\n%s", got, want)
	}
	if st.Cells.Done != 3 || st.Cells.Replayed != 0 {
		t.Fatalf("cold cells = %+v, want 3 computed", st.Cells)
	}

	warm := submitJob(t, ts.URL, `{"experiment":"sweep","profile":"tiny","scenarios":3}`)
	st2 := waitTerminal(t, ts.URL, warm.ID)
	if st2.State != StateDone {
		t.Fatalf("warm job = %s (%s), want done", st2.State, st2.Error)
	}
	if got := fetchReport(t, ts.URL, warm.ID); got != want {
		t.Fatal("warm served report differs from CLI bytes")
	}
	if st2.Cells.Replayed != st2.Cells.Total || st2.Cells.Total != 3 {
		t.Fatalf("warm cells = %+v, want all 3 replayed (cross-job dedup)", st2.Cells)
	}

	// The event stream replays the whole history once settled: queued,
	// running, cells (replayed on the warm job), done.
	code, hdr, body := httpDo(t, "GET", ts.URL+"/jobs/"+warm.ID+"/events", "")
	if code != http.StatusOK || !strings.Contains(hdr.Get("Content-Type"), "ndjson") {
		t.Fatalf("events = %d %s", code, hdr.Get("Content-Type"))
	}
	var states []string
	replayedCells := 0
	for _, line := range strings.Split(strings.TrimSpace(string(body)), "\n") {
		var e Event
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", line, err)
		}
		if e.Event == "state" {
			states = append(states, string(e.State))
		}
		if e.Event == "cell" && e.Replayed {
			replayedCells++
		}
	}
	if want := []string{"queued", "running", "done"}; strings.Join(states, ",") != strings.Join(want, ",") {
		t.Fatalf("event states = %v, want %v", states, want)
	}
	if replayedCells != 3 {
		t.Fatalf("replayed cell events = %d, want 3", replayedCells)
	}
}

// TestServeConcurrentDuplicateJobsShareWork pins cross-job dedup: two
// identical jobs racing on two runners produce byte-identical reports,
// and the singleflight memo hands one job's simulations to the other.
func TestServeConcurrentDuplicateJobsShareWork(t *testing.T) {
	serverTestSetup(t)
	want := tinySweepWant(t)
	cfg := testConfig(t.TempDir())
	cfg.JobWorkers = 2
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	defer srv.Drain()

	a, err := srv.Submit(tinySweepSpec())
	if err != nil {
		t.Fatal(err)
	}
	b, err := srv.Submit(tinySweepSpec())
	if err != nil {
		t.Fatal(err)
	}
	if sa, sb := a.Wait(), b.Wait(); sa != StateDone || sb != StateDone {
		t.Fatalf("states = %s/%s, want done/done", sa, sb)
	}
	ra, _ := a.Report()
	rb, _ := b.Report()
	if ra != want || rb != want {
		t.Fatal("concurrent duplicate jobs rendered different bytes than the CLI run")
	}
	ca, cb := a.Status().Counters, b.Status().Counters
	shared := ca.MemoHits + ca.DiskHits + cb.MemoHits + cb.DiskHits
	replayed := a.Status().Cells.Replayed + b.Status().Cells.Replayed
	if shared == 0 && replayed == 0 {
		t.Fatalf("no dedup observed: counters a=%+v b=%+v", ca, cb)
	}
}

// TestServeReportByteIdenticalUnderInjectedTransientFaults is the
// fault campaign: transient cell faults and a manifest write failure
// must cost retries, never bytes.
func TestServeReportByteIdenticalUnderInjectedTransientFaults(t *testing.T) {
	serverTestSetup(t)
	want := tinySweepWant(t)
	srv, err := New(testConfig(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	faultinject.Enable(faultinject.NewScript(
		faultinject.FailTransient(faultinject.CellAttempt, 1),
		faultinject.FailTransient(faultinject.CellAttempt, 4),
		faultinject.Fail(faultinject.ManifestWrite, 1),
	))
	defer faultinject.Disable()
	srv.Start()
	defer srv.Drain()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	st := submitJob(t, ts.URL, `{"experiment":"sweep","profile":"tiny","scenarios":3}`)
	fin := waitTerminal(t, ts.URL, st.ID)
	if fin.State != StateDone {
		t.Fatalf("faulted job = %s (%s), want done", fin.State, fin.Error)
	}
	if got := fetchReport(t, ts.URL, st.ID); got != want {
		t.Fatal("injected faults changed the served report bytes")
	}
	if fin.Counters.CellRetries != 2 {
		t.Fatalf("job cell_retries = %d, want 2", fin.Counters.CellRetries)
	}
	// The retries and the swallowed manifest write both surface in /statsz.
	code, _, body := httpDo(t, "GET", ts.URL+"/statsz", "")
	if code != http.StatusOK {
		t.Fatalf("statsz = %d", code)
	}
	var stats statsz
	if err := json.Unmarshal(body, &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Store.Retry.CellRetries != 2 {
		t.Fatalf("statsz retries = %d, want 2", stats.Store.Retry.CellRetries)
	}
	if stats.Store.RunCache.WriteFailures < 1 {
		t.Fatalf("statsz write failures = %d, want ≥ 1 (manifest fault)", stats.Store.RunCache.WriteFailures)
	}
}

// TestServeDrainMidJobRestartResumesByteIdentical is the crash-resume
// pin: drain a server mid-job, restart over the same cache directory,
// and the re-adopted job must finish with the CLI's exact bytes while
// replaying the cells the first process checkpointed.
func TestServeDrainMidJobRestartResumesByteIdentical(t *testing.T) {
	serverTestSetup(t)
	want := tinySweepWant(t)
	dir := t.TempDir()
	cfg := testConfig(dir)
	cfg.CellWorkers = 1 // sequential cells: the drain lands mid-grid
	srv1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv1.Start()
	j, err := srv1.Submit(tinySweepSpec())
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(3 * time.Minute)
	for j.Status().Cells.Done < 1 {
		if time.Now().After(deadline) {
			t.Fatal("no cell completed before drain")
		}
		time.Sleep(5 * time.Millisecond)
	}
	srv1.Drain()
	state := j.State()
	if state != StateInterrupted && state != StateDone {
		t.Fatalf("drained job = %s, want interrupted (or done if it outran the drain)", state)
	}

	// "Restart": fresh process state over the same cache directory.
	experiment.ResetRunCache()
	experiment.ResetCheckpointStats()
	srv2, err := New(testConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	j2, ok := srv2.Job(j.ID())
	if !ok {
		t.Fatalf("job %s not re-adopted", j.ID())
	}
	srv2.Start()
	defer srv2.Drain()
	ts := httptest.NewServer(srv2.Handler())
	defer ts.Close()
	fin := waitTerminal(t, ts.URL, j2.ID())
	if fin.State != StateDone {
		t.Fatalf("re-adopted job = %s (%s), want done", fin.State, fin.Error)
	}
	if got := fetchReport(t, ts.URL, j2.ID()); got != want {
		t.Fatal("re-adopted report differs from CLI bytes")
	}
	if state == StateInterrupted && fin.Cells.Replayed < 1 {
		t.Fatalf("re-adopted job replayed %d cells, want ≥ 1 (checkpoints survived)", fin.Cells.Replayed)
	}
	// Replayed-cell accounting surfaces in /statsz.
	var stats statsz
	_, _, body := httpDo(t, "GET", ts.URL+"/statsz", "")
	if err := json.Unmarshal(body, &stats); err != nil {
		t.Fatal(err)
	}
	if state == StateInterrupted && stats.Store.Checkpoint.Replayed < 1 {
		t.Fatalf("statsz replayed = %d, want ≥ 1", stats.Store.Checkpoint.Replayed)
	}
}

// TestServeAdoptsRunningManifestAfterHardCrash covers the no-drain
// crash: a manifest frozen in "running" (the process died without
// persisting a terminal state) re-admits, runs, and serves the CLI's
// bytes; the ID sequence continues past the adopted job.
func TestServeAdoptsRunningManifestAfterHardCrash(t *testing.T) {
	serverTestSetup(t)
	want := tinySweepWant(t)
	dir := t.TempDir()
	jobsDir := manifestDir(dir)
	if err := os.MkdirAll(jobsDir, 0o755); err != nil {
		t.Fatal(err)
	}
	m := manifest{ID: "job-000007", Seq: 7, Spec: tinySweepSpec(), State: string(StateRunning)}
	if err := experiment.RunStore().Write("job manifest", manifestPath(jobsDir, m.ID), manifestVersion, &m, manifestFaults); err != nil {
		t.Fatal(err)
	}
	srv, err := New(testConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	j, ok := srv.Job("job-000007")
	if !ok {
		t.Fatal("crashed job not adopted")
	}
	if j.State() != StateQueued {
		t.Fatalf("adopted job = %s, want queued", j.State())
	}
	srv.Start()
	defer srv.Drain()
	if st := j.Wait(); st != StateDone {
		t.Fatalf("adopted job = %s, want done", st)
	}
	if got, _ := j.Report(); got != want {
		t.Fatal("adopted job report differs from CLI bytes")
	}
	next, err := srv.Submit(tinySweepSpec())
	if err != nil {
		t.Fatal(err)
	}
	if next.ID() != "job-000008" {
		t.Fatalf("next ID = %s, want job-000008 (sequence continues)", next.ID())
	}
}

// TestServeBackpressureAndDrainRefusal pins admission control: a full
// queue and a draining server both refuse with 429 + Retry-After,
// readiness flips during drain, and queued jobs survive the drain to
// run after a restart.
func TestServeBackpressureAndDrainRefusal(t *testing.T) {
	serverTestSetup(t)
	want := tinySweepWant(t)
	dir := t.TempDir()
	cfg := testConfig(dir)
	cfg.QueueCap = 2
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Deliberately not started: the queue fills deterministically.
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	spec := `{"experiment":"sweep","profile":"tiny","scenarios":3}`
	submitJob(t, ts.URL, spec)
	submitJob(t, ts.URL, spec)
	code, hdr, body := httpDo(t, "POST", ts.URL+"/jobs", spec)
	if code != http.StatusTooManyRequests {
		t.Fatalf("overflow POST = %d, want 429; body: %s", code, body)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	if !strings.Contains(string(body), "queue full") {
		t.Fatalf("429 body %q does not name the queue", body)
	}
	if code, _, _ := httpDo(t, "GET", ts.URL+"/readyz", ""); code != http.StatusOK {
		t.Fatalf("readyz before drain = %d, want 200", code)
	}
	var stats statsz
	_, _, body = httpDo(t, "GET", ts.URL+"/statsz", "")
	if err := json.Unmarshal(body, &stats); err != nil {
		t.Fatal(err)
	}
	if stats.QueueDepth != 2 || stats.Draining {
		t.Fatalf("statsz = %+v, want 2 queued, not draining", stats)
	}

	srv.Drain()
	code, hdr, body = httpDo(t, "POST", ts.URL+"/jobs", spec)
	if code != http.StatusTooManyRequests || !strings.Contains(string(body), "draining") {
		t.Fatalf("draining POST = %d %q, want 429 draining", code, body)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("draining 429 without Retry-After")
	}
	if code, _, _ := httpDo(t, "GET", ts.URL+"/readyz", ""); code != http.StatusServiceUnavailable {
		t.Fatalf("readyz during drain = %d, want 503", code)
	}
	if code, _, _ := httpDo(t, "GET", ts.URL+"/healthz", ""); code != http.StatusOK {
		t.Fatalf("healthz during drain = %d, want 200 (alive, just not admitting)", code)
	}

	// The two admitted jobs persisted as queued; a restart runs them.
	experiment.ResetRunCache()
	srv2, err := New(testConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	jobs := srv2.Jobs()
	if len(jobs) != 2 {
		t.Fatalf("re-adopted %d jobs, want 2", len(jobs))
	}
	srv2.Start()
	defer srv2.Drain()
	for _, j := range jobs {
		if st := j.Wait(); st != StateDone {
			t.Fatalf("re-adopted job %s = %s, want done", j.ID(), st)
		}
		if got, _ := j.Report(); got != want {
			t.Fatalf("re-adopted job %s report differs from CLI bytes", j.ID())
		}
	}
}

// TestServeCancelQueuedAndRunning covers DELETE /jobs/{id} both before
// and after a runner picks the job up.
func TestServeCancelQueuedAndRunning(t *testing.T) {
	serverTestSetup(t)
	srv, err := New(testConfig(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Queued cancel: the server is not started, so the job cannot run.
	queued, err := srv.Submit(tinySweepSpec())
	if err != nil {
		t.Fatal(err)
	}
	code, _, body := httpDo(t, "DELETE", ts.URL+"/jobs/"+queued.ID(), "")
	if code != http.StatusAccepted {
		t.Fatalf("DELETE queued = %d; body: %s", code, body)
	}
	if st := queued.State(); st != StateCancelled {
		t.Fatalf("queued job after cancel = %s, want cancelled", st)
	}

	// Running cancel: start the pool (which skips the cancelled job),
	// wait for the next job to be running, then cancel it.
	srv.Start()
	defer srv.Drain()
	spec := tinySweepSpec()
	spec.Seed = 9 // fresh cells, so the job cannot instantly replay to done
	running, err := srv.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(time.Minute)
	for running.State() == StateQueued {
		if time.Now().After(deadline) {
			t.Fatal("job never started")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if code, _, _ := httpDo(t, "DELETE", ts.URL+"/jobs/"+running.ID(), ""); code != http.StatusAccepted {
		t.Fatalf("DELETE running = %d", code)
	}
	if st := running.Wait(); st != StateCancelled {
		t.Fatalf("running job after cancel = %s, want cancelled", st)
	}
	if code, _, _ := httpDo(t, "DELETE", ts.URL+"/jobs/nope", ""); code != http.StatusNotFound {
		t.Fatal("DELETE of unknown job not 404")
	}
}

// TestServeJobDeadlineFailsJob pins the per-job timeout: a deadline
// too short to finish classifies as failed, naming the deadline.
func TestServeJobDeadlineFailsJob(t *testing.T) {
	serverTestSetup(t)
	cfg := testConfig(t.TempDir())
	cfg.JobTimeout = time.Millisecond
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	defer srv.Drain()
	j, err := srv.Submit(tinySweepSpec())
	if err != nil {
		t.Fatal(err)
	}
	if st := j.Wait(); st != StateFailed {
		t.Fatalf("timed-out job = %s, want failed", st)
	}
	if st := j.Status(); !strings.Contains(st.Error, "deadline") {
		t.Fatalf("timeout error %q does not name the deadline", st.Error)
	}
}

// TestServeRejectsBadRequests covers the 400 surface.
func TestServeRejectsBadRequests(t *testing.T) {
	serverTestSetup(t)
	srv, err := New(testConfig(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	for _, body := range []string{
		`{`,
		`{"experiment":"fig9"}`,
		`{"experiment":"sweep","profile":"huge"}`,
		`{"experiment":"sweep","bogus":1}`,
	} {
		if code, _, resp := httpDo(t, "POST", ts.URL+"/jobs", body); code != http.StatusBadRequest {
			t.Errorf("POST %q = %d (%s), want 400", body, code, resp)
		}
	}
	if code, _, _ := httpDo(t, "GET", ts.URL+"/jobs/absent", ""); code != http.StatusNotFound {
		t.Error("GET of unknown job not 404")
	}
	if code, _, _ := httpDo(t, "GET", ts.URL+"/jobs/absent/report", ""); code != http.StatusNotFound {
		t.Error("report of unknown job not 404")
	}
}

// TestServeInjectedAdmissionFaultRefusesCleanly: an armed ServeAdmit
// failpoint refuses the submission without registering a job or
// leaving a manifest for a restart to adopt.
func TestServeInjectedAdmissionFaultRefusesCleanly(t *testing.T) {
	serverTestSetup(t)
	dir := t.TempDir()
	srv, err := New(testConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	faultinject.Enable(faultinject.NewScript(faultinject.Fail(faultinject.ServeAdmit, 1)))
	defer faultinject.Disable()
	if _, err := srv.Submit(tinySweepSpec()); err == nil {
		t.Fatal("injected admission fault did not refuse the submission")
	}
	if jobs := srv.Jobs(); len(jobs) != 0 {
		t.Fatalf("refused submission registered %d jobs", len(jobs))
	}
	entries, err := os.ReadDir(manifestDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("refused submission left %d manifests", len(entries))
	}
	// The very next submission (fault spent) is admitted normally.
	if _, err := srv.Submit(tinySweepSpec()); err != nil {
		t.Fatalf("post-fault submission refused: %v", err)
	}
}

func TestServerConfigValidation(t *testing.T) {
	dir := "d"
	cases := []struct {
		cfg  Config
		want string
	}{
		{Config{QueueCap: 1, JobWorkers: 1}, "cache directory"},
		{Config{CacheDir: dir, QueueCap: 0, JobWorkers: 1}, "queue capacity"},
		{Config{CacheDir: dir, QueueCap: 1, JobWorkers: 0}, "job workers"},
		{Config{CacheDir: dir, QueueCap: 1, JobWorkers: 1, CellBudget: -1}, "cell budget"},
		{Config{CacheDir: dir, QueueCap: 1, JobWorkers: 1, CellWorkers: -1}, "cell workers"},
		{Config{CacheDir: dir, QueueCap: 1, JobWorkers: 1, JobTimeout: -time.Second}, "job timeout"},
		{Config{CacheDir: dir, QueueCap: 1, JobWorkers: 1, Retry: experiment.RetryPolicy{MaxAttempts: -1}}, "retry"},
	}
	for _, c := range cases {
		err := c.cfg.validate()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("validate(%+v) = %v, want substring %q", c.cfg, err, c.want)
		}
	}
}

// TestServeReportNotReadyConflict: a queued job's report is a 409 with
// Retry-After; a cancelled job's is a 409 without one.
func TestServeReportNotReadyConflict(t *testing.T) {
	serverTestSetup(t)
	srv, err := New(testConfig(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	j, err := srv.Submit(tinySweepSpec()) // never started
	if err != nil {
		t.Fatal(err)
	}
	code, hdr, _ := httpDo(t, "GET", ts.URL+"/jobs/"+j.ID()+"/report", "")
	if code != http.StatusConflict || hdr.Get("Retry-After") == "" {
		t.Fatalf("queued report = %d (Retry-After %q), want 409 with Retry-After", code, hdr.Get("Retry-After"))
	}
	srv.Cancel(j.ID())
	code, hdr, _ = httpDo(t, "GET", ts.URL+"/jobs/"+j.ID()+"/report", "")
	if code != http.StatusConflict || hdr.Get("Retry-After") != "" {
		t.Fatalf("cancelled report = %d (Retry-After %q), want terminal 409 without Retry-After", code, hdr.Get("Retry-After"))
	}
}

// TestServeSharedInstancesShareOneGrid: two serve instances with
// Config.Shared over one cache dir are the serve-mode half of
// distributed sweeps — each runs the same job and both reports must be
// the CLI's bytes, with the grid's cells computed once between the two
// processes (lease dedup across instances, not just in-process
// singleflight).
func TestServeSharedInstancesShareOneGrid(t *testing.T) {
	serverTestSetup(t)
	want := tinySweepWant(t)
	dir := t.TempDir()
	experiment.ResetCheckpointStats()
	cfgA, cfgB := testConfig(dir), testConfig(dir)
	cfgA.Shared, cfgB.Shared = true, true
	srvA, err := New(cfgA)
	if err != nil {
		t.Fatal(err)
	}
	srvB, err := New(cfgB)
	if err != nil {
		t.Fatal(err)
	}
	srvA.Start()
	defer srvA.Drain()
	srvB.Start()
	defer srvB.Drain()

	a, err := srvA.Submit(tinySweepSpec())
	if err != nil {
		t.Fatal(err)
	}
	b, err := srvB.Submit(tinySweepSpec())
	if err != nil {
		t.Fatal(err)
	}
	if sa, sb := a.Wait(), b.Wait(); sa != StateDone || sb != StateDone {
		t.Fatalf("states = %s/%s, want done/done", sa, sb)
	}
	ra, _ := a.Report()
	rb, _ := b.Report()
	if ra != want || rb != want {
		t.Fatal("shared serve instances rendered different bytes than the CLI run")
	}
	// Both instances run in this process, so the process-wide save
	// counter covers them jointly: the grid's cells were computed (and
	// saved) exactly once across the two.
	if st := experiment.Snapshot().Checkpoint; st.Saved != 3 {
		t.Fatalf("cells saved across shared instances = %d, want 3", st.Saved)
	}
}
