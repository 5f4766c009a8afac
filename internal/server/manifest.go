package server

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"cohmeleon/internal/faultinject"
	"cohmeleon/internal/store"
)

// Job manifests make jobs crash-resumable: every admission and every
// state transition persists the job — spec, state, progress, and (when
// done) the full report — as a checksummed blob under
// <cache-dir>/jobs/, written, read and quarantined through the same
// store as run-store entries, so manifest faults count in /statsz. A
// restarted server over the same cache directory re-adopts every
// manifest: settled jobs serve their persisted reports
// byte-identically, unsettled ones re-enter the queue and resume from
// their checkpointed cells.

// manifestVersion tags the manifest blob format.
const manifestVersion = 1

// manifestFaults are the manifests' failpoints.
var manifestFaults = store.Faults{
	Open: faultinject.ManifestOpen, Create: faultinject.ManifestCreate,
	Write: faultinject.ManifestWrite, Rename: faultinject.ManifestRename,
}

// manifest is the persisted form of a job.
type manifest struct {
	ID     string
	Seq    int
	Spec   JobSpec
	State  string
	Error  string
	Report string
	Cells  CellProgress
}

// manifestDir names the job-manifest area under a cache directory.
func manifestDir(cacheDir string) string {
	return filepath.Join(cacheDir, "jobs")
}

// manifestPath names one job's manifest file.
func manifestPath(dir, id string) string {
	return filepath.Join(dir, id+".gob")
}

// persistJob writes the job's current state. Best-effort by design:
// like checkpoint saves, a failed manifest write costs durability (the
// job may not survive a restart) but never the in-memory job — the
// failure is counted and warned through the store's accounting.
func (s *Server) persistJob(j *Job) {
	if s.manifests == "" {
		return
	}
	st := j.Status()
	m := manifest{
		ID: st.ID, Seq: j.seq, Spec: st.Spec, State: string(st.State),
		Error: st.Error, Report: j.reportForManifest(), Cells: st.Cells,
	}
	// Ignore the error: the store already counted and reported it.
	_ = s.store.Write("job manifest", manifestPath(s.manifests, st.ID), manifestVersion, &m, manifestFaults)
}

// reportForManifest returns the report regardless of state (Status's
// ReportReady gating is for clients; the manifest keeps whatever
// exists).
func (j *Job) reportForManifest() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.report
}

// loadManifests reads every manifest under dir, in sequence order.
// Corrupt manifests are quarantined (*.corrupt) and skipped — one
// rotted job must not keep the server from starting; unreadable ones
// (including a corrupt one that could not be moved aside) fail the
// load, because silently forgetting adoptable jobs is worse than
// refusing to start.
func loadManifests(st *store.Store, dir string) ([]manifest, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("server: reading job manifests: %w", err)
	}
	var out []manifest
	for _, e := range entries {
		if e.IsDir() || filepath.Ext(e.Name()) != ".gob" {
			continue
		}
		var m manifest
		status, err := st.Read(filepath.Join(dir, e.Name()), manifestFaults, func(data []byte) error {
			return store.Unseal(data, manifestVersion, &m)
		})
		switch status {
		case store.Hit:
			out = append(out, m)
		case store.Unreadable:
			return nil, fmt.Errorf("server: job manifest %s: %w", e.Name(), err)
		}
	}
	sort.Slice(out, func(i, k int) bool { return out[i].Seq < out[k].Seq })
	return out, nil
}

// jobFromManifest revives a persisted job. Settled states revive
// as-is (their reports serve byte-identically); queued, running, and
// interrupted jobs revive queued — the previous process's promise to
// run them transfers to this one, and Resume replays every cell that
// already checkpointed.
func jobFromManifest(m manifest) (*Job, bool) {
	j := newJob(m.ID, m.Spec)
	j.seq = m.Seq
	switch JobState(m.State) {
	case StateDone, StateFailed, StateCancelled:
		j.state = JobState(m.State)
		j.report = m.Report
		j.errText = m.Error
		j.cells = m.Cells
		j.settled = true
		j.events = append(j.events, Event{Event: "state", State: j.state, Error: m.Error})
		return j, false
	default:
		// Progress counters reset: the re-run reports its own replay
		// traffic, which is the honest number for this process.
		return j, true
	}
}
