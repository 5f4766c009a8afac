package experiment

import (
	"fmt"
	"os"
	"path/filepath"

	"cohmeleon/internal/faultinject"
	"cohmeleon/internal/store"
)

// Experiment checkpoints: the grid experiments (sweep, learners) persist
// every completed cell — measurements plus trained learner state — as
// its own atomically-written, checksummed file under the run cache
// directory, keyed by a content hash of everything that determines cell
// values (options, format versions, loaded learner state). An
// interrupted run therefore loses at most the in-flight cells; rerunning
// with Options.Resume replays the completed ones byte-identically and
// simulates only the rest. Because each cell file is the exact value the
// aggregation consumes (floats round-trip bit-exactly through gob), a
// resumed report is byte-identical to an uninterrupted run — that
// identity is pinned by the interrupt/resume property test.
//
// One file per cell (rather than one growing checkpoint file) keeps
// concurrent workers from serializing on a shared writer, makes every
// write crash-atomic via the store's rename, and lets a corrupt cell be
// quarantined and recomputed alone — the store heals itself instead of
// abandoning the whole checkpoint.

// checkpointVersion tags the cell file format and the checkpoint
// directory naming. Bump it when either changes: old checkpoints are
// then simply never matched, not misread.
const checkpointVersion = 1

// checkpoint is one experiment run's cell store. A nil checkpoint (no
// cache directory configured) is valid and inert: loads miss, saves
// drop, so the experiments need no conditionals around it.
type checkpoint struct {
	store  *store.Store
	dir    string
	key    string // directory basename: <experiment>-v<version>-<paramhash>
	resume bool
}

// ckptFaults are the checkpoint cells' failpoints.
var ckptFaults = store.Faults{
	Open: faultinject.CkptOpen, Create: faultinject.CkptCreate,
	Write: faultinject.CkptWrite, Rename: faultinject.CkptRename,
}

// checkpointRoot names the checkpoint area under a cache directory.
func checkpointRoot(cacheDir string) string {
	return filepath.Join(cacheDir, "checkpoints")
}

// openCheckpoint opens (creating if needed) the cell store for one
// experiment run. paramHash must cover every input that determines cell
// values, so runs with different parameters can never replay each
// other's cells; resume gates replay while saving is always on — an
// interrupted run leaves its checkpoint behind whether or not the user
// planned to resume it.
func openCheckpoint(experiment string, paramHash runKey, resume bool) (*checkpoint, error) {
	st := RunStore()
	if st.Dir() == "" {
		return nil, nil
	}
	key := fmt.Sprintf("%s-v%d-%x", experiment, checkpointVersion, paramHash[:])
	dir := filepath.Join(checkpointRoot(st.Dir()), key)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("experiment: checkpoint dir: %w", err)
	}
	return &checkpoint{store: st, dir: dir, key: key, resume: resume}, nil
}

// cellPath names cell i's file.
func (c *checkpoint) cellPath(i int) string {
	return filepath.Join(c.dir, fmt.Sprintf("cell-%06d.gob", i))
}

// load replays cell i into v, reporting whether it was served. Absent
// cells (and all cells when not resuming, or with no checkpoint) miss
// silently; a corrupt cell is quarantined so the caller recomputes it
// now and every later run sees it as absent.
func (c *checkpoint) load(i int, v interface{}) bool {
	if c == nil || !c.resume {
		return false
	}
	st, _ := c.store.Read(c.cellPath(i), ckptFaults, func(data []byte) error {
		return store.Unseal(data, checkpointVersion, v)
	})
	if st != store.Hit {
		return false
	}
	bump(ckptReplayed, 1)
	return true
}

// invalidate quarantines cell i: used for cells whose envelope verified
// but whose payload turned out unusable (e.g. an embedded learner state
// that no longer restores).
func (c *checkpoint) invalidate(i int, cause error) {
	if c != nil {
		c.store.Quarantine(c.cellPath(i), cause)
	}
}

// save persists cell i. Failures never fail the experiment — the
// computed cell is still in memory — but are counted and reported like
// run-store write failures.
func (c *checkpoint) save(i int, v interface{}) {
	if c == nil {
		return
	}
	if c.store.Write("checkpoint", c.cellPath(i), checkpointVersion, v, ckptFaults) == nil {
		bump(ckptSaved, 1)
	}
}
