package experiment

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"cohmeleon/internal/costmodel"
	"cohmeleon/internal/store"
)

// VerifyResult summarizes a run-store fsck (-cache-verify).
type VerifyResult struct {
	// Runs is the number of current-version run entries examined; OK of
	// them re-hashed and decoded cleanly.
	Runs int
	OK   int
	// Quarantined counts entries that failed verification and were
	// renamed *.corrupt during this pass (runs and checkpoint cells).
	Quarantined int
	// Failed counts entries that failed verification but could not be
	// read or quarantined; they remain in place and will fail again on
	// the next run.
	Failed int
	// Stale counts run entries and cost-model files from other format
	// versions; they are never read by this binary and are left in place.
	Stale int
	// PriorQuarantine counts *.corrupt files from earlier quarantines.
	PriorQuarantine int
	// Models is the number of current-version cost-model files
	// examined; ModelsOK of them decoded and validated cleanly.
	Models   int
	ModelsOK int
	// Cells is the number of checkpoint cells examined; CellsOK of them
	// verified cleanly.
	Cells   int
	CellsOK int
	// Leases is the number of lease files examined; LeasesOK of them
	// verified cleanly (corrupt ones — torn by a kill -9 mid-write —
	// are quarantined and counted in Quarantined like any other entry).
	Leases   int
	LeasesOK int
	// LeasesSwept counts verified leases removed because their cell had
	// already published: a worker that died (or faulted) between publish
	// and release leaves one behind, and nothing ever claims a published
	// cell, so the lease would otherwise linger forever.
	LeasesSwept int
	// TmpSwept counts orphaned temp files (.***.tmp) left by killed
	// writers, removed during this pass. Counted apart from quarantines:
	// an orphaned temp is expected litter from a crash-atomic write, not
	// a corrupt entry.
	TmpSwept int
}

// String renders the fsck summary.
func (v VerifyResult) String() string {
	return fmt.Sprintf("run store: %d/%d entries ok, %d/%d cost models ok, %d checkpoint cells ok of %d, %d leases ok of %d, %d quarantined this pass, %d corrupt but not quarantined, %d stale-version, %d previously quarantined, %d published-cell leases swept, %d orphaned temp files swept",
		v.OK, v.Runs, v.ModelsOK, v.Models, v.CellsOK, v.Cells, v.LeasesOK, v.Leases, v.Quarantined, v.Failed, v.Stale, v.PriorQuarantine, v.LeasesSwept, v.TmpSwept)
}

// Clean reports whether every examined entry verified.
func (v VerifyResult) Clean() bool { return v.Quarantined == 0 && v.Failed == 0 }

// VerifyRunCache fscks a cache directory: every current-version run
// entry and cost-model file is re-read, re-hashed against its embedded
// checksum, and fully decoded; every checkpoint cell and lease is
// re-read and re-hashed. Entries that fail are quarantined exactly as a
// regular load would have done — verification is the same store read,
// run eagerly — so after a clean pass no future run can trip over a
// corrupt entry. The error is non-nil only when the directory itself
// cannot be walked; individual bad entries are a result, not an error.
func VerifyRunCache(dir string) (VerifyResult, error) {
	var out VerifyResult
	if dir == "" {
		return out, fmt.Errorf("experiment: no cache directory to verify")
	}
	st := RunStore()
	// verify reads one file through the store and tallies the outcome,
	// reporting whether it verified.
	verify := func(path string, decode func([]byte) error) bool {
		status, _ := st.Read(path, store.Faults{}, decode)
		switch status {
		case store.Hit:
			return true
		case store.Corrupt:
			out.Quarantined++
		default:
			out.Failed++
		}
		return false
	}
	envelope := func(version int) func([]byte) error {
		return func(data []byte) error {
			_, err := store.Verify(data, version)
			return err
		}
	}

	entries, err := os.ReadDir(dir)
	if err != nil {
		return out, fmt.Errorf("experiment: verifying cache: %w", err)
	}
	runPrefix := fmt.Sprintf("run-v%d-", runCacheVersion)
	modelPrefix := fmt.Sprintf("costmodel-v%d-", costmodel.FormatVersion)
	for _, ent := range entries {
		name := ent.Name()
		path := filepath.Join(dir, name)
		switch {
		case ent.IsDir():
			continue
		case strings.HasSuffix(name, ".corrupt"):
			out.PriorQuarantine++
		case !strings.HasSuffix(name, ".gob"):
			continue
		case strings.HasPrefix(name, runPrefix):
			out.Runs++
			if verify(path, func(data []byte) error { return unsealRun(data, &persistedRun{}) }) {
				out.OK++
			}
		case strings.HasPrefix(name, modelPrefix):
			out.Models++
			if verify(path, func(data []byte) error { _, err := costmodel.Decode(data); return err }) {
				out.ModelsOK++
			}
		case strings.HasPrefix(name, "run-v"), strings.HasPrefix(name, "costmodel-v"):
			out.Stale++
		}
	}
	// Checkpoint cells: same envelope, own format version.
	cells, err := filepath.Glob(filepath.Join(checkpointRoot(dir), "*", "cell-*.gob"))
	if err != nil {
		return out, fmt.Errorf("experiment: verifying checkpoints: %w", err)
	}
	for _, path := range cells {
		out.Cells++
		if verify(path, envelope(checkpointVersion)) {
			out.CellsOK++
		}
	}
	// Lease files: same envelope again. A lease that verifies but whose
	// cell already published is swept — its holder died (or faulted)
	// between publish and release, and no worker ever claims a
	// published cell, so it would linger forever.
	leases, err := filepath.Glob(filepath.Join(leaseRoot(dir), "*", "cell-*.lease"))
	if err != nil {
		return out, fmt.Errorf("experiment: verifying leases: %w", err)
	}
	for _, path := range leases {
		out.Leases++
		if !verify(path, envelope(leaseVersion)) {
			continue
		}
		out.LeasesOK++
		if cellPublished(dir, path) {
			if err := os.Remove(path); err == nil {
				out.LeasesSwept++
			} else {
				st.ReadFailed(path, fmt.Errorf("fsck: sweeping released lease: %w", err))
				out.Failed++
			}
		}
	}
	// Orphaned temp files: every writer in this store goes through a
	// dot-prefixed *.tmp temp file and renames, links or removes it; a
	// temp file still present belongs to a killed writer (fsck assumes
	// no writers are live) and is swept.
	for _, root := range []string{dir, checkpointRoot(dir), leaseRoot(dir)} {
		swept, failed := sweepTempFiles(st, root)
		out.TmpSwept += swept
		out.Failed += failed
	}
	return out, nil
}

// cellPublished reports whether the checkpoint cell a lease file guards
// already exists: leases/<key>/cell-NNNNNN.lease guards
// checkpoints/<key>/cell-NNNNNN.gob.
func cellPublished(cacheDir, leasePath string) bool {
	key := filepath.Base(filepath.Dir(leasePath))
	cell := strings.TrimSuffix(filepath.Base(leasePath), ".lease") + ".gob"
	_, err := os.Stat(filepath.Join(checkpointRoot(cacheDir), key, cell))
	return err == nil
}

// sweepTempFiles removes dot-prefixed *.tmp files under root (one level
// of subdirectories deep — the layout's maximum), reporting how many
// were swept and how many removals failed.
func sweepTempFiles(st *store.Store, root string) (swept, failed int) {
	for _, pattern := range []string{
		filepath.Join(root, ".*.tmp"),
		filepath.Join(root, "*", ".*.tmp"),
	} {
		matches, err := filepath.Glob(pattern)
		if err != nil {
			continue
		}
		for _, path := range matches {
			if err := os.Remove(path); err == nil {
				swept++
			} else if !os.IsNotExist(err) {
				st.ReadFailed(path, fmt.Errorf("fsck: sweeping temp file: %w", err))
				failed++
			}
		}
	}
	return swept, failed
}
