package store

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cohmeleon/internal/faultinject"
)

var testFaults = Faults{
	Open: faultinject.StoreOpen, Create: faultinject.StoreCreate,
	Write: faultinject.StoreWrite, Rename: faultinject.StoreRename,
}

// TestSealPinnedBytes pins the sealed bytes of a fixed payload. Gob
// writes the envelope's type name and field layout into every file, so
// renaming blobEnvelope or reshaping it would silently change every
// file written from then on; this digest is the one earlier builds
// produced, before the envelope moved into this package.
func TestSealPinnedBytes(t *testing.T) {
	data, err := Seal(3, "cohmeleon durable-file format pin")
	if err != nil {
		t.Fatal(err)
	}
	const want = "c5479d5b89697f33a77e98156692f87c342df2ab0ceea88ab654f591c12e9721"
	if got := fmt.Sprintf("%x", sha256.Sum256(data)); len(data) != 181 || got != want {
		t.Fatalf("sealed %d bytes with sha256 %s, want 181 bytes with %s", len(data), got, want)
	}
}

// TestVerifyRejects: a wrong version, a flipped payload byte and a
// truncated frame each fail verification.
func TestVerifyRejects(t *testing.T) {
	data, err := Seal(2, []int{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Verify(data, 3); err == nil || !strings.Contains(err.Error(), "version") {
		t.Errorf("wrong version: %v", err)
	}
	flipped := append([]byte(nil), data...)
	flipped[len(flipped)-2] ^= 0xff
	if _, err := Verify(flipped, 2); err == nil {
		t.Error("flipped payload byte verified")
	}
	if _, err := Verify(data[:len(data)/2], 2); err == nil {
		t.Error("truncated frame verified")
	}
	var got []int
	if err := Unseal(data, 2, &got); err != nil || len(got) != 3 || got[2] != 3 {
		t.Fatalf("Unseal = %v, %v", got, err)
	}
}

// TestWriteAtomicFaultsLeaveNoFile pins WriteAtomic's contract under
// injected faults at each of its three failpoints: the error is
// returned to the caller, the target path is never published (not even
// as an empty or torn file), and no temp file leaks in the directory.
// Regression: a shadowed err once swallowed write and rename faults,
// publishing an empty envelope (write) or reporting success with no
// file on disk (rename).
func TestWriteAtomicFaultsLeaveNoFile(t *testing.T) {
	data, err := Seal(1, "payload")
	if err != nil {
		t.Fatal(err)
	}
	for _, pt := range []faultinject.Point{faultinject.StoreCreate, faultinject.StoreWrite, faultinject.StoreRename} {
		t.Run(string(pt), func(t *testing.T) {
			dir := t.TempDir()
			target := filepath.Join(dir, "entry.gob")
			faultinject.Enable(faultinject.NewScript(faultinject.Fail(pt, 1)))
			defer faultinject.Disable()
			err := WriteAtomic(target, data, testFaults)
			if err == nil {
				t.Fatalf("fault at %s: WriteAtomic reported success", pt)
			}
			if _, serr := os.Stat(target); !os.IsNotExist(serr) {
				t.Errorf("fault at %s: target was published (stat: %v)", pt, serr)
			}
			left, gerr := filepath.Glob(filepath.Join(dir, "*"))
			if gerr != nil {
				t.Fatal(gerr)
			}
			if len(left) != 0 {
				t.Errorf("fault at %s: directory not empty after failed write: %v", pt, left)
			}
		})
	}
}

// TestWriteAtomicRoundTrip pins the success path: the published file
// opens as a valid envelope holding the original payload.
func TestWriteAtomicRoundTrip(t *testing.T) {
	dir := t.TempDir()
	target := filepath.Join(dir, "entry.gob")
	data, err := Seal(7, "round-trip")
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteAtomic(target, data, testFaults); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(target)
	if err != nil {
		t.Fatal(err)
	}
	var s string
	if err := Unseal(got, 7, &s); err != nil {
		t.Fatal(err)
	}
	if s != "round-trip" {
		t.Fatalf("round-tripped payload = %q", s)
	}
	left, err := filepath.Glob(filepath.Join(dir, ".blob-*.tmp"))
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 0 {
		t.Fatalf("temp files leaked: %v", left)
	}
}

// TestLinkExclusive: the first link publishes, a second finds the path
// taken and leaves the first file's bytes, and no temp file leaks.
func TestLinkExclusive(t *testing.T) {
	dir := t.TempDir()
	target := filepath.Join(dir, "cell.lease")
	if err := LinkExclusive(target, []byte("first")); err != nil {
		t.Fatal(err)
	}
	if err := LinkExclusive(target, []byte("second")); !os.IsExist(err) {
		t.Fatalf("second link = %v, want an exists error", err)
	}
	if got, _ := os.ReadFile(target); string(got) != "first" {
		t.Fatalf("target holds %q, want the first writer's bytes", got)
	}
	if left, _ := filepath.Glob(filepath.Join(dir, ".*.tmp")); len(left) != 0 {
		t.Fatalf("temp files leaked: %v", left)
	}
}

// TestReadStatuses walks one read through each outcome and checks the
// counters each one moves.
func TestReadStatuses(t *testing.T) {
	t.Cleanup(faultinject.Disable)
	dir := t.TempDir()
	var warn bytes.Buffer
	s := &Store{dir: dir, stderr: &warn}
	path := filepath.Join(dir, "entry.gob")
	var got string
	decode := func(data []byte) error { return Unseal(data, 1, &got) }

	if st, err := s.Read(path, testFaults, decode); st != Absent || err != nil {
		t.Fatalf("missing file: %v, %v", st, err)
	}
	if err := s.Write("run store", path, 1, "hello", testFaults); err != nil {
		t.Fatal(err)
	}
	if st, err := s.Read(path, testFaults, decode); st != Hit || err != nil || got != "hello" {
		t.Fatalf("written file: %v, %v, %q", st, err, got)
	}

	faultinject.Enable(faultinject.NewScript(faultinject.Fail(faultinject.StoreOpen, 1)))
	if st, err := s.Read(path, testFaults, decode); st != Unreadable || err == nil {
		t.Fatalf("faulted read: %v, %v", st, err)
	}
	faultinject.Disable()
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("an unreadable entry must stay in place: %v", err)
	}

	if err := os.WriteFile(path, []byte("rot"), 0o644); err != nil {
		t.Fatal(err)
	}
	if st, err := s.Read(path, testFaults, decode); st != Corrupt || err == nil {
		t.Fatalf("corrupt file: %v, %v", st, err)
	}
	if _, err := os.Stat(quarantinePath(path)); err != nil {
		t.Fatalf("corrupt file not quarantined: %v", err)
	}
	if st, _ := s.Read(path, testFaults, decode); st != Absent {
		t.Fatalf("quarantined key reads %v, want absent", st)
	}

	// A corrupt file that cannot be moved aside (its quarantine name is
	// a non-empty directory) stays in place and counts as a read failure.
	if err := os.WriteFile(path, []byte("rot again"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(quarantinePath(path)); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(quarantinePath(path), "occupied"), 0o755); err != nil {
		t.Fatal(err)
	}
	if st, err := s.Read(path, testFaults, decode); st != Unreadable || err == nil {
		t.Fatalf("unmovable corrupt file: %v, %v", st, err)
	}

	faultinject.Enable(faultinject.NewScript(faultinject.Fail(faultinject.StoreRename, 1)))
	if err := s.Write("checkpoint", path, 1, "lost", testFaults); err == nil {
		t.Fatal("faulted write reported success")
	}
	faultinject.Disable()

	want := Stats{WriteFailures: 1, ReadFailures: 2, Quarantined: 1}
	if got := s.Stats(); got != want {
		t.Fatalf("stats = %+v, want %+v", got, want)
	}
	if n := strings.Count(warn.String(), "\n"); n != 3 {
		t.Fatalf("warned %d lines, want one per kind:\n%s", n, warn.String())
	}
	s.Reset()
	if got := s.Stats(); got != (Stats{}) {
		t.Fatalf("stats after Reset = %+v", got)
	}
}

// TestWarningStderrBytes pins the store's warnings to the exact
// stderr text the CLI has always printed, including the
// once-per-process gating.
func TestWarningStderrBytes(t *testing.T) {
	var buf bytes.Buffer
	s := &Store{stderr: &buf}
	werr := errors.New("disk full")
	qerr := errors.New("checksum mismatch")
	rerr := errors.New("permission denied")
	s.WriteFailed("run store", werr)
	s.WriteFailed("checkpoint", werr) // gated: silent
	s.quarantined("/c/entry.gob", qerr)
	s.quarantined("/c/other.gob", qerr) // gated: silent
	s.ReadFailed("/c/entry.gob", rerr)
	s.ReadFailed("/c/other.gob", rerr) // gated: silent
	want := "cohmeleon: run store write failed (results still computed, just not persisted; further failures counted silently): disk full\n" +
		"cohmeleon: corrupt cache entry quarantined as /c/entry.gob.corrupt (checksum mismatch); it will be regenerated\n" +
		"cohmeleon: cache entry /c/entry.gob unreadable, treating as a miss: permission denied\n"
	if got := buf.String(); got != want {
		t.Fatalf("default sink output differs:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
	// Reset re-arms the one-shot gating.
	s.Reset()
	buf.Reset()
	s.WriteFailed("run store", werr)
	if !strings.Contains(buf.String(), "run store write failed") {
		t.Fatal("reset did not re-arm the write-failure warning")
	}
}
