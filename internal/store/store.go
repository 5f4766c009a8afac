// Package store is the one durable-file path behind -cache-dir. Every
// persisted file — run entries, checkpoint cells, leases, cost-model
// coefficients and job manifests — is a gob envelope carrying a format
// version and the sha256 of its payload, so a reader can tell a valid
// file from a truncated, bit-rotted or foreign one before decoding
// anything, and an fsck can re-hash any file without knowing its
// payload type. Files are published whole, through a temp file and an
// atomic rename (or an exclusive hard link, for leases); a file that
// fails verification is moved aside as *.corrupt so it is regenerated
// once instead of failing on every run. The store counts write
// failures, read failures and quarantines, and warns about the first of
// each kind on stderr.
package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync/atomic"

	"cohmeleon/internal/faultinject"
)

// blobEnvelope is the on-disk frame around every persisted payload. Gob
// writes the type name into every file, so renaming it would change
// the bytes of every newly written file; TestSealPinnedBytes guards it.
type blobEnvelope struct {
	Version int
	Sum     [sha256.Size]byte // sha256 of Payload
	Payload []byte            // gob-encoded payload value
}

// Seal gob-encodes v and frames it in a checksummed envelope.
func Seal(version int, v any) ([]byte, error) {
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(v); err != nil {
		return nil, fmt.Errorf("store: encoding blob payload: %w", err)
	}
	env := blobEnvelope{
		Version: version,
		Sum:     sha256.Sum256(payload.Bytes()),
		Payload: payload.Bytes(),
	}
	var out bytes.Buffer
	if err := gob.NewEncoder(&out).Encode(&env); err != nil {
		return nil, fmt.Errorf("store: encoding blob envelope: %w", err)
	}
	return out.Bytes(), nil
}

// Verify checks a blob's frame — decodable, right version, checksum
// matches — and returns the payload bytes without interpreting them.
// Any error means the file is corrupt (not merely absent).
func Verify(data []byte, version int) ([]byte, error) {
	var env blobEnvelope
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&env); err != nil {
		return nil, fmt.Errorf("store: undecodable blob envelope: %w", err)
	}
	if env.Version != version {
		return nil, fmt.Errorf("store: blob version %d, want %d", env.Version, version)
	}
	if sha256.Sum256(env.Payload) != env.Sum {
		return nil, fmt.Errorf("store: blob checksum mismatch")
	}
	return env.Payload, nil
}

// Unseal verifies the frame and decodes the payload into v.
func Unseal(data []byte, version int, v any) error {
	payload, err := Verify(data, version)
	if err != nil {
		return err
	}
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(v); err != nil {
		return fmt.Errorf("store: undecodable blob payload: %w", err)
	}
	return nil
}

// Faults names the failpoints one kind of file checks on its way in
// and out, so the crash-safety tests can fault each kind apart. An
// empty point is never checked.
type Faults struct {
	Open, Create, Write, Rename faultinject.Point
}

func check(p faultinject.Point) error {
	if p == "" {
		return nil
	}
	return faultinject.Check(p)
}

// writeTemp writes data to a fresh temp file next to path and returns
// its name; on error nothing is left behind. The name carries the pid
// so two processes sharing a directory never collide on (or clean up)
// each other's in-flight temp file, on top of CreateTemp's random
// suffix; the dot prefix and .tmp suffix are what the fsck sweeps.
func writeTemp(path string, data []byte, f Faults) (string, error) {
	if err := check(f.Create); err != nil {
		return "", err
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), fmt.Sprintf(".blob-%d-*.tmp", os.Getpid()))
	if err != nil {
		return "", err
	}
	if err = check(f.Write); err == nil {
		_, err = tmp.Write(data)
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp.Name())
		return "", err
	}
	return tmp.Name(), nil
}

// WriteAtomic publishes data at path via a temp file and a rename, so
// a concurrent reader never sees a torn file and a crash mid-write
// leaves only an unreferenced temp file. On any failure the temp file
// is removed and the target is untouched.
func WriteAtomic(path string, data []byte, f Faults) error {
	tmp, err := writeTemp(path, data, f)
	if err != nil {
		return err
	}
	if err = check(f.Rename); err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
	}
	return err
}

// LinkExclusive publishes data at path only if nothing is there yet:
// the complete temp file is hard-linked into place, and the link fails
// with an os.IsExist error when path exists. Of any number of racing
// writers exactly one wins, and because the file is whole before its
// name appears, a reader never sees it half written (an exclusive
// create followed by a write would expose an empty file).
func LinkExclusive(path string, data []byte) error {
	tmp, err := writeTemp(path, data, Faults{})
	if err != nil {
		return err
	}
	err = os.Link(tmp, path)
	os.Remove(tmp) // a temp file a failed remove leaves is swept by the fsck
	return err
}

// quarantinePath names a corrupt file's resting place.
func quarantinePath(path string) string { return path + ".corrupt" }

// Status classifies one read.
type Status int

const (
	// Absent: no file (the ordinary miss).
	Absent Status = iota
	// Hit: the file verified and decoded.
	Hit
	// Corrupt: the file failed verification and was moved aside, so
	// the key now reads absent.
	Corrupt
	// Unreadable: the file exists but could not be used and is still in
	// place — the read failed, or a corrupt file could not be moved.
	Unreadable
)

// Store is one cache directory and the counters of its traffic. The
// directory may be empty (persistence off); the counters still work.
// The zero Store has persistence off and warns on os.Stderr.
type Store struct {
	dir    string
	stderr io.Writer // nil means os.Stderr

	writeFailures, readFailures, quarantines   atomic.Int64
	warnedWrite, warnedCorrupt, warnedReadFail atomic.Bool
}

// Open returns a store over dir, creating the directory if missing and
// probing it for writability, so a bad -cache-dir fails once with a
// clear error instead of silently dropping every write. An empty dir
// yields a store with persistence off.
func Open(dir string) (*Store, error) {
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("store: cache dir: %w", err)
		}
		probe, err := os.CreateTemp(dir, ".probe-*.tmp")
		if err != nil {
			return nil, fmt.Errorf("store: cache dir %s is not writable: %w", dir, err)
		}
		probe.Close()
		os.Remove(probe.Name())
	}
	return &Store{dir: dir}, nil
}

// Dir returns the cache directory ("" when persistence is off).
func (s *Store) Dir() string { return s.dir }

// Stats counts store traffic since the store opened or last reset.
type Stats struct {
	// WriteFailures counts writes that failed (persistence is an
	// optimization, but a failure is reported — once loudly on
	// stderr, then through this counter — not dropped on the floor).
	WriteFailures int64
	// ReadFailures counts files that exist but could not be read or
	// moved aside; each was treated as a miss.
	ReadFailures int64
	// Quarantined counts corrupt files renamed to *.corrupt.
	Quarantined int64
}

// Stats returns the counters.
func (s *Store) Stats() Stats {
	return Stats{
		WriteFailures: s.writeFailures.Load(),
		ReadFailures:  s.readFailures.Load(),
		Quarantined:   s.quarantines.Load(),
	}
}

// Reset zeroes the counters and re-arms the one-shot warnings.
func (s *Store) Reset() {
	s.writeFailures.Store(0)
	s.readFailures.Store(0)
	s.quarantines.Store(0)
	s.warnedWrite.Store(false)
	s.warnedCorrupt.Store(false)
	s.warnedReadFail.Store(false)
}

// Write seals v and publishes it at path with WriteAtomic. A failure is
// counted and reported as a `what` write failure, then returned so the
// caller can decide whether losing durability matters.
func (s *Store) Write(what, path string, version int, v any, f Faults) error {
	data, err := Seal(version, v)
	if err == nil {
		err = WriteAtomic(path, data, f)
	}
	if err != nil {
		s.WriteFailed(what, err)
	}
	return err
}

// Read reads path and hands its bytes to decode, which verifies them
// (typically with Unseal) and keeps what it decoded. A file decode
// rejects is quarantined; the error says why the file was not served.
func (s *Store) Read(path string, f Faults, decode func([]byte) error) (Status, error) {
	var data []byte
	err := check(f.Open)
	if err == nil {
		data, err = os.ReadFile(path)
	}
	if err != nil {
		if os.IsNotExist(err) {
			return Absent, nil
		}
		s.ReadFailed(path, err)
		return Unreadable, err
	}
	if err := decode(data); err != nil {
		return s.Quarantine(path, err), err
	}
	return Hit, nil
}

// Quarantine moves a corrupt file aside so it is never re-read (a later
// load sees the key absent and regenerates it) while its bytes stay
// available for diagnosis. Exactly-once follows from the rename: once
// moved, the file no longer exists to be quarantined again. It returns
// Corrupt when the file moved and Unreadable when it is still in place.
func (s *Store) Quarantine(path string, cause error) Status {
	if err := os.Rename(path, quarantinePath(path)); err != nil {
		s.ReadFailed(path, cause)
		return Unreadable
	}
	s.quarantined(path, cause)
	return Corrupt
}

// quarantined records a corrupt file moved aside.
func (s *Store) quarantined(path string, cause error) {
	s.quarantines.Add(1)
	s.warnOnce(&s.warnedCorrupt, "corrupt cache entry quarantined as %s (%v); it will be regenerated", quarantinePath(path), cause)
}

// WriteFailed records a failed write of a `what` ("run store",
// "checkpoint", ...): the computed value survives in memory, only
// persistence was lost. The first failure names its cause on stderr;
// repeats would only scroll.
func (s *Store) WriteFailed(what string, err error) {
	s.writeFailures.Add(1)
	s.warnOnce(&s.warnedWrite, "%s write failed (results still computed, just not persisted; further failures counted silently): %v", what, err)
}

// ReadFailed records a file that exists but could not be read or
// removed; the caller treats it as a miss.
func (s *Store) ReadFailed(path string, err error) {
	s.readFailures.Add(1)
	s.warnOnce(&s.warnedReadFail, "cache entry %s unreadable, treating as a miss: %v", path, err)
}

// warnOnce prints one stderr line the first time its flag is armed.
func (s *Store) warnOnce(warned *atomic.Bool, format string, args ...any) {
	if !warned.CompareAndSwap(false, true) {
		return
	}
	w := s.stderr
	if w == nil {
		w = os.Stderr
	}
	fmt.Fprintf(w, "cohmeleon: "+format+"\n", args...)
}
