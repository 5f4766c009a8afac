package learn

import (
	"bytes"
	"encoding/gob"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cohmeleon/internal/sim"
	"cohmeleon/internal/soc"
)

func TestQTableRoundTrip(t *testing.T) {
	q := NewQTable()
	q.Update(0, aNonCoh, 0.7, 0.5)
	q.Update(242, aFullCoh, 0.3, 0.25)
	q.Update(100, aCohDMA, 1.0, 1.0)

	var buf bytes.Buffer
	if err := q.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeTable(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for s := State(0); s < NumStates; s++ {
		for _, m := range soc.UniformActions {
			if got.Q(s, m) != q.Q(s, m) {
				t.Fatalf("Q(%d,%v) = %g, want %g", s, m, got.Q(s, m), q.Q(s, m))
			}
			if got.Visits(s, m) != q.Visits(s, m) {
				t.Fatalf("Visits(%d,%v) mismatch", s, m)
			}
		}
	}
}

// TestStateExportRoundTripIsByteIdentical: exporting a trained table,
// importing it and exporting again yields the same bytes, both for a
// trained table and for an image holding a −0.0 cell with no visits
// (its row must be kept, bit for bit).
func TestStateExportRoundTripIsByteIdentical(t *testing.T) {
	encode := func(st *TabularState) []byte {
		t.Helper()
		var buf bytes.Buffer
		if err := EncodeState(&buf, st); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	roundTrip := func(first []byte) *TabularState {
		t.Helper()
		st, err := DecodeState(bytes.NewReader(first))
		if err != nil {
			t.Fatal(err)
		}
		if second := encode(st); !bytes.Equal(first, second) {
			t.Fatalf("re-export differs: %d bytes, then %d", len(first), len(second))
		}
		return st
	}

	a := NewEpsilonGreedyQ()
	rng := sim.NewRNG(11)
	for i := 0; i < 400; i++ {
		s := State(rng.Intn(NumStates))
		m := a.Decide(rng, s, soc.UniformActions[:], 0.5)
		a.Update(rng, s, m, rng.Float64(), 0.25)
	}
	roundTrip(encode(Snapshot(a)))

	img := validV3Image()
	img.Tables[0].Q[5][2] = math.Copysign(0, -1)
	st := roundTrip(encodeImage(t, img))
	if v := st.Tables[0].Table.Q(5, soc.Action(2)); !math.Signbit(v) {
		t.Fatalf("Q(5,2) = %g, want -0", v)
	}
}

func TestQTableFileRoundTrip(t *testing.T) {
	q := NewQTable()
	q.Update(7, aLLCCoh, 0.9, 0.25)
	path := filepath.Join(t.TempDir(), "model.qtable")
	st := &TabularState{Algo: DefaultAlgorithm, Tables: []NamedTable{{Name: "q", Table: q}}}
	if err := SaveStateFile(path, st); err != nil {
		t.Fatal(err)
	}
	got, err := LoadTableFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Q(7, aLLCCoh) != q.Q(7, aLLCCoh) {
		t.Fatal("file round-trip lost data")
	}
}

// TestFailedSaveKeepsPreviousFile: a save that fails must leave the
// file an earlier save published byte-identical, not truncated.
func TestFailedSaveKeepsPreviousFile(t *testing.T) {
	q := NewQTable()
	q.Update(7, aLLCCoh, 0.9, 0.25)
	path := filepath.Join(t.TempDir(), "model.qtable")
	st := &TabularState{Algo: DefaultAlgorithm, Tables: []NamedTable{{Name: "q", Table: q}}}
	if err := SaveStateFile(path, st); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := SaveStateFile(path, &TabularState{}); err == nil {
		t.Fatal("saving an empty learner state succeeded")
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatalf("failed save changed the file: %d bytes before, %d after", len(before), len(after))
	}
	if left, _ := filepath.Glob(filepath.Join(filepath.Dir(path), ".*.tmp")); len(left) != 0 {
		t.Fatalf("failed save leaked temp files: %v", left)
	}
}

// TestLoadVersion1File: testdata/qtable_v1.gob was written by the PR-3
// codec (format version 1) with a deterministic fill; the versioned
// decoder must keep reading it byte-for-byte (-qtable-load compat).
func TestLoadVersion1File(t *testing.T) {
	got, err := LoadTableFile(filepath.Join("testdata", "qtable_v1.gob"))
	if err != nil {
		t.Fatalf("loading v1 file: %v", err)
	}
	// Reconstruct the generator's pattern.
	want := NewQTable()
	for s := 0; s < NumStates; s++ {
		for m := 0; m < int(soc.NumModes); m++ {
			if (s+m)%7 == 0 {
				want.Update(State(s), soc.Action(m), float64(s%13)/13, 0.5)
			}
		}
	}
	for s := State(0); s < NumStates; s++ {
		for _, m := range soc.UniformActions {
			if got.Q(s, m) != want.Q(s, m) || got.Visits(s, m) != want.Visits(s, m) {
				t.Fatalf("v1 cell (%d,%v) = (%g,%d), want (%g,%d)", s, m,
					got.Q(s, m), got.Visits(s, m), want.Q(s, m), want.Visits(s, m))
			}
		}
	}
	// The general decoder reads it as the default algorithm's state.
	st, err := LoadStateFile(filepath.Join("testdata", "qtable_v1.gob"))
	if err != nil {
		t.Fatal(err)
	}
	if st.Algo != DefaultAlgorithm || len(st.Tables) != 1 {
		t.Fatalf("v1 state = %q with %d tables", st.Algo, len(st.Tables))
	}
}

func TestStateRoundTripEveryAlgorithm(t *testing.T) {
	for _, name := range AlgorithmNames() {
		a, err := NewAlgorithm(name)
		if err != nil {
			t.Fatal(err)
		}
		rng := sim.NewRNG(4)
		for i := 0; i < 60; i++ {
			m := a.Decide(rng, State(i%9), allModes, 0.5)
			a.Update(rng, State(i%9), m, float64(i%5)/5, 0.5)
		}
		path := filepath.Join(t.TempDir(), name+".learner")
		if err := SaveStateFile(path, Snapshot(a)); err != nil {
			t.Fatalf("%s: save: %v", name, err)
		}
		st, err := LoadStateFile(path)
		if err != nil {
			t.Fatalf("%s: load: %v", name, err)
		}
		b, err := Restore(st)
		if err != nil {
			t.Fatalf("%s: restore: %v", name, err)
		}
		for s := State(0); s < 9; s++ {
			if a.Exploit(s, allModes) != b.Exploit(s, allModes) {
				t.Fatalf("%s: persisted algorithm exploits differently at %d", name, s)
			}
		}
	}
}

func TestMergeStatesKeepsTablesSeparate(t *testing.T) {
	mk := func(seed uint64) *TabularState {
		d := NewDoubleQ()
		rng := sim.NewRNG(seed)
		for i := 0; i < 40; i++ {
			m := d.Decide(rng, State(i%3), allModes, 0.5)
			d.Update(rng, State(i%3), m, float64(i%9)/9, 0.5)
		}
		return Snapshot(d)
	}
	a, b := mk(1), mk(2)
	merged, err := MergeStates([]*TabularState{a, nil, b})
	if err != nil {
		t.Fatal(err)
	}
	if merged.Algo != "double-q" || len(merged.Tables) != 2 {
		t.Fatalf("merged state = %q with %d tables", merged.Algo, len(merged.Tables))
	}
	for ti := range merged.Tables {
		want := MergeTables([]*QTable{a.Tables[ti].Table, b.Tables[ti].Table})
		for s := State(0); s < 3; s++ {
			for _, m := range allModes {
				if merged.Tables[ti].Table.Q(s, m) != want.Q(s, m) {
					t.Fatalf("table %d cell (%d,%v) not a per-table merge", ti, s, m)
				}
			}
		}
	}
	if merged.TotalVisits() != a.TotalVisits()+b.TotalVisits() {
		t.Fatalf("merged visits %d, want %d", merged.TotalVisits(), a.TotalVisits()+b.TotalVisits())
	}
	// A restored merge must be usable as an algorithm again.
	if _, err := Restore(merged); err != nil {
		t.Fatalf("restoring merged state: %v", err)
	}
}

func TestMergeStatesRejectsMismatches(t *testing.T) {
	if _, err := MergeStates(nil); err == nil {
		t.Fatal("empty merge accepted")
	}
	q := Snapshot(NewEpsilonGreedyQ())
	d := Snapshot(NewDoubleQ())
	if _, err := MergeStates([]*TabularState{q, d}); err == nil {
		t.Fatal("cross-algorithm merge accepted")
	}
}

func TestDecodeTableRejectsOtherAlgorithmState(t *testing.T) {
	d := NewDoubleQ()
	rng := sim.NewRNG(2)
	d.Update(rng, 0, aNonCoh, 1, 0.5)
	var buf bytes.Buffer
	if err := EncodeState(&buf, Snapshot(d)); err != nil {
		t.Fatal(err)
	}
	_, err := DecodeTable(&buf)
	if err == nil {
		t.Fatal("double-q state decoded as a single Q-table")
	}
	if !strings.Contains(err.Error(), "double-q") {
		t.Fatalf("error %q does not name the algorithm", err)
	}
}

func TestRestoreRejectsMismatchedTables(t *testing.T) {
	if _, err := Restore(&TabularState{Algo: "nope"}); err == nil {
		t.Fatal("unknown algorithm restored")
	}
	if _, err := Restore(&TabularState{Algo: "double-q",
		Tables: []NamedTable{{Name: "a", Table: NewQTable()}}}); err == nil {
		t.Fatal("double-q restored from one table")
	}
	if _, err := Restore(&TabularState{Algo: "q",
		Tables: []NamedTable{{Name: "wrong", Table: NewQTable()}}}); err == nil {
		t.Fatal("misnamed table restored")
	}
}

func TestDecodeTableRejectsGarbage(t *testing.T) {
	if _, err := DecodeTable(bytes.NewReader([]byte("not a table"))); err == nil {
		t.Fatal("garbage should fail to decode")
	}
}

func TestLoadTableFileMissing(t *testing.T) {
	if _, err := LoadTableFile(filepath.Join(t.TempDir(), "absent")); err == nil {
		t.Fatal("missing file should error")
	}
}

// encodeImage gob-encodes a raw stateImage, bypassing EncodeState's
// invariants, to forge corrupt and truncated files.
func encodeImage(t *testing.T, img stateImage) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&img); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// validV1Image returns a well-formed version-1 image to corrupt per
// test case (the PR-3 on-disk layout).
func validV1Image() stateImage {
	img := stateImage{
		Version: formatV1,
		States:  NumStates,
		Modes:   int(soc.NumModes),
		Q:       make([][]float64, NumStates),
		Visits:  make([][]int64, NumStates),
	}
	for s := range img.Q {
		img.Q[s] = make([]float64, soc.NumModes)
		img.Visits[s] = make([]int64, soc.NumModes)
	}
	return img
}

// validV2Image returns a well-formed version-2 image (the PR-4 layout:
// named mode-width tables, no Actions field).
func validV2Image() stateImage {
	v1 := validV1Image()
	return stateImage{
		Version: formatV2,
		States:  NumStates,
		Modes:   int(soc.NumModes),
		Algo:    "q",
		Tables:  []namedImage{{Name: "q", Q: v1.Q, Visits: v1.Visits}},
	}
}

// validV3Image returns a well-formed current-format image: named tables
// with action-width rows.
func validV3Image() stateImage {
	img := stateImage{
		Version: formatVersion,
		States:  NumStates,
		Modes:   int(soc.NumModes),
		Actions: int(soc.NumActions),
		Algo:    "q",
		Tables:  []namedImage{{Name: "q", Q: make([][]float64, NumStates), Visits: make([][]int64, NumStates)}},
	}
	for s := 0; s < NumStates; s++ {
		img.Tables[0].Q[s] = make([]float64, soc.NumActions)
		img.Tables[0].Visits[s] = make([]int64, soc.NumActions)
	}
	return img
}

// corruptImageMatrix is the PR-3 corrupt-file regression matrix,
// extended to the versioned format: files that declare a valid
// geometry but carry short or poisoned payloads must return errors,
// never panic or load silently. The fuzz test seeds from it.
var corruptImageMatrix = []struct {
	name string
	img  func() stateImage
	want string
}{
	// Pre-PR-3 panic: States claims NumStates but Q has fewer rows.
	{"v1-short-Q-rows", func() stateImage { i := validV1Image(); i.Q = i.Q[:3]; return i }, "truncated"},
	{"v1-short-visit-rows", func() stateImage { i := validV1Image(); i.Visits = i.Visits[:1]; return i }, "truncated"},
	{"v1-nil-Q", func() stateImage { i := validV1Image(); i.Q = nil; return i }, "truncated"},
	{"v1-short-row", func() stateImage { i := validV1Image(); i.Q[10] = i.Q[10][:2]; return i }, "truncated"},
	{"v1-nan-cell", func() stateImage { i := validV1Image(); i.Q[5][1] = math.NaN(); return i }, "corrupt"},
	{"v1-inf-cell", func() stateImage { i := validV1Image(); i.Q[0][0] = math.Inf(1); return i }, "corrupt"},
	{"v1-negative-visits", func() stateImage { i := validV1Image(); i.Visits[2][3] = -7; return i }, "corrupt"},
	{"wrong-version", func() stateImage { i := validV1Image(); i.Version = 99; return i }, "version"},
	{"wrong-geometry", func() stateImage { i := validV1Image(); i.States = 7; return i }, "geometry"},
	{"v2-no-algo", func() stateImage { i := validV2Image(); i.Algo = ""; return i }, "truncated"},
	{"v2-no-tables", func() stateImage { i := validV2Image(); i.Tables = nil; return i }, "truncated"},
	{"v2-short-table-rows", func() stateImage { i := validV2Image(); i.Tables[0].Q = i.Tables[0].Q[:5]; return i }, "truncated"},
	{"v2-short-table-row", func() stateImage { i := validV2Image(); i.Tables[0].Visits[9] = i.Tables[0].Visits[9][:1]; return i }, "truncated"},
	{"v2-nan-cell", func() stateImage { i := validV2Image(); i.Tables[0].Q[1][2] = math.NaN(); return i }, "corrupt"},
	{"v2-negative-visits", func() stateImage { i := validV2Image(); i.Tables[0].Visits[0][0] = -1; return i }, "corrupt"},
	// Version 3 declares action-width rows; lying about the width — or
	// shipping mode-width rows under a v3 header — must be caught.
	{"v3-wrong-action-width", func() stateImage { i := validV3Image(); i.Actions = 4; return i }, "action width"},
	{"v3-mode-width-rows", func() stateImage {
		i := validV3Image()
		i.Tables[0].Q[0] = i.Tables[0].Q[0][:soc.NumModes]
		return i
	}, "truncated"},
	{"v3-nan-split-cell", func() stateImage {
		i := validV3Image()
		i.Tables[0].Q[2][int(soc.NumModes)+1] = math.NaN()
		return i
	}, "corrupt"},
}

func TestDecodeStateCorruptMatrix(t *testing.T) {
	for _, tc := range corruptImageMatrix {
		t.Run(tc.name, func(t *testing.T) {
			_, err := DecodeState(bytes.NewReader(encodeImage(t, tc.img())))
			if err == nil {
				t.Fatal("corrupt image decoded without error")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestDecodeStateTruncatedStream: a file cut off mid-write must error,
// not panic.
func TestDecodeStateTruncatedStream(t *testing.T) {
	q := NewQTable()
	q.Update(1, aCohDMA, 0.5, 0.5)
	var buf bytes.Buffer
	if err := q.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	for _, frac := range []int{2, 4, 10} {
		cut := buf.Len() / frac
		if _, err := DecodeState(bytes.NewReader(buf.Bytes()[:cut])); err == nil {
			t.Fatalf("stream cut to %d/%d bytes decoded without error", cut, buf.Len())
		}
	}
}

// FuzzDecodeState hammers the decoder with arbitrary bytes: whatever
// the input, it must return (state, nil) or (nil, error) — never panic,
// never hand back unvalidated tables. Seeds are a valid v1 file, a
// valid v2 file, and the whole corrupt-file regression matrix.
func FuzzDecodeState(f *testing.F) {
	q := NewQTable()
	q.Update(3, aCohDMA, 0.5, 0.5)
	var v2 bytes.Buffer
	if err := q.Encode(&v2); err != nil {
		f.Fatal(err)
	}
	f.Add(v2.Bytes())
	var enc = func(img stateImage) []byte {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(&img); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	f.Add(enc(validV1Image()))
	for _, tc := range corruptImageMatrix {
		f.Add(enc(tc.img()))
	}
	f.Add([]byte("not a table"))

	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := DecodeState(bytes.NewReader(data))
		if err != nil {
			return
		}
		if st.Algo == "" || len(st.Tables) == 0 {
			t.Fatalf("decoder returned empty state without error")
		}
		for _, nt := range st.Tables {
			for s := State(0); s < NumStates; s++ {
				for _, m := range soc.UniformActions {
					if v := nt.Table.Q(s, m); math.IsNaN(v) || math.IsInf(v, 0) {
						t.Fatalf("decoder passed through poisoned Q[%d][%v]=%g", s, m, v)
					}
					if nt.Table.Visits(s, m) < 0 {
						t.Fatalf("decoder passed through negative visits")
					}
				}
			}
		}
	})
}
