package learn

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"math"
	"os"

	"cohmeleon/internal/soc"
	"cohmeleon/internal/store"
)

// Learner-state persistence. A deployment trains once and then ships
// the learned tables (or keeps refining them across reboots); these
// helpers serialize any tabular algorithm's state with integrity checks
// so state trained for one mode/state geometry — or one algorithm — is
// never loaded into another.
//
// Format history:
//
//	version 1 (PR 3): a single Q-table (the ε-greedy Q-learner's).
//	version 2 (PR 4): an algorithm name plus its named value tables
//	                  (double-q carries two), so any tabular learner
//	                  round-trips. Version-1 files still load, as the
//	                  "q" algorithm's single table.
//	version 3 (PR 8): table rows widen from the four coherence modes
//	                  to the sixteen fine-grain actions. Version-1 and
//	                  -2 files still load: the uniform mode actions are
//	                  a numeric prefix of the action space, so mode-era
//	                  rows fill the first four columns and the split
//	                  columns start untrained (zero, like any unvisited
//	                  cell).
type stateImage struct {
	Version int
	States  int
	Modes   int
	// Actions is the row width from version 3 on (versions 1 and 2
	// carried Modes-wide rows).
	Actions int
	// Version-1 payload: the single table.
	Q      [][]float64
	Visits [][]int64
	// Version-2 payload.
	Algo   string
	Tables []namedImage
}

// namedImage is one serialized value table.
type namedImage struct {
	Name   string
	Q      [][]float64
	Visits [][]int64
}

const (
	formatV1      = 1
	formatV2      = 2
	formatVersion = 3
)

// TabularState is the portable snapshot of a tabular algorithm: its
// registry name and deep copies of its value tables, primary first.
type TabularState struct {
	Algo   string
	Tables []NamedTable
}

// Snapshot captures an algorithm's current state.
func Snapshot(a Algorithm) *TabularState {
	st := &TabularState{Algo: a.Name()}
	for _, nt := range a.Tables() {
		st.Tables = append(st.Tables, NamedTable{Name: nt.Name, Table: nt.Table.Clone()})
	}
	return st
}

// TotalVisits sums the update counts across all of the state's tables.
func (st *TabularState) TotalVisits() int64 {
	var n int64
	for _, nt := range st.Tables {
		n += nt.Table.TotalVisits()
	}
	return n
}

// MergeStates combines snapshots of the same algorithm trained on
// different scenarios: each named table is merged visit-weighted
// across the inputs (MergeTables), so a double-q merge keeps its two
// tables separate. All inputs must share the algorithm name and table
// layout; nil entries are skipped. The result depends only on slice
// order, like MergeTables.
func MergeStates(states []*TabularState) (*TabularState, error) {
	var ref *TabularState
	for _, st := range states {
		if st != nil {
			ref = st
			break
		}
	}
	if ref == nil {
		return nil, fmt.Errorf("learn: merging no learner states")
	}
	out := &TabularState{Algo: ref.Algo}
	for ti, nt := range ref.Tables {
		per := make([]*QTable, 0, len(states))
		for _, st := range states {
			if st == nil {
				continue
			}
			if st.Algo != ref.Algo || len(st.Tables) != len(ref.Tables) || st.Tables[ti].Name != nt.Name {
				return nil, fmt.Errorf("learn: merging mismatched learner states (%s vs %s)", st.Algo, ref.Algo)
			}
			per = append(per, st.Tables[ti].Table)
		}
		out.Tables = append(out.Tables, NamedTable{Name: nt.Name, Table: MergeTables(per)})
	}
	return out, nil
}

// tableToImage serializes one table; untouched rows are written as
// zeros, so the image is the same whether or not a row was allocated.
func tableToImage(name string, t *QTable) namedImage {
	img := namedImage{
		Name:   name,
		Q:      make([][]float64, NumStates),
		Visits: make([][]int64, NumStates),
	}
	for s, r := range t.rows {
		if r == nil {
			img.Q[s] = make([]float64, soc.NumActions)
			img.Visits[s] = make([]int64, soc.NumActions)
			continue
		}
		img.Q[s] = append([]float64(nil), r.q[:]...)
		img.Visits[s] = append([]int64(nil), r.visits[:]...)
	}
	return img
}

// tableFromImage validates and deserializes one table whose rows are
// width cells wide (NumModes for version-1/2 files, NumActions from
// version 3); narrower-era rows fill the prefix of each row, leaving
// the split-action columns untrained. The declared geometry is only a
// claim the encoder made about itself: a truncated or corrupted file
// can declare the right States/Modes yet carry short (or missing)
// slices, so the actual slice lengths are validated before any
// indexing, and every cell is checked for values no training run can
// produce (NaN/Inf rewards, negative visit counts). A row is allocated
// only when one of its cells is bit-nonzero, so a stored −0.0 survives
// the round trip.
func tableFromImage(label string, q [][]float64, visits [][]int64, width int) (*QTable, error) {
	if len(q) != NumStates || len(visits) != NumStates {
		return nil, fmt.Errorf("learn: truncated %s: %d Q rows and %d visit rows, want %d",
			label, len(q), len(visits), NumStates)
	}
	t := NewQTable()
	for s := 0; s < NumStates; s++ {
		if len(q[s]) != width || len(visits[s]) != width {
			return nil, fmt.Errorf("learn: truncated %s row %d", label, s)
		}
		for m, v := range q[s] {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("learn: corrupt %s: Q[%d][%d] = %g", label, s, m, v)
			}
		}
		for m, v := range visits[s] {
			if v < 0 {
				return nil, fmt.Errorf("learn: corrupt %s: visits[%d][%d] = %d", label, s, m, v)
			}
		}
		if rowHoldsData(q[s], visits[s]) {
			r := t.touch(State(s))
			copy(r.q[:], q[s])
			copy(r.visits[:], visits[s])
		}
	}
	return t, nil
}

// rowHoldsData reports whether any cell of a stored row is bit-nonzero.
func rowHoldsData(q []float64, visits []int64) bool {
	for i := range q {
		if math.Float64bits(q[i]) != 0 || visits[i] != 0 {
			return true
		}
	}
	return false
}

// EncodeState serializes a learner snapshot in the current format.
func EncodeState(w io.Writer, st *TabularState) error {
	if st.Algo == "" || len(st.Tables) == 0 {
		return fmt.Errorf("learn: encoding empty learner state")
	}
	img := stateImage{
		Version: formatVersion,
		States:  NumStates,
		Modes:   int(soc.NumModes),
		Actions: int(soc.NumActions),
		Algo:    st.Algo,
	}
	for _, nt := range st.Tables {
		img.Tables = append(img.Tables, tableToImage(nt.Name, nt.Table))
	}
	if err := gob.NewEncoder(w).Encode(&img); err != nil {
		return fmt.Errorf("learn: encoding learner state: %w", err)
	}
	return nil
}

// DecodeState deserializes a learner snapshot written by EncodeState,
// or a version-1 Q-table file (returned as algorithm "q").
func DecodeState(r io.Reader) (*TabularState, error) {
	var img stateImage
	if err := gob.NewDecoder(r).Decode(&img); err != nil {
		return nil, fmt.Errorf("learn: decoding learner state: %w", err)
	}
	if img.Version != formatV1 && img.Version != formatV2 && img.Version != formatVersion {
		return nil, fmt.Errorf("learn: learner-state version %d, want %d (or legacy %d/%d)",
			img.Version, formatVersion, formatV1, formatV2)
	}
	if img.States != NumStates || img.Modes != int(soc.NumModes) {
		return nil, fmt.Errorf("learn: learner-state geometry %dx%d, want %dx%d",
			img.States, img.Modes, NumStates, soc.NumModes)
	}
	width := int(soc.NumModes) // mode-era rows fill the action prefix
	if img.Version == formatVersion {
		if img.Actions != int(soc.NumActions) {
			return nil, fmt.Errorf("learn: learner-state action width %d, want %d",
				img.Actions, soc.NumActions)
		}
		width = int(soc.NumActions)
	}
	if img.Version == formatV1 {
		t, err := tableFromImage("Q-table", img.Q, img.Visits, width)
		if err != nil {
			return nil, err
		}
		return &TabularState{Algo: DefaultAlgorithm, Tables: []NamedTable{{Name: "q", Table: t}}}, nil
	}
	if img.Algo == "" || len(img.Tables) == 0 {
		return nil, fmt.Errorf("learn: truncated learner state: no algorithm or tables")
	}
	st := &TabularState{Algo: img.Algo}
	for _, ti := range img.Tables {
		t, err := tableFromImage(fmt.Sprintf("table %q", ti.Name), ti.Q, ti.Visits, width)
		if err != nil {
			return nil, err
		}
		st.Tables = append(st.Tables, NamedTable{Name: ti.Name, Table: t})
	}
	return st, nil
}

// Restore builds a fresh algorithm from a snapshot: the named tables
// must match what the algorithm exposes (same count, same names).
func Restore(st *TabularState) (Algorithm, error) {
	a, err := NewAlgorithm(st.Algo)
	if err != nil {
		return nil, err
	}
	live := a.Tables()
	if len(live) != len(st.Tables) {
		return nil, fmt.Errorf("learn: %s state carries %d tables, algorithm has %d",
			st.Algo, len(st.Tables), len(live))
	}
	for i, nt := range st.Tables {
		if nt.Name != live[i].Name {
			return nil, fmt.Errorf("learn: %s state table %d named %q, want %q",
				st.Algo, i, nt.Name, live[i].Name)
		}
		*live[i].Table = *nt.Table
	}
	return a, nil
}

// SaveStateFile writes a learner snapshot to a file. The file is
// published whole through a temp file and a rename, so a failed save
// leaves any previous file at path as it was.
func SaveStateFile(path string, st *TabularState) error {
	var buf bytes.Buffer
	if err := EncodeState(&buf, st); err != nil {
		return err
	}
	return store.WriteAtomic(path, buf.Bytes(), store.Faults{})
}

// LoadStateFile reads a learner snapshot from a file (either format
// version).
func LoadStateFile(path string) (*TabularState, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return DecodeState(f)
}

// Encode serializes the table as the default algorithm's state (the
// single-table convenience used by the Q-table transfer workflow).
func (t *QTable) Encode(w io.Writer) error {
	return EncodeState(w, &TabularState{
		Algo:   DefaultAlgorithm,
		Tables: []NamedTable{{Name: "q", Table: t}},
	})
}

// DecodeTable deserializes a single Q-table written by Encode or by the
// version-1 format. Files holding another algorithm's state are
// rejected with an error naming it — use DecodeState for those.
func DecodeTable(r io.Reader) (*QTable, error) {
	st, err := DecodeState(r)
	if err != nil {
		return nil, err
	}
	if st.Algo != DefaultAlgorithm || len(st.Tables) != 1 {
		return nil, fmt.Errorf("learn: file holds %q learner state (%d tables), not a single Q-table",
			st.Algo, len(st.Tables))
	}
	return st.Tables[0].Table, nil
}

// LoadTableFile reads a table from a file.
func LoadTableFile(path string) (*QTable, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return DecodeTable(f)
}
