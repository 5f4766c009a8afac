package learn

import (
	"fmt"

	"cohmeleon/internal/soc"
)

// QTable holds the expected reward of taking each action from each
// state: 243 states × 16 actions (the paper's four coherence modes —
// a prefix, so mode-only training indexes exactly the 243 × 4 cells it
// always did — plus the twelve fine-grain split pairs), initialized to
// zero (paper §4.2). It is the value store shared by every tabular
// algorithm in this package; UCB1 reuses the visit counters as its
// play counts.
//
// A state's row is allocated on its first update: a short run touches
// a handful of the 243 states, and an untouched row reads as zero, so
// a fresh table costs one array of row pointers, not the full grid.
type QTable struct {
	rows [NumStates]*row
}

// row is one state's values and visit counts.
type row struct {
	q      [soc.NumActions]float64
	visits [soc.NumActions]int64
}

// NewQTable returns a zeroed table.
func NewQTable() *QTable { return &QTable{} }

// Q returns the value of (state, action).
func (t *QTable) Q(s State, a soc.Action) float64 {
	if r := t.rows[s]; r != nil {
		return r.q[a]
	}
	return 0
}

// Visits returns how many updates (state, action) has received.
func (t *QTable) Visits(s State, a soc.Action) int64 {
	if r := t.rows[s]; r != nil {
		return r.visits[a]
	}
	return 0
}

// touch returns state s's row, allocating it on first use.
func (t *QTable) touch(s State) *row {
	r := t.rows[s]
	if r == nil {
		r = new(row)
		t.rows[s] = r
	}
	return r
}

// Update applies the paper's learning rule:
// Q(s,a) ← (1−α)·Q(s,a) + α·R.
func (t *QTable) Update(s State, a soc.Action, reward, alpha float64) {
	if alpha < 0 || alpha > 1 {
		panic(fmt.Sprintf("learn: learning rate %g outside [0,1]", alpha))
	}
	r := t.touch(s)
	r.q[a] = (1-alpha)*r.q[a] + alpha*reward
	r.visits[a]++
}

// UpdateMean applies the incremental running-mean rule used by the
// count-based algorithms: Q(s,a) ← Q(s,a) + (R − Q(s,a))/n.
func (t *QTable) UpdateMean(s State, a soc.Action, reward float64) {
	r := t.touch(s)
	r.visits[a]++
	r.q[a] += (reward - r.q[a]) / float64(r.visits[a])
}

// Best returns the available action with the highest Q-value from s;
// ties resolve in offer order, so an untrained table prefers less
// hardware coherence (non-coherent DMA first).
func (t *QTable) Best(s State, available []soc.Action) soc.Action {
	if len(available) == 0 {
		panic("learn: Best with no available actions")
	}
	best := available[0]
	r := t.rows[s]
	if r == nil {
		return best // every value is zero: the first offer wins the tie
	}
	for _, a := range available[1:] {
		if r.q[a] > r.q[best] {
			best = a
		}
	}
	return best
}

// Clone deep-copies the table (for checkpointing across training
// iterations in the Figure-8 experiment). Only rows that hold data are
// copied; a row the original first touches later stays zero here.
func (t *QTable) Clone() *QTable {
	c := NewQTable()
	for s, r := range t.rows {
		if r != nil {
			cp := *r
			c.rows[s] = &cp
		}
	}
	return c
}

// MergeTables combines tables trained on different scenarios into one:
// each (state, action) cell becomes the visit-weighted mean of the input
// cells, with the visit counts summed. Cells no input ever visited stay
// at zero, and a merged row is allocated only when some input visited
// one of its cells. The result depends only on the slice order, so a
// merge over per-scenario tables collected by index is identical for
// any worker count. Merging nil or no tables yields a zeroed table.
func MergeTables(tables []*QTable) *QTable {
	m := NewQTable()
	for s := 0; s < NumStates; s++ {
		for mo := 0; mo < int(soc.NumActions); mo++ {
			// An untouched row would add 0·0 to each sum, so skipping
			// it leaves the sums exact.
			var weighted float64
			var visits int64
			for _, t := range tables {
				if t == nil || t.rows[s] == nil {
					continue
				}
				r := t.rows[s]
				weighted += r.q[mo] * float64(r.visits[mo])
				visits += r.visits[mo]
			}
			if visits > 0 {
				r := m.touch(State(s))
				r.q[mo] = weighted / float64(visits)
				r.visits[mo] = visits
			}
		}
	}
	return m
}

// TotalVisits returns the number of updates across all entries.
func (t *QTable) TotalVisits() int64 {
	var n int64
	for _, r := range t.rows {
		if r == nil {
			continue
		}
		for _, v := range r.visits {
			n += v
		}
	}
	return n
}
