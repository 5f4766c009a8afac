// Package core implements Cohmeleon's reinforcement-learning agent as
// a thin composition over the pluggable engine in internal/learn: a
// Featurizer (the Table-3 state encoding by default), an Algorithm (the
// 243×4 tabular Q-learner by default), and a Schedule (linear ε/α decay
// by default), fed by the multi-objective reward built from the
// hardware monitors. It plugs into the ESP software stack as an
// esp.Policy, selecting a mode at each accelerator invocation and
// updating its value tables when the invocation's evaluation arrives.
//
// The moved building blocks — state encoding, Q-table, persistence —
// live in internal/learn; the aliases below keep this package's
// historical surface intact for callers and saved artifacts.
package core

import "cohmeleon/internal/learn"

// State encoding (Table 3), now learn.Encoder.
type (
	// Attribute identifies one of the five state attributes of Table 3.
	Attribute = learn.Attribute
	// State is an encoded Table-3 state in [0, NumStates).
	State = learn.State
)

// Table-3 attributes, re-exported from learn.
const (
	AttrAccFootprint = learn.AttrAccFootprint
	NumAttributes    = learn.NumAttributes
)

// NumStates is the size of the state space: 3^5 = 243 (paper §4.2).
const NumStates = learn.NumStates

// Encoder constructors, re-exported from learn.
var (
	NewEncoder        = learn.NewEncoder
	NewAblatedEncoder = learn.NewAblatedEncoder
)

// QTable is the 243×4 value table, now learn.QTable.
type QTable = learn.QTable

// Q-table constructors and persistence, re-exported from learn. The
// versioned codec reads both the current format and PR-3-era files.
var (
	NewQTable     = learn.NewQTable
	MergeTables   = learn.MergeTables
	LoadTableFile = learn.LoadTableFile
)
