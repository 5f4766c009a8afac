package learn

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"cohmeleon/internal/esp"
	"cohmeleon/internal/sim"
	"cohmeleon/internal/soc"
)

// ctxWith builds a minimal context with the given sensed values.
func ctxWith(fullyCoh int, nonCoh, toLLC, tileFoot float64, accFoot int64) *esp.Context {
	return &esp.Context{
		Acc:                &soc.AccTile{ID: 0},
		Available:          soc.AllModes[:],
		FullyCohActive:     fullyCoh,
		NonCohPerTile:      nonCoh,
		ToLLCPerTile:       toLLC,
		TileFootprintBytes: tileFoot,
		FootprintBytes:     accFoot,
		L2Bytes:            32 << 10,
		LLCSliceBytes:      256 << 10,
		TotalLLCBytes:      1 << 20,
	}
}

// The algorithm layer decides over the fine-grain action space; the
// uniform mode actions are its numeric prefix, and these tests exercise
// it through that prefix (exactly the arms the mode-era tests used).
var allModes = soc.UniformActions[:]

const (
	aNonCoh  = soc.Action(soc.NonCohDMA)
	aLLCCoh  = soc.Action(soc.LLCCohDMA)
	aCohDMA  = soc.Action(soc.CohDMA)
	aFullCoh = soc.Action(soc.FullyCoh)
)

func TestStateSpaceSize(t *testing.T) {
	if NumStates != 243 {
		t.Fatalf("NumStates = %d, want 243 (3^5)", NumStates)
	}
	if e := NewEncoder(); e.NumStates() != NumStates {
		t.Fatalf("encoder NumStates = %d", e.NumStates())
	}
}

func TestEncodeExtremes(t *testing.T) {
	e := NewEncoder()
	if s := e.Encode(ctxWith(0, 0, 0, 0, 1)); s != 0 {
		t.Fatalf("all-zero state = %d, want 0", s)
	}
	s := e.Encode(ctxWith(5, 5, 5, 10<<20, 10<<20))
	if s != NumStates-1 {
		t.Fatalf("all-max state = %d, want %d", s, NumStates-1)
	}
	if e.Featurize(ctxWith(5, 5, 5, 10<<20, 10<<20)) != s {
		t.Fatal("Featurize disagrees with Encode")
	}
}

func TestEncodeBuckets(t *testing.T) {
	e := NewEncoder()
	// Footprint buckets at the L2 and LLC-slice thresholds.
	cases := []struct {
		bytes int64
		want  int
	}{
		{16 << 10, 0},  // ≤ L2
		{32 << 10, 0},  // == L2
		{33 << 10, 1},  // ≤ slice
		{256 << 10, 1}, // == slice
		{257 << 10, 2}, // > slice
		{4 << 20, 2},
	}
	for _, c := range cases {
		v := e.Values(ctxWith(0, 0, 0, 0, c.bytes))
		if v[AttrAccFootprint] != c.want {
			t.Errorf("footprint %d bucketed to %d, want %d", c.bytes, v[AttrAccFootprint], c.want)
		}
	}
	// Count buckets round and saturate.
	v := e.Values(ctxWith(0, 0.4, 1.5, 0, 1))
	if v[AttrNonCohPerTile] != 0 || v[AttrToLLCPerTile] != 2 {
		t.Errorf("count buckets: %v", v)
	}
	v = e.Values(ctxWith(7, 0, 0, 0, 1))
	if v[AttrFullyCohAcc] != 2 {
		t.Errorf("fully-coh bucket = %d, want 2 (saturated)", v[AttrFullyCohAcc])
	}
}

func TestEncodeDecodeRoundTripProperty(t *testing.T) {
	f := func(raw uint32) bool {
		s := State(raw % NumStates)
		v := Decode(s)
		idx := 0
		for a := Attribute(0); a < NumAttributes; a++ {
			if v[a] < 0 || v[a] >= 3 {
				return false
			}
			idx = idx*3 + v[a]
		}
		return State(idx) == s
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAblatedEncoderPinsAttribute(t *testing.T) {
	e := NewAblatedEncoder(AttrFullyCohAcc)
	a := e.Encode(ctxWith(0, 1, 1, 0, 1))
	b := e.Encode(ctxWith(2, 1, 1, 0, 1))
	if a != b {
		t.Fatal("ablated attribute still distinguishes states")
	}
	full := NewEncoder()
	if full.Encode(ctxWith(0, 1, 1, 0, 1)) == full.Encode(ctxWith(2, 1, 1, 0, 1)) {
		t.Fatal("full encoder should distinguish")
	}
	if e.Name() != "table3-drop-fully-coh-acc" {
		t.Fatalf("ablated encoder name = %q", e.Name())
	}
	if full.Name() != "table3" {
		t.Fatalf("full encoder name = %q", full.Name())
	}
}

func TestAttributeNames(t *testing.T) {
	want := []string{"fully-coh-acc", "non-coh-acc-per-tile", "to-llc-per-tile", "tile-footprint", "acc-footprint"}
	for a := Attribute(0); a < NumAttributes; a++ {
		if a.String() != want[a] {
			t.Errorf("attr %d = %q", a, a.String())
		}
	}
}

func TestQTableUpdateRule(t *testing.T) {
	q := NewQTable()
	q.Update(5, aCohDMA, 1.0, 0.25)
	if got := q.Q(5, aCohDMA); got != 0.25 {
		t.Fatalf("Q = %g, want 0.25 ((1-α)·0 + α·1)", got)
	}
	q.Update(5, aCohDMA, 1.0, 0.25)
	if got := q.Q(5, aCohDMA); math.Abs(got-0.4375) > 1e-12 {
		t.Fatalf("Q = %g, want 0.4375", got)
	}
	if q.Visits(5, aCohDMA) != 2 {
		t.Fatalf("visits = %d", q.Visits(5, aCohDMA))
	}
	if q.TotalVisits() != 2 {
		t.Fatalf("total visits = %d", q.TotalVisits())
	}
}

func TestQTableUpdateMeanIsRunningMean(t *testing.T) {
	q := NewQTable()
	for i, r := range []float64{1, 0, 0.5, 0.5} {
		q.UpdateMean(2, aLLCCoh, r)
		if got := q.Visits(2, aLLCCoh); got != int64(i+1) {
			t.Fatalf("visits = %d after %d updates", got, i+1)
		}
	}
	if got := q.Q(2, aLLCCoh); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("mean = %g, want 0.5", got)
	}
}

func TestQTableBestRespectsAvailability(t *testing.T) {
	q := NewQTable()
	q.Update(0, aFullCoh, 1, 1)
	if got := q.Best(0, allModes); got != aFullCoh {
		t.Fatalf("Best = %v", got)
	}
	noFC := []soc.Action{aNonCoh, aLLCCoh, aCohDMA}
	if got := q.Best(0, noFC); got == aFullCoh {
		t.Fatal("Best returned unavailable mode")
	}
}

func TestQTableBestTieBreaksInModeOrder(t *testing.T) {
	q := NewQTable()
	if got := q.Best(7, allModes); got != aNonCoh {
		t.Fatalf("untrained Best = %v, want NonCohDMA (first)", got)
	}
}

func TestQTableClone(t *testing.T) {
	q := NewQTable()
	q.Update(1, aCohDMA, 1, 0.5)
	c := q.Clone()
	q.Update(1, aCohDMA, 0, 1)
	if c.Q(1, aCohDMA) != 0.5 {
		t.Fatal("clone aliases original")
	}
	// A row the original first touches after the clone stays zero in
	// the clone.
	q.Update(9, aLLCCoh, 1, 1)
	if c.Q(9, aLLCCoh) != 0 || c.Visits(9, aLLCCoh) != 0 || c.TotalVisits() != 1 {
		t.Fatalf("clone sees a row touched after cloning: Q %g, visits %d, total %d",
			c.Q(9, aLLCCoh), c.Visits(9, aLLCCoh), c.TotalVisits())
	}
}

// Property: Q-values stay within [min(0,R..), max(0,R..)] for rewards in
// [0,1] — the exponential moving average never escapes the reward range.
func TestQValueBoundedProperty(t *testing.T) {
	f := func(rewards []uint8) bool {
		q := NewQTable()
		for _, r := range rewards {
			q.Update(3, aLLCCoh, float64(r%101)/100, 0.25)
			v := q.Q(3, aLLCCoh)
			if v < 0 || v > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMergeTables(t *testing.T) {
	a, b := NewQTable(), NewQTable()
	a.Update(0, aNonCoh, 1.0, 1.0) // Q=1, visits=1
	b.Update(0, aNonCoh, 0.0, 1.0) // Q=0, visits=1
	b.Update(0, aNonCoh, 0.0, 1.0) // Q=0, visits=2
	b.Update(5, aFullCoh, 0.5, 1.0)

	m := MergeTables([]*QTable{a, b, nil})
	if got := m.Q(0, aNonCoh); got != 1.0/3 {
		t.Fatalf("merged Q = %g, want 1/3 (visit-weighted)", got)
	}
	if got := m.Visits(0, aNonCoh); got != 3 {
		t.Fatalf("merged visits = %d, want 3", got)
	}
	if got := m.Q(5, aFullCoh); got != 0.5 {
		t.Fatalf("single-source cell = %g, want 0.5", got)
	}
	if m.Q(100, aCohDMA) != 0 || m.Visits(100, aCohDMA) != 0 {
		t.Fatal("unvisited cell should stay zero")
	}
	empty := MergeTables(nil)
	if empty.TotalVisits() != 0 {
		t.Fatal("empty merge should be a zeroed table")
	}

	// Tables that touched different rows merge into the union of their
	// rows, each cell carried over unchanged; rows neither touched stay
	// zero.
	a, b = NewQTable(), NewQTable()
	a.Update(3, aCohDMA, 0.75, 0.5)
	a.UpdateMean(3, aFullCoh, 0.2)
	b.Update(200, aNonCoh, 0.4, 0.25)
	b.Update(200, aNonCoh, 0.9, 0.25)
	m = MergeTables([]*QTable{a, b})
	for _, c := range []struct {
		src *QTable
		s   State
		a   soc.Action
	}{{a, 3, aCohDMA}, {a, 3, aFullCoh}, {b, 200, aNonCoh}} {
		if m.Q(c.s, c.a) != c.src.Q(c.s, c.a) || m.Visits(c.s, c.a) != c.src.Visits(c.s, c.a) {
			t.Fatalf("cell (%d,%v): merged (%g, %d), want (%g, %d)", c.s, c.a,
				m.Q(c.s, c.a), m.Visits(c.s, c.a), c.src.Q(c.s, c.a), c.src.Visits(c.s, c.a))
		}
	}
	if m.TotalVisits() != a.TotalVisits()+b.TotalVisits() {
		t.Fatalf("merged visits %d, want %d", m.TotalVisits(), a.TotalVisits()+b.TotalVisits())
	}
	if m.Q(3, aNonCoh) != 0 || m.Q(200, aCohDMA) != 0 || m.Visits(100, aNonCoh) != 0 {
		t.Fatal("cells no input visited should stay zero")
	}
}

func TestRegistriesRejectUnknownNamesListingValid(t *testing.T) {
	if _, err := NewAlgorithm("sarsa"); err == nil {
		t.Fatal("unknown algorithm accepted")
	} else {
		for _, name := range AlgorithmNames() {
			if !strings.Contains(err.Error(), name) {
				t.Fatalf("algorithm error %q does not list %q", err, name)
			}
		}
	}
	if _, err := NewSchedule("cosine", ScheduleParams{Epsilon0: 0.5, Alpha0: 0.25, DecayIterations: 10}); err == nil {
		t.Fatal("unknown schedule accepted")
	} else {
		for _, name := range ScheduleNames() {
			if !strings.Contains(err.Error(), name) {
				t.Fatalf("schedule error %q does not list %q", err, name)
			}
		}
	}
	// Empty names resolve to the defaults.
	a, err := NewAlgorithm("")
	if err != nil || a.Name() != DefaultAlgorithm {
		t.Fatalf("empty algorithm name: %v, %v", a, err)
	}
	s, err := NewSchedule("", ScheduleParams{Epsilon0: 0.5, Alpha0: 0.25, DecayIterations: 10})
	if err != nil || s.Name() != DefaultSchedule {
		t.Fatalf("empty schedule name: %v, %v", s, err)
	}
}

func TestEveryAlgorithmRespectsAvailabilityAndDeterminism(t *testing.T) {
	avail := []soc.Action{aNonCoh, aCohDMA}
	for _, name := range AlgorithmNames() {
		run := func(seed uint64) []soc.Action {
			a, err := NewAlgorithm(name)
			if err != nil {
				t.Fatal(err)
			}
			rng := sim.NewRNG(seed)
			var out []soc.Action
			for i := 0; i < 100; i++ {
				m := a.Decide(rng, State(i%NumStates), avail, 0.8)
				out = append(out, m)
				if m != aNonCoh && m != aCohDMA {
					t.Fatalf("%s chose unavailable mode %v", name, m)
				}
				a.Update(rng, State(i%NumStates), m, float64(i%11)/11, 0.25)
				if e := a.Exploit(State(i%NumStates), avail); e != aNonCoh && e != aCohDMA {
					t.Fatalf("%s exploited unavailable mode %v", name, e)
				}
			}
			return out
		}
		a, b := run(5), run(5)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: same seed diverged at %d", name, i)
			}
		}
	}
}

func TestDoubleQSplitsUpdatesAcrossTables(t *testing.T) {
	d := NewDoubleQ()
	rng := sim.NewRNG(3)
	for i := 0; i < 200; i++ {
		d.Update(rng, 7, aCohDMA, 1, 0.5)
	}
	tabs := d.Tables()
	va, vb := tabs[0].Table.Visits(7, aCohDMA), tabs[1].Table.Visits(7, aCohDMA)
	if va+vb != 200 {
		t.Fatalf("updates lost: %d + %d != 200", va, vb)
	}
	if va == 0 || vb == 0 {
		t.Fatalf("coin flip never hit one table: %d / %d", va, vb)
	}
	// Exploit maximizes the summed tables.
	d2 := NewDoubleQ()
	d2.Tables()[0].Table.Update(1, aLLCCoh, 0.6, 1)
	d2.Tables()[1].Table.Update(1, aFullCoh, 0.4, 1)
	if got := d2.Exploit(1, allModes); got != aLLCCoh {
		t.Fatalf("Exploit = %v, want LLCCohDMA (0.6 > 0.4)", got)
	}
}

func TestUCB1TriesEveryArmOnceThenUsesBounds(t *testing.T) {
	u := NewUCB1()
	rng := sim.NewRNG(1)
	seen := map[soc.Action]bool{}
	for i := 0; i < len(allModes); i++ {
		m := u.Decide(rng, 0, allModes, 0)
		if seen[m] {
			t.Fatalf("arm %v tried twice before all arms played", m)
		}
		seen[m] = true
		// A mediocre reward everywhere except CohDMA, which is best.
		r := 0.2
		if m == aCohDMA {
			r = 0.9
		}
		u.Update(rng, 0, m, r, 0)
	}
	// With all arms played once, the best mean dominates quickly.
	counts := map[soc.Action]int{}
	for i := 0; i < 40; i++ {
		m := u.Decide(rng, 0, allModes, 0)
		counts[m]++
		r := 0.2
		if m == aCohDMA {
			r = 0.9
		}
		u.Update(rng, 0, m, r, 0)
	}
	if counts[aCohDMA] < 20 {
		t.Fatalf("UCB1 played the best arm only %d/40 times: %v", counts[aCohDMA], counts)
	}
	if u.Exploit(0, allModes) != aCohDMA {
		t.Fatal("Exploit ignores the best mean")
	}
}

func TestBoltzmannTemperatureSweep(t *testing.T) {
	b := NewBoltzmann()
	b.Tables()[0].Table.Update(0, aFullCoh, 1, 1) // clearly best
	rng := sim.NewRNG(11)

	// Zero temperature: pure greedy, no RNG consumed... but Decide with
	// tau=0 must still be deterministic and greedy.
	for i := 0; i < 10; i++ {
		if got := b.Decide(rng, 0, allModes, 0); got != aFullCoh {
			t.Fatalf("cold Boltzmann chose %v", got)
		}
	}
	// High temperature: near-uniform — every mode appears.
	counts := map[soc.Action]int{}
	for i := 0; i < 400; i++ {
		counts[b.Decide(rng, 0, allModes, 100)]++
	}
	for _, m := range allModes {
		if counts[m] == 0 {
			t.Fatalf("hot Boltzmann never chose %v: %v", m, counts)
		}
	}
	// Low (but nonzero) temperature: strong preference for the best.
	counts = map[soc.Action]int{}
	for i := 0; i < 400; i++ {
		counts[b.Decide(rng, 0, allModes, 0.05)]++
	}
	if counts[aFullCoh] < 380 {
		t.Fatalf("cool Boltzmann picked best only %d/400: %v", counts[aFullCoh], counts)
	}
}

func TestSchedulesTrajectories(t *testing.T) {
	p := ScheduleParams{Epsilon0: 0.5, Alpha0: 0.25, DecayIterations: 10}

	lin := NewLinear(p)
	if lin.Epsilon(0) != 0.5 || lin.Alpha(0) != 0.25 {
		t.Fatalf("linear start ε=%g α=%g", lin.Epsilon(0), lin.Alpha(0))
	}
	if math.Abs(lin.Epsilon(5)-0.25) > 1e-12 || lin.Epsilon(10) != 0 || lin.Epsilon(15) != 0 {
		t.Fatalf("linear trajectory: %g %g %g", lin.Epsilon(5), lin.Epsilon(10), lin.Epsilon(15))
	}

	exp := NewExponential(p)
	if exp.Epsilon(0) != 0.5 {
		t.Fatalf("exp start ε=%g", exp.Epsilon(0))
	}
	if math.Abs(exp.Epsilon(10)-0.5*expFloor) > 1e-12 {
		t.Fatalf("exp at horizon = %g, want %g", exp.Epsilon(10), 0.5*expFloor)
	}
	for i := 1; i <= 20; i++ {
		if exp.Epsilon(i) >= exp.Epsilon(i-1) || exp.Epsilon(i) <= 0 {
			t.Fatalf("exp not strictly decreasing and positive at %d", i)
		}
	}

	cst := NewConstant(p)
	if cst.Epsilon(0) != 0.5 || cst.Epsilon(1000) != 0.5 || cst.Alpha(1000) != 0.25 {
		t.Fatal("constant schedule drifted")
	}
}

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	for _, name := range AlgorithmNames() {
		a, err := NewAlgorithm(name)
		if err != nil {
			t.Fatal(err)
		}
		rng := sim.NewRNG(9)
		for i := 0; i < 50; i++ {
			m := a.Decide(rng, State(i%5), allModes, 0.5)
			a.Update(rng, State(i%5), m, float64(i%7)/7, 0.25)
		}
		st := Snapshot(a)
		if st.Algo != name {
			t.Fatalf("snapshot algo = %q", st.Algo)
		}
		b, err := Restore(st)
		if err != nil {
			t.Fatalf("%s: Restore: %v", name, err)
		}
		for s := State(0); s < 5; s++ {
			if a.Exploit(s, allModes) != b.Exploit(s, allModes) {
				t.Fatalf("%s: restored algorithm exploits differently at state %d", name, s)
			}
		}
		// Snapshot is a deep copy: mutating it must not touch the source.
		st.Tables[0].Table.Update(0, aNonCoh, 1, 1)
		st2 := Snapshot(a)
		if st2.Tables[0].Table.Visits(0, aNonCoh) != a.Tables()[0].Table.Visits(0, aNonCoh) {
			t.Fatalf("%s: snapshot aliases live table", name)
		}
	}
}
