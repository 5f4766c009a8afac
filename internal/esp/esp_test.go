package esp

import (
	"testing"

	"cohmeleon/internal/acc"
	"cohmeleon/internal/mem"
	"cohmeleon/internal/sim"
	"cohmeleon/internal/soc"
)

func testSoC(t *testing.T) *soc.SoC {
	t.Helper()
	spec := &acc.Spec{
		Name: "stream", Pattern: acc.Streaming, BurstLines: 16,
		ComputePerByte: 0.2, ReadFraction: 0.8, Reuse: acc.ConstReuse(1),
		InPlace: false, PLMBytes: 16 << 10,
	}
	spec2 := *spec
	spec2.Name = "stream2"
	cfg := &soc.Config{
		Name: "test", MeshW: 3, MeshH: 3, CPUs: 2, MemTiles: 2,
		LLCSliceKB: 64, L2KB: 32,
		Accs: []soc.AccInstance{
			{InstName: "acc0", Spec: spec, PrivateCache: true},
			{InstName: "acc1", Spec: &spec2, PrivateCache: true},
		},
		Params: soc.DefaultParams(),
	}
	s, err := cfg.Build()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// recordingPolicy fixes a mode and records copies of what it saw (the
// Policy contract forbids retaining the pointers).
type recordingPolicy struct {
	mode     soc.Mode
	contexts []Context
	results  []Result
	overhead sim.Cycles
}

func (r *recordingPolicy) Name() string { return "recording" }
func (r *recordingPolicy) Decide(ctx *Context) soc.Mode {
	r.contexts = append(r.contexts, *ctx)
	return ctx.Clamp(r.mode)
}
func (r *recordingPolicy) Observe(res *Result)        { r.results = append(r.results, *res) }
func (r *recordingPolicy) OverheadCycles() sim.Cycles { return r.overhead }

func runSim(t *testing.T, s *soc.SoC, fn func(p *sim.Proc)) {
	t.Helper()
	s.Eng.Go("test", fn)
	if err := s.Eng.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestInvokeLifecycle(t *testing.T) {
	s := testSoC(t)
	pol := &recordingPolicy{mode: soc.CohDMA}
	sys := NewSystem(s, pol)
	runSim(t, s, func(p *sim.Proc) {
		buf, err := s.Heap.Alloc(16 << 10)
		if err != nil {
			t.Fatal(err)
		}
		p.WaitUntil(s.CPUTouchRange(s.CPUs[0], buf, 0, buf.Lines(), true, p.Now(), &soc.Meter{}))
		sys.CPUPermit(p)
		res := sys.Invoke(p, s.Accs[0], buf, s.CPUPool, sim.NewRNG(1))
		s.CPUPool.Release()
		if res.Mode != soc.CohDMA {
			t.Errorf("mode = %v", res.Mode)
		}
		if res.ExecCycles <= 0 {
			t.Error("no execution time")
		}
		if res.OffChipTrue != 0 {
			t.Errorf("warm coh-dma went off-chip: %d", res.OffChipTrue)
		}
		if res.FootprintBytes != 16<<10 {
			t.Errorf("footprint = %d", res.FootprintBytes)
		}
	})
	if len(pol.contexts) != 1 || len(pol.results) != 1 {
		t.Fatalf("policy saw %d contexts, %d results", len(pol.contexts), len(pol.results))
	}
	if sys.Invocations != 1 {
		t.Fatalf("Invocations = %d", sys.Invocations)
	}
	if sys.Tracker.ActiveCount() != 0 {
		t.Fatal("tracker left an invocation active")
	}
}

// CPUPermit acquires a CPU permit for the calling proc (test helper to
// mirror how workload threads call Invoke).
func (sys *System) CPUPermit(p *sim.Proc) { sys.SoC.CPUPool.Acquire(p) }

func TestInvokeChargesOverhead(t *testing.T) {
	run := func(overhead sim.Cycles) sim.Cycles {
		s := testSoC(t)
		pol := &recordingPolicy{mode: soc.CohDMA, overhead: overhead}
		sys := NewSystem(s, pol)
		var exec sim.Cycles
		runSim(t, s, func(p *sim.Proc) {
			buf, _ := s.Heap.Alloc(16 << 10)
			sys.CPUPermit(p)
			res := sys.Invoke(p, s.Accs[0], buf, s.CPUPool, sim.NewRNG(1))
			s.CPUPool.Release()
			exec = res.ExecCycles
		})
		return exec
	}
	base := run(0)
	withOverhead := run(5000)
	if withOverhead != base+5000 {
		t.Errorf("overhead not charged: %d vs %d", base, withOverhead)
	}
}

func TestInvokeFlushesForNonCoherent(t *testing.T) {
	s := testSoC(t)
	pol := &recordingPolicy{mode: soc.NonCohDMA}
	sys := NewSystem(s, pol)
	runSim(t, s, func(p *sim.Proc) {
		buf, _ := s.Heap.Alloc(16 << 10)
		p.WaitUntil(s.CPUTouchRange(s.CPUs[0], buf, 0, buf.Lines(), true, p.Now(), &soc.Meter{}))
		sys.CPUPermit(p)
		res := sys.Invoke(p, s.Accs[0], buf, s.CPUPool, sim.NewRNG(1))
		s.CPUPool.Release()
		// Warm dirty data must be flushed off-chip, then read back.
		if res.OffChipTrue < 2*buf.Lines() {
			t.Errorf("non-coh invocation moved %d lines off-chip, want ≥ %d", res.OffChipTrue, 2*buf.Lines())
		}
		// The approximation must see the same traffic (only this
		// invocation is active).
		if res.OffChipApprox < float64(res.OffChipTrue)*0.9 {
			t.Errorf("approx %f far below truth %d in isolation", res.OffChipApprox, res.OffChipTrue)
		}
	})
}

func TestInvokeReleasesCPUWhileAcceleratorRuns(t *testing.T) {
	s := testSoC(t) // 2 CPUs
	pol := &recordingPolicy{mode: soc.NonCohDMA}
	sys := NewSystem(s, pol)
	// Three threads on two CPUs: if Invoke held the CPU during the run,
	// the third thread could never make progress until one finished.
	var order []string
	runSim(t, s, func(p *sim.Proc) {
		wg := sim.NewWaitGroup(s.Eng)
		for i, a := range []*soc.AccTile{s.Accs[0], s.Accs[1], s.Accs[0]} {
			i := i
			a := a
			wg.Add(1)
			s.Eng.Go("thread", func(q *sim.Proc) {
				buf, _ := s.Heap.Alloc(64 << 10)
				s.CPUPool.Acquire(q)
				a.Busy.Acquire(q)
				order = append(order, "start")
				sys.Invoke(q, a, buf, s.CPUPool, sim.NewRNG(uint64(i)))
				a.Busy.Release()
				s.CPUPool.Release()
				order = append(order, "end")
				wg.Done()
			})
		}
		wg.Wait(p)
	})
	if len(order) != 6 {
		t.Fatalf("order = %v", order)
	}
	// All three must have started before all three ended (overlap), which
	// requires the CPU to be released during accelerator execution.
	starts := 0
	for _, o := range order[:3] {
		if o == "start" {
			starts++
		}
	}
	if starts < 2 {
		t.Errorf("no overlap observed: %v", order)
	}
}

func TestTrackerSenseCounts(t *testing.T) {
	s := testSoC(t)
	tr := NewTracker(s)
	buf0, _ := s.Heap.Alloc(32 << 10)
	buf1, _ := s.Heap.Alloc(32 << 10)
	tr.Add(s.Accs[0], soc.NonCohDMA, buf0)

	ctx := tr.Sense(s.Accs[1], buf1)
	if ctx.ActiveCount != 1 || ctx.ActiveNonCoh != 1 {
		t.Fatalf("ctx = %+v", ctx)
	}
	if ctx.ActiveFootprintBytes != 32<<10 {
		t.Fatalf("active footprint = %d", ctx.ActiveFootprintBytes)
	}
	if ctx.FootprintBytes != 32<<10 {
		t.Fatalf("self footprint = %d", ctx.FootprintBytes)
	}
	if ctx.FullyCohActive != 0 {
		t.Fatal("no fully-coh active")
	}
	tr.Remove(s.Accs[0])
	ctx = tr.Sense(s.Accs[1], buf1)
	if ctx.ActiveCount != 0 || ctx.NonCohPerTile != 0 {
		t.Fatalf("tracker not cleared: %+v", ctx)
	}
}

func TestTrackerSharedPartitionVisibility(t *testing.T) {
	s := testSoC(t)
	tr := NewTracker(s)
	// Two single-page buffers land on the two partitions (least-loaded).
	bufA, _ := s.Heap.Alloc(4 << 10)
	bufB, _ := s.Heap.Alloc(4 << 10)
	partsA := bufA.Partitions(s.Map)
	partsB := bufB.Partitions(s.Map)
	if len(partsA) != 1 || len(partsB) != 1 || partsA[0] == partsB[0] {
		t.Fatalf("expected disjoint partitions, got %v and %v", partsA, partsB)
	}
	tr.Add(s.Accs[0], soc.NonCohDMA, bufA)
	// B's partition has no non-coherent activity.
	ctx := tr.Sense(s.Accs[1], bufB)
	if ctx.NonCohPerTile != 0 {
		t.Errorf("NonCohPerTile = %g, want 0 (disjoint partitions)", ctx.NonCohPerTile)
	}
	// A second invocation on A's own partition sees it.
	ctx = tr.Sense(s.Accs[1], bufA)
	if ctx.NonCohPerTile != 1 {
		t.Errorf("NonCohPerTile = %g, want 1", ctx.NonCohPerTile)
	}
}

func TestTrackerDoubleAddPanics(t *testing.T) {
	s := testSoC(t)
	tr := NewTracker(s)
	buf, _ := s.Heap.Alloc(4 << 10)
	tr.Add(s.Accs[0], soc.CohDMA, buf)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	tr.Add(s.Accs[0], soc.CohDMA, buf)
}

func TestAttributeDDRProportional(t *testing.T) {
	s := testSoC(t)
	tr := NewTracker(s)
	// Two active invocations on the same partition with footprints 1:3.
	bufA, _ := s.Heap.Alloc(4 << 10)
	partA := bufA.Partitions(s.Map)[0]
	// Force B onto the same partition by allocating until one lands there.
	var bufB *mem.Buffer
	for {
		b, err := s.Heap.Alloc(12 << 10)
		if err != nil {
			t.Fatal(err)
		}
		if b.Partitions(s.Map)[0] == partA {
			bufB = b
			break
		}
	}
	tr.Add(s.Accs[1], soc.NonCohDMA, bufB)
	deltas := make([]int64, s.Map.Partitions())
	deltas[partA] = 400
	got := tr.AttributeDDR(s.Accs[0], bufA, deltas)
	if got != 100 { // 4k/(4k+12k) × 400
		t.Errorf("AttributeDDR = %g, want 100", got)
	}
	// Sole accelerator gets everything.
	tr.Remove(s.Accs[1])
	if got := tr.AttributeDDR(s.Accs[0], bufA, deltas); got != 400 {
		t.Errorf("solo AttributeDDR = %g, want 400", got)
	}
}

func TestAttributeDDRIgnoresForeignPartitions(t *testing.T) {
	s := testSoC(t)
	tr := NewTracker(s)
	buf, _ := s.Heap.Alloc(4 << 10)
	part := buf.Partitions(s.Map)[0]
	deltas := make([]int64, s.Map.Partitions())
	for p := range deltas {
		if p != part {
			deltas[p] = 1000 // traffic elsewhere
		}
	}
	if got := tr.AttributeDDR(s.Accs[0], buf, deltas); got != 0 {
		t.Errorf("attributed %g from partitions the buffer does not touch", got)
	}
}

func TestContextAllowsAndClamp(t *testing.T) {
	ctx := &Context{Available: []soc.Mode{soc.NonCohDMA, soc.LLCCohDMA, soc.CohDMA}}
	if !ctx.Allows(soc.CohDMA) || ctx.Allows(soc.FullyCoh) {
		t.Fatal("Allows wrong")
	}
	if got := ctx.Clamp(soc.FullyCoh); got != soc.CohDMA {
		t.Fatalf("Clamp(FullyCoh) = %v, want CohDMA", got)
	}
	if got := ctx.Clamp(soc.LLCCohDMA); got != soc.LLCCohDMA {
		t.Fatalf("Clamp(LLCCohDMA) = %v", got)
	}
}

func TestResultDerivedMetrics(t *testing.T) {
	r := &Result{
		FootprintBytes: 1000,
		ExecCycles:     5000,
		ActiveCycles:   4000,
		CommCycles:     1000,
		OffChipApprox:  250,
	}
	if r.ScaledExec() != 5 {
		t.Errorf("ScaledExec = %g", r.ScaledExec())
	}
	if r.CommRatio() != 0.25 {
		t.Errorf("CommRatio = %g", r.CommRatio())
	}
	if r.ScaledMem() != 0.25 {
		t.Errorf("ScaledMem = %g", r.ScaledMem())
	}
	zero := &Result{FootprintBytes: 10}
	if zero.CommRatio() != 0 {
		t.Error("zero active cycles should give zero ratio")
	}
}

func TestInvokeUnavailableModePanics(t *testing.T) {
	s := testSoC(t)
	// Remove acc0's private cache via a config rebuild.
	spec := s.Accs[0].Spec
	cfg := &soc.Config{
		Name: "t2", MeshW: 3, MeshH: 3, CPUs: 1, MemTiles: 1,
		LLCSliceKB: 64, L2KB: 32,
		Accs:   []soc.AccInstance{{InstName: "a", Spec: spec, PrivateCache: false}},
		Params: soc.DefaultParams(),
	}
	s2, err := cfg.Build()
	if err != nil {
		t.Fatal(err)
	}
	bad := &badPolicy{}
	sys := NewSystem(s2, bad)
	runSim(t, s2, func(p *sim.Proc) {
		buf, _ := s2.Heap.Alloc(4 << 10)
		s2.CPUPool.Acquire(p)
		defer func() {
			if recover() == nil {
				t.Error("unavailable mode should panic")
			}
		}()
		sys.Invoke(p, s2.Accs[0], buf, s2.CPUPool, sim.NewRNG(1))
	})
}

type badPolicy struct{}

func (b *badPolicy) Name() string               { return "bad" }
func (b *badPolicy) Decide(*Context) soc.Mode   { return soc.FullyCoh }
func (b *badPolicy) Observe(*Result)            {}
func (b *badPolicy) OverheadCycles() sim.Cycles { return 0 }
