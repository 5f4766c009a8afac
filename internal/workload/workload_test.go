package workload

import (
	"reflect"
	"testing"

	"cohmeleon/internal/esp"
	"cohmeleon/internal/policy"
	"cohmeleon/internal/soc"
)

func TestSizeClassNamesAndClassify(t *testing.T) {
	cfg := soc.SoC1(1) // 32 kB L2, 256 kB slices, 1 MB total LLC
	if Small.String() != "S" || Medium.String() != "M" || Large.String() != "L" || ExtraLarge.String() != "XL" {
		t.Fatal("class names wrong")
	}
	cases := []struct {
		bytes int64
		want  SizeClass
	}{
		{16 << 10, Small},
		{32 << 10, Small},
		{128 << 10, Medium},
		{256 << 10, Medium},
		{512 << 10, Large},
		{1 << 20, Large},
		{2 << 20, ExtraLarge},
	}
	for _, c := range cases {
		if got := Classify(c.bytes, cfg); got != c.want {
			t.Errorf("Classify(%d) = %v, want %v", c.bytes, got, c.want)
		}
	}
}

func TestClassBytesRoundTrip(t *testing.T) {
	cfg := soc.SoC1(1)
	for c := Small; c < NumSizeClasses; c++ {
		if got := Classify(ClassBytes(c, cfg), cfg); got != c {
			t.Errorf("ClassBytes(%v) classifies as %v", c, got)
		}
	}
}

// mustGenerate fails the test on generator errors (preset SoCs have no
// degenerate geometry, so errors here are always bugs).
func mustGenerate(t *testing.T, cfg *soc.Config, g GenConfig, seed uint64) *App {
	t.Helper()
	app, err := Generate(cfg, g, seed)
	if err != nil {
		t.Fatal(err)
	}
	return app
}

func TestGenerateDeterministicAndValid(t *testing.T) {
	cfg := soc.SoC1(7)
	a := mustGenerate(t, cfg, GenConfig{}, 42)
	b := mustGenerate(t, cfg, GenConfig{}, 42)
	if a.Invocations() != b.Invocations() || len(a.Phases) != len(b.Phases) {
		t.Fatal("generator not deterministic")
	}
	if err := a.Validate(cfg); err != nil {
		t.Fatal(err)
	}
	if a.Invocations() < 300 {
		t.Fatalf("generated app has %d invocations, want ≥ 300", a.Invocations())
	}
	c := mustGenerate(t, cfg, GenConfig{}, 43)
	if c.Invocations() == a.Invocations() && len(c.Phases) == len(a.Phases) &&
		c.Phases[0].Threads[0].FootprintBytes == a.Phases[0].Threads[0].FootprintBytes {
		t.Fatal("different seeds produced identical apps")
	}
}

func TestGenerateRespectsClassRestriction(t *testing.T) {
	cfg := soc.SoC1(7)
	app := mustGenerate(t, cfg, GenConfig{Classes: []SizeClass{Small}, MinInvocations: 50}, 1)
	for _, ph := range app.Phases {
		for _, th := range ph.Threads {
			if got := Classify(th.FootprintBytes, cfg); got != Small {
				t.Fatalf("thread footprint %d classed %v, want Small", th.FootprintBytes, got)
			}
		}
	}
}

func TestFigure5AppShape(t *testing.T) {
	cfg := soc.SoC0(soc.TrafficMixed, 3)
	app, err := Figure5App(cfg, 11)
	if err != nil {
		t.Fatal(err)
	}
	if err := app.Validate(cfg); err != nil {
		t.Fatal(err)
	}
	wantThreads := []int{10, 4, 6, 3}
	wantNames := []string{"10 Threads: Small", "4 Threads: Medium", "6 Threads: Large", "3 Threads: Variable"}
	if len(app.Phases) != 4 {
		t.Fatalf("%d phases, want 4", len(app.Phases))
	}
	for i, ph := range app.Phases {
		if ph.Name != wantNames[i] {
			t.Errorf("phase %d = %q, want %q", i, ph.Name, wantNames[i])
		}
		if len(ph.Threads) != wantThreads[i] {
			t.Errorf("phase %q has %d threads, want %d", ph.Name, len(ph.Threads), wantThreads[i])
		}
	}
	for _, th := range app.Phases[0].Threads {
		if Classify(th.FootprintBytes, cfg) != Small {
			t.Error("Small phase contains non-small thread")
		}
	}
}

func TestCaseStudyAppsValidate(t *testing.T) {
	soc5 := soc.SoC5()
	ad, err := AutonomousDrivingApp(soc5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := ad.Validate(soc5); err != nil {
		t.Fatal(err)
	}
	if len(ad.Phases) != 3 {
		t.Fatalf("autonomous driving has %d phases", len(ad.Phases))
	}
	soc6 := soc.SoC6()
	cv, err := ComputerVisionApp(soc6, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := cv.Validate(soc6); err != nil {
		t.Fatal(err)
	}
	// Every SoC6 thread is the 3-stage pipeline.
	for _, ph := range cv.Phases {
		for _, th := range ph.Threads {
			if len(th.Chain) != 3 {
				t.Fatalf("vision chain length %d, want 3", len(th.Chain))
			}
		}
	}
}

func TestAppForDispatch(t *testing.T) {
	mustApp := func(cfg *soc.Config) *App {
		t.Helper()
		app, err := AppFor(cfg, 1)
		if err != nil {
			t.Fatal(err)
		}
		return app
	}
	if app := mustApp(soc.SoC5()); app.Name != "SoC5-autonomous-driving" {
		t.Fatalf("SoC5 app = %q", app.Name)
	}
	if app := mustApp(soc.SoC6()); app.Name != "SoC6-computer-vision" {
		t.Fatalf("SoC6 app = %q", app.Name)
	}
	if app := mustApp(soc.SoC1(1)); app.Invocations() < 300 {
		t.Fatalf("generated app too small: %d", app.Invocations())
	}
}

func TestValidateCatchesErrors(t *testing.T) {
	cfg := soc.SoC1(1)
	bad := &App{Name: "bad", Phases: []PhaseSpec{{
		Name:    "p",
		Threads: []ThreadSpec{{Name: "t", FootprintBytes: 1 << 10, Chain: []string{"ghost"}, Loops: 1}},
	}}}
	if err := bad.Validate(cfg); err == nil {
		t.Fatal("unknown accelerator should fail validation")
	}
	empty := &App{Name: "empty"}
	if err := empty.Validate(cfg); err == nil {
		t.Fatal("empty app should fail validation")
	}
	zeroLoops := &App{Name: "z", Phases: []PhaseSpec{{
		Name:    "p",
		Threads: []ThreadSpec{{Name: "t", FootprintBytes: 1 << 10, Chain: []string{cfg.Accs[0].InstName}, Loops: 0}},
	}}}
	if err := zeroLoops.Validate(cfg); err == nil {
		t.Fatal("zero loops should fail validation")
	}
}

// buildSmallApp returns a tiny app + SoC for end-to-end runner tests.
func buildSmallApp(t *testing.T) (*soc.SoC, *App) {
	t.Helper()
	cfg := soc.SoC1(9)
	s, err := cfg.Build()
	if err != nil {
		t.Fatal(err)
	}
	app := &App{
		Name: "tiny",
		Phases: []PhaseSpec{
			{Name: "p0", Threads: []ThreadSpec{
				{Name: "t0", FootprintBytes: 16 << 10, Chain: []string{cfg.Accs[0].InstName}, Loops: 2, ReadbackFraction: 0.25},
				{Name: "t1", FootprintBytes: 64 << 10, Chain: []string{cfg.Accs[1].InstName, cfg.Accs[2].InstName}, Loops: 1},
			}},
			{Name: "p1", Threads: []ThreadSpec{
				{Name: "t0", FootprintBytes: 32 << 10, Chain: []string{cfg.Accs[3].InstName}, Loops: 1},
			}},
		},
	}
	return s, app
}

func TestRunProducesPhaseResults(t *testing.T) {
	s, app := buildSmallApp(t)
	sys := esp.NewSystem(s, policy.NewFixed(soc.CohDMA))
	res, err := Run(sys, app, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Phases) != 2 {
		t.Fatalf("%d phase results", len(res.Phases))
	}
	if res.Phases[0].Cycles <= 0 || res.Phases[1].Cycles <= 0 {
		t.Fatal("phases took no time")
	}
	wantInv := app.Invocations()
	if got := len(res.AllInvocations()); got != wantInv {
		t.Fatalf("recorded %d invocations, want %d", got, wantInv)
	}
	if res.Policy != "fixed-coh-dma" {
		t.Fatalf("policy name %q", res.Policy)
	}
	if res.Cycles < res.Phases[0].Cycles+res.Phases[1].Cycles {
		t.Fatal("total cycles less than phase sum")
	}
	if len(res.ExecSeries()) != 2 || len(res.MemSeries()) != 2 {
		t.Fatal("series lengths wrong")
	}
}

func TestRunDeterministic(t *testing.T) {
	run := func() (c int64, off int64) {
		s, app := buildSmallApp(t)
		sys := esp.NewSystem(s, policy.NewFixed(soc.LLCCohDMA))
		res, err := Run(sys, app, 5)
		if err != nil {
			t.Fatal(err)
		}
		return int64(res.Cycles), res.OffChip
	}
	c1, o1 := run()
	c2, o2 := run()
	if c1 != c2 || o1 != o2 {
		t.Fatalf("non-deterministic run: (%d,%d) vs (%d,%d)", c1, o1, c2, o2)
	}
}

func TestRunPoliciesDiffer(t *testing.T) {
	measure := func(p esp.Policy) int64 {
		s, app := buildSmallApp(t)
		sys := esp.NewSystem(s, p)
		res, err := Run(sys, app, 5)
		if err != nil {
			t.Fatal(err)
		}
		return res.OffChip
	}
	nonCoh := measure(policy.NewFixed(soc.NonCohDMA))
	cohDMA := measure(policy.NewFixed(soc.CohDMA))
	if nonCoh <= cohDMA {
		t.Fatalf("non-coh off-chip (%d) should exceed coh-dma (%d) for warm workloads", nonCoh, cohDMA)
	}
}

func TestRunFreesAllBuffers(t *testing.T) {
	s, app := buildSmallApp(t)
	sys := esp.NewSystem(s, policy.NewFixed(soc.CohDMA))
	if _, err := Run(sys, app, 5); err != nil {
		t.Fatal(err)
	}
	for pidx := 0; pidx < s.Map.Partitions(); pidx++ {
		// No binary reads the allocator's per-partition byte count, so mem
		// exports no accessor for it.
		used := reflect.ValueOf(s.Heap).Elem().FieldByName("usedBytes").Index(pidx).Int()
		if used != 0 {
			t.Fatalf("partition %d leaked %d bytes", pidx, used)
		}
	}
}

func TestRunRejectsInvalidApp(t *testing.T) {
	s, _ := buildSmallApp(t)
	sys := esp.NewSystem(s, policy.NewFixed(soc.CohDMA))
	bad := &App{Name: "bad", Phases: []PhaseSpec{{Name: "p", Threads: []ThreadSpec{
		{Name: "t", FootprintBytes: 1 << 10, Chain: []string{"ghost"}, Loops: 1},
	}}}}
	if _, err := Run(sys, bad, 1); err == nil {
		t.Fatal("invalid app should be rejected")
	}
}

func TestThreadInvocationsCount(t *testing.T) {
	th := ThreadSpec{Chain: []string{"a", "b"}, Loops: 3}
	if th.Invocations() != 6 {
		t.Fatalf("Invocations = %d", th.Invocations())
	}
}
