package scenario

import (
	"reflect"
	"strings"
	"testing"

	"cohmeleon/internal/soc"
	"cohmeleon/internal/workload"
)

func TestSampleDeterministic(t *testing.T) {
	spec := DefaultSpec()
	spec.MinInvocations = 20
	a, err := Sample(spec, 6, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Sample(spec, 6, 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != 6 || len(b) != 6 {
		t.Fatalf("sampled %d and %d scenarios, want 6", len(a), len(b))
	}
	for i := range a {
		if a[i].Seed != b[i].Seed || a[i].Cfg.Name != b[i].Cfg.Name ||
			a[i].Cfg.LLCSliceKB != b[i].Cfg.LLCSliceKB || len(a[i].Cfg.Accs) != len(b[i].Cfg.Accs) ||
			a[i].Gen.MaxThreads != b[i].Gen.MaxThreads || len(a[i].Gen.Classes) != len(b[i].Gen.Classes) {
			t.Fatalf("scenario %d differs between identical samples", i)
		}
	}
}

func TestSampleSeedsDiffer(t *testing.T) {
	spec := DefaultSpec()
	spec.MinInvocations = 20
	a, err := Sample(spec, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Sample(spec, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	same := 0
	for i := range a {
		if a[i].Cfg.CPUs == b[i].Cfg.CPUs && a[i].Cfg.MemTiles == b[i].Cfg.MemTiles &&
			a[i].Cfg.LLCSliceKB == b[i].Cfg.LLCSliceKB && len(a[i].Cfg.Accs) == len(b[i].Cfg.Accs) {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("disjoint seeds produced identical scenario sets")
	}
}

// TestDrawMatchesSample: Draw is the set's i-th element for any set
// size, so a grid may draw each scenario in the cell that uses it.
func TestDrawMatchesSample(t *testing.T) {
	spec := DefaultSpec()
	spec.MinInvocations = 20
	for _, seed := range []uint64{1, 42, 1042} {
		set, err := Sample(spec, 64, seed)
		if err != nil {
			t.Fatal(err)
		}
		for i, want := range set {
			got, err := Draw(spec, i, seed)
			if err != nil {
				t.Fatalf("seed %d scenario %d: %v", seed, i, err)
			}
			if got.Index != i || got.Seed != want.Seed || got.Cfg.Name != want.Cfg.Name ||
				!reflect.DeepEqual(got.Gen, want.Gen) || configContent(got.Cfg) != configContent(want.Cfg) {
				t.Fatalf("seed %d: Draw(%d) = %+v, Sample[%d] = %+v", seed, i, got, i, want)
			}
		}
	}
	if _, err := Draw(spec, -1, 1); err == nil {
		t.Fatal("negative scenario index accepted")
	}
}

// configContent is a config's identity as the run store keys it
// (accelerator specs hold reuse functions, which reflect cannot compare).
func configContent(cfg *soc.Config) string {
	var b strings.Builder
	cfg.HashContent(&b)
	return b.String()
}

// TestScenarioAppsValidateAndDiffer guards the draw's promise that
// every App offset generates: it builds and validates the apps of many
// drawn scenarios at the offsets the experiments use.
func TestScenarioAppsValidateAndDiffer(t *testing.T) {
	spec := DefaultSpec()
	spec.MinInvocations = 20
	scens, err := Sample(spec, 256, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range scens {
		var apps [3]*workload.App
		for k, offset := range []uint64{0, 1000, 2000} {
			app, err := sc.App(offset)
			if err != nil {
				t.Fatalf("%s offset %d: %v", sc.Cfg.Name, offset, err)
			}
			if err := app.Validate(sc.Cfg); err != nil {
				t.Fatalf("%s offset %d: %v", sc.Cfg.Name, offset, err)
			}
			if app.Invocations() < spec.MinInvocations {
				t.Fatalf("%s offset %d: undersized app (%d invocations)", sc.Cfg.Name, offset, app.Invocations())
			}
			apps[k] = app
		}
		if apps[1].Name == apps[2].Name {
			t.Fatalf("%s: train and test instances identical", sc.Cfg.Name)
		}
	}
}

func TestSampleRejectsBadInput(t *testing.T) {
	spec := DefaultSpec()
	if _, err := Sample(spec, 0, 1); err == nil {
		t.Fatal("zero scenario count accepted")
	}
	spec.MaxThreads = 0
	if _, err := Sample(spec, 1, 1); err == nil {
		t.Fatal("invalid workload bounds accepted")
	}
	spec = DefaultSpec()
	spec.Classes = nil
	if _, err := Sample(spec, 1, 1); err == nil {
		t.Fatal("empty class set accepted")
	}
	spec = DefaultSpec()
	spec.SoC.MinCPUs = 9
	spec.SoC.MaxCPUs = 3
	if _, err := Sample(spec, 1, 1); err == nil {
		t.Fatal("invalid SoC spec accepted")
	}
}

func TestDrawClassesNeverEmpty(t *testing.T) {
	spec := DefaultSpec()
	spec.MinInvocations = 10
	scens, err := Sample(spec, 20, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range scens {
		if len(sc.Gen.Classes) == 0 {
			t.Fatalf("%s drew an empty class set", sc.Cfg.Name)
		}
		for _, c := range sc.Gen.Classes {
			if c < workload.Small || c >= workload.NumSizeClasses {
				t.Fatalf("%s drew out-of-range class %d", sc.Cfg.Name, c)
			}
		}
	}
}
