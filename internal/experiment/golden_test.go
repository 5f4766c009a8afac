package experiment

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cohmeleon/internal/core"
	"cohmeleon/internal/soc"
	"cohmeleon/internal/workload"
)

// Golden byte-identity regression tests for the learner refactor: the
// default stack (Table-3 featurizer + tabular Q + linear decay) must
// reproduce, byte for byte, the reports the pre-refactor monolithic
// agent produced. The testdata files were generated at the seed commit
// of this PR under the Tiny protocol; any drift in the agent's RNG
// draw order, decay arithmetic, update rule or report rendering shows
// up here as a diff. Regenerate the files only for a deliberate,
// documented behavior change.

// mustGolden reads a testdata reference.
func mustGolden(t *testing.T, name string) string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatalf("golden file: %v", err)
	}
	return string(b)
}

// diffAt pinpoints the first byte where two strings diverge.
func diffAt(got, want string) string {
	n := len(got)
	if len(want) < n {
		n = len(want)
	}
	for i := 0; i < n; i++ {
		if got[i] != want[i] {
			lo := i - 40
			if lo < 0 {
				lo = 0
			}
			return fmt.Sprintf("first diff at byte %d:\n got: …%q\nwant: …%q", i, got[lo:i+40], want[lo:i+40])
		}
	}
	return fmt.Sprintf("lengths differ: got %d bytes, want %d", len(got), len(want))
}

func TestGoldenFigure7ReportAndDecisions(t *testing.T) {
	res, err := Figure7(Tiny())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res.Render(), mustGolden(t, "golden_fig7_tiny.txt"); got != want {
		t.Errorf("Figure 7 report drifted from the pre-refactor bytes\n%s", diffAt(got, want))
	}
	var counts string
	for _, row := range res.Rows {
		counts += fmt.Sprintf("%s %s %v\n", row.Policy, row.Size, row.Decision)
	}
	if want := mustGolden(t, "golden_fig7_tiny_decisions.txt"); counts != want {
		t.Errorf("Figure 7 decision counts drifted\n%s", diffAt(counts, want))
	}
}

func TestGoldenAblationReport(t *testing.T) {
	res, err := Ablation(Tiny())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res.Render(), mustGolden(t, "golden_ablation_tiny.txt"); got != want {
		t.Errorf("ablation report drifted from the pre-refactor bytes\n%s", diffAt(got, want))
	}
}

func TestGoldenFigure8Report(t *testing.T) {
	res, err := Figure8(Tiny())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res.Render(), mustGolden(t, "golden_fig8_tiny.txt"); got != want {
		t.Errorf("Figure 8 report drifted from the pre-refactor bytes\n%s", diffAt(got, want))
	}
}

// TestGoldenNonFullFidelity pins the screened reports of both grid
// experiments at Tiny(). The worker-count determinism tests only
// compare a run with itself; these bytes hold the screening path —
// calibration, analytical training and testing, and the fidelity
// notes — against the reports the two-fidelity code produced.
func TestGoldenNonFullFidelity(t *testing.T) {
	for _, tc := range []struct{ exp, fid string }{
		{"sweep", FidelityScreening},
		{"learners", FidelityScreening},
	} {
		t.Run(tc.exp+"/"+tc.fid, func(t *testing.T) {
			fidelityTestSetup(t)
			opt := Tiny()
			opt.Fidelity = tc.fid
			var got string
			if tc.exp == "sweep" {
				res, err := Sweep(opt)
				if err != nil {
					t.Fatal(err)
				}
				got = res.Render()
			} else {
				res, err := Learners(opt)
				if err != nil {
					t.Fatal(err)
				}
				got = res.Render()
			}
			name := fmt.Sprintf("golden_%s_%s_tiny.txt", tc.exp, tc.fid)
			if want := mustGolden(t, name); got != want {
				t.Errorf("%s report at fidelity=%s drifted from %s\n%s", tc.exp, tc.fid, name, diffAt(got, want))
			}
		})
	}
}

// TestGoldenFineGrain pins the split-action path end to end: Figure 7
// with the fine-grain action space at Tiny (report and decision
// counts), then the trained agent's test run per phase (cycles and
// off-chip lines) and how many of its invocations took a hot/cold
// split action. No other test runs split invocations end to end, so
// this is the byte-identity gate for that path.
func TestGoldenFineGrain(t *testing.T) {
	opt := Tiny()
	opt.FineGrain = true
	res, err := Figure7(opt)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	b.WriteString(res.Render())
	for _, row := range res.Rows {
		fmt.Fprintf(&b, "%s %s %v\n", row.Policy, row.Size, row.Decision)
	}

	// The agent's test run, built exactly as Figure7 builds it.
	cfg := withProtocol(soc.SoC0(soc.TrafficMixed, opt.Seed), opt)
	test, err := workload.Generate(cfg, workload.GenConfig{MinInvocations: opt.MinInvocations}, opt.Seed+2000)
	if err != nil {
		t.Fatal(err)
	}
	policies, err := policySet(cfg, opt, core.DefaultWeights())
	if err != nil {
		t.Fatal(err)
	}
	run, err := testPolicy(simulator{opt.ctx(), cfg}, policies[7], test, opt.Seed+3)
	if err != nil {
		t.Fatal(err)
	}
	var split, total int
	for _, ph := range run.Phases {
		fmt.Fprintf(&b, "phase %s: %d cycles, %d off-chip lines\n", ph.Name, ph.Cycles, ph.OffChip)
		for _, inv := range ph.Invocations {
			total++
			if inv.Action.IsSplit() {
				split++
			}
		}
	}
	fmt.Fprintf(&b, "split invocations: %d of %d\n", split, total)
	if split == 0 {
		t.Fatalf("the fine-grain test run took no split action (%d invocations)", total)
	}
	if got, want := b.String(), mustGolden(t, "golden_finegrain_tiny.txt"); got != want {
		t.Errorf("fine-grain Figure 7 and test run drifted\n%s", diffAt(got, want))
	}
}
