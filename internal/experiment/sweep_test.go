package experiment

import (
	"path/filepath"
	"strings"
	"testing"

	"cohmeleon/internal/core"
)

// sweepOptions returns the smallest useful sweep setup.
func sweepOptions() Options {
	opt := Tiny()
	opt.SweepScenarios = 2
	opt.MinInvocations = 15
	return opt
}

// TestSweepDeterministicAcrossWorkers: the sweep report must be
// byte-identical whether scenarios run sequentially or on eight
// workers — the property the whole harness guarantees.
func TestSweepDeterministicAcrossWorkers(t *testing.T) {
	render := func(workers int) string {
		opt := sweepOptions()
		opt.Workers = workers
		rep, err := Sweep(opt)
		if err != nil {
			t.Fatal(err)
		}
		return rep.Render()
	}
	seq := render(1)
	par := render(8)
	if seq != par {
		t.Fatalf("sweep report differs between workers=1 and workers=8:\n--- seq ---\n%s\n--- par ---\n%s", seq, par)
	}
	if !strings.Contains(seq, "cohmeleon") || !strings.Contains(seq, "scenario-000") {
		t.Fatalf("report incomplete:\n%s", seq)
	}
	if strings.Contains(seq, "fidelity=") {
		t.Fatalf("full-fidelity report carries a fidelity note:\n%s", seq)
	}
}

// TestSweepQTableTransfer drives the full train-on-A/test-on-B
// workflow: a sweep on seed A saves its merged table; a sweep on a
// disjoint seed B loads it and reports the frozen transfer row.
func TestSweepQTableTransfer(t *testing.T) {
	if testing.Short() {
		t.Skip("two full sweeps; skipped in -short (the race CI step) like the double-headline run")
	}
	path := filepath.Join(t.TempDir(), "trained.qtable")

	trainOpt := sweepOptions()
	trainOpt.Seed = 11
	trainOpt.QTableSave = path
	trainRep, err := Sweep(trainOpt)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := trainRep.Row("cohmeleon-transfer"); ok {
		t.Fatal("training sweep should not report a transfer row")
	}
	if !strings.Contains(trainRep.Render(), "saved to") {
		t.Fatal("training sweep should note the saved table")
	}

	saved, err := core.LoadTableFile(path)
	if err != nil {
		t.Fatalf("saved table unreadable: %v", err)
	}
	if saved.TotalVisits() == 0 {
		t.Fatal("saved table carries no training")
	}

	evalOpt := sweepOptions()
	evalOpt.Seed = 22 // disjoint held-out scenario set
	evalOpt.QTableLoad = path
	evalRep, err := Sweep(evalOpt)
	if err != nil {
		t.Fatal(err)
	}
	row, ok := evalRep.Row("cohmeleon-transfer")
	if !ok {
		t.Fatal("evaluation sweep missing the transfer row")
	}
	if row.NormExec <= 0 || row.NormMem < 0 {
		t.Fatalf("nonsensical transfer row: %+v", row)
	}
}

// TestSweepRejectsCorruptTable: a corrupt table file must fail the
// sweep up front, not mid-grid.
func TestSweepRejectsCorruptTable(t *testing.T) {
	opt := sweepOptions()
	opt.QTableLoad = filepath.Join(t.TempDir(), "absent.qtable")
	if _, err := Sweep(opt); err == nil {
		t.Fatal("missing Q-table file accepted")
	}
}

func TestOptionsValidate(t *testing.T) {
	if err := Tiny().Validate(); err != nil {
		t.Fatalf("Tiny invalid: %v", err)
	}
	if err := Default().Validate(); err != nil {
		t.Fatalf("Default invalid: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*Options)
	}{
		{"negative-workers", func(o *Options) { o.Workers = -1 }},
		{"zero-runs", func(o *Options) { o.Runs = 0 }},
		{"zero-train-iterations", func(o *Options) { o.TrainIterations = 0 }},
		{"zero-min-invocations", func(o *Options) { o.MinInvocations = 0 }},
		{"zero-sweep-scenarios", func(o *Options) { o.SweepScenarios = 0 }},
		{"zero-learner-scenarios", func(o *Options) { o.LearnerScenarios = 0 }},
		{"unknown-learner", func(o *Options) { o.Learner = "sarsa" }},
		{"unknown-schedule", func(o *Options) { o.Schedule = "cosine" }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opt := Tiny()
			tc.mut(&opt)
			if err := opt.Validate(); err == nil {
				t.Fatal("invalid options accepted")
			}
		})
	}
}

func TestLookupUnknownListsValidIDs(t *testing.T) {
	_, err := Lookup("bogus")
	if err == nil {
		t.Fatal("unknown id accepted")
	}
	for _, id := range []string{"sweep", "fig9", "table4"} {
		if !strings.Contains(err.Error(), id) {
			t.Fatalf("error %q does not list valid id %q", err, id)
		}
	}
}

func TestSweepRegistered(t *testing.T) {
	e, err := Lookup("sweep")
	if err != nil {
		t.Fatal(err)
	}
	opt := sweepOptions()
	opt.SweepScenarios = 2
	rep, err := e.Run(opt)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rep.Render(), "randomized scenarios") {
		t.Fatal("sweep render incomplete")
	}
}
