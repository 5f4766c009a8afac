package main

import (
	"bytes"
	"fmt"
	"regexp"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"cohmeleon/internal/experiment"
	"cohmeleon/internal/scenario"
)

// sweepWorkload runs the sweep experiment at the quick profile in this
// process with one worker and no cache directory: sweep-full
// (cycle-accurate, 8 scenarios) and sweep-screening (cost model, 4096
// scenarios). A job is one sweep call. Cold jobs start from an empty
// run memo; warm jobs repeat the same sweep with the memo the previous
// job left. Screening memoizes only its calibrated model, which is
// set-up, so its cold and warm jobs do the same work.
type sweepWorkload struct {
	fidelity  string
	scenarios int

	inventory []experiment.SweepScenarioInfo // sampled in set-up
	result    *experiment.SweepResult        // first job's result
	report    string                         // first job's rendered report
	calib     *experiment.SweepResult        // set-up calibration sweep (screening)
}

func (w *sweepWorkload) options(b *bench) experiment.Options {
	opt := experiment.Quick()
	opt.Seed = b.expSeed
	opt.SweepScenarios = w.scenarios
	opt.Workers = 1
	opt.Fidelity = w.fidelity
	return opt
}

func (w *sweepWorkload) setupReps() int {
	if w.fidelity == experiment.FidelityScreening {
		return 2 // each rep calibrates for seconds
	}
	return 25 // each rep takes milliseconds
}

// setup drops every in-process cache. The full sweep then generates
// its inputs — the scenarios and their training and test applications
// — which the report's inventory is later checked against. Screening
// calibrates the cost model by running a one-scenario screened sweep;
// the model stays memoized for the timed phase.
func (w *sweepWorkload) setup(b *bench) error {
	if err := experiment.SetRunCacheDir(""); err != nil {
		return err
	}
	experiment.ResetRunCache()
	experiment.ResetCheckpointStats()
	if w.fidelity == experiment.FidelityScreening {
		opt := w.options(b)
		opt.SweepScenarios = 1
		res, err := experiment.Sweep(opt)
		w.calib = res
		return err
	}
	spec := scenario.DefaultSpec()
	spec.MinInvocations = w.options(b).MinInvocations
	scens, err := scenario.Sample(spec, w.scenarios, b.expSeed)
	if err != nil {
		return err
	}
	w.inventory = w.inventory[:0]
	for _, sc := range scens {
		if _, err := sc.App(1000); err != nil {
			return err
		}
		test, err := sc.App(2000)
		if err != nil {
			return err
		}
		w.inventory = append(w.inventory, experiment.SweepScenarioInfo{Name: sc.Cfg.Name, Invocations: test.Invocations()})
	}
	return nil
}

// measure alternates cold and warm jobs until --seconds have passed,
// and runs at least one of each. Traced phases profile cold jobs only.
func (w *sweepWorkload) measure(b *bench, traced bool) (*phase, error) {
	ph := &phase{}
	// Counters since the phase began: full-fidelity cold jobs reset them
	// with the memo, so the phase sums the stretches between resets.
	snap := addSnapshots(experiment.StatsSnapshot{}, experiment.Snapshot(), -1)
	phaseClock := readSteal()
	start := time.Now()
	for i := 0; i < 2 || time.Since(start).Seconds() < b.seconds; i++ {
		cold := i%2 == 0
		if cold && w.fidelity == experiment.FidelityFull {
			snap = addSnapshots(snap, experiment.Snapshot(), 1)
			experiment.ResetRunCache()
			experiment.ResetCheckpointStats()
		}
		opt := w.options(b)
		last := time.Now()
		cells := 0
		opt.CellDone = func(experiment.CellEvent) {
			now := time.Now()
			if cold {
				ph.cellMs = append(ph.cellMs, float64(now.Sub(last).Microseconds())/1e3)
			}
			last = now
			cells++
		}
		var prof bytes.Buffer
		if traced && cold {
			if err := pprof.StartCPUProfile(&prof); err != nil {
				return nil, err
			}
		}
		firstCell := len(ph.cellMs)
		clock, t0, c0 := readSteal(), time.Now(), cpuSeconds()
		res, err := experiment.Sweep(opt)
		net := 1 - clock.stolenSince()
		wall, cpu := net*time.Since(t0).Seconds(), cpuSeconds()-c0
		for i := firstCell; i < len(ph.cellMs); i++ {
			ph.cellMs[i] *= net
		}
		if traced && cold {
			pprof.StopCPUProfile()
			ph.profiles = append(ph.profiles, prof.Bytes())
		}
		if !b.op(err) {
			continue
		}
		ph.jobs++
		ph.timed += wall
		if cold {
			ph.walls = append(ph.walls, wall)
			ph.cpus = append(ph.cpus, cpu)
			ph.cold = append(ph.cold, wall)
			ph.cells += cells
			ph.cellWall += wall
		} else {
			ph.warm = append(ph.warm, wall)
		}
		w.checkReport(b, res, cells)
	}
	ph.snap = addSnapshots(snap, experiment.Snapshot(), 1)
	ph.steal = phaseClock.stolenSince()
	return ph, nil
}

// checkReport checks one job's output: every job renders the first
// job's bytes; the first job's report is also checked on its own.
func (w *sweepWorkload) checkReport(b *bench, res *experiment.SweepResult, cells int) {
	report := res.Render()
	b.check(cells == w.scenarios, "sweep completed %d of %d cells", cells, w.scenarios)
	if w.result != nil {
		b.check(report == w.report, "sweep report differs between jobs of one run")
		return
	}
	w.result, w.report = res, report
	names := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		names[i] = r.Policy
	}
	b.check(strings.Join(names, ",") == strings.Join(rosterPolicies, ","),
		"sweep rows %v, want %v", names, rosterPolicies)
	b.check(len(res.Scenarios) == w.scenarios, "sweep inventory has %d scenarios, want %d", len(res.Scenarios), w.scenarios)
	if w.fidelity == experiment.FidelityScreening {
		b.check(strings.Contains(report, "note: fidelity=screening: analytical cost model calibrated on"),
			"screened report lacks its calibration-bounds note")
		b.check(experiment.Snapshot().Fidelity.EscalatedCells == 0, "screening escalated cells")
		return
	}
	for i, want := range w.inventory {
		if i < len(res.Scenarios) {
			got := res.Scenarios[i]
			b.check(got.Name == want.Name && got.Invocations == want.Invocations,
				"scenario %d is %s/%d invocations, set-up sampled %s/%d",
				i, got.Name, got.Invocations, want.Name, want.Invocations)
		}
	}
}

func (w *sweepWorkload) quality() (*experiment.SweepResult, string) {
	return w.result, w.report
}

// mapePct reads the held-out per-run aggregate error from a screened
// report's calibration note. Screening has one from set-up; the full
// sweep calibrates once after every measurement is taken.
func (w *sweepWorkload) mapePct(b *bench) (float64, error) {
	if w.calib != nil {
		return aggMAPE(w.calib.Render())
	}
	return calibrationMAPE(b)
}

func (w *sweepWorkload) close() {}

var aggMAPEPattern = regexp.MustCompile(`per-run aggregate MAPE ([0-9.]+)%`)

// aggMAPE extracts the held-out per-run aggregate MAPE (percent) from a
// screened report.
func aggMAPE(report string) (float64, error) {
	m := aggMAPEPattern.FindStringSubmatch(report)
	if m == nil {
		return 0, fmt.Errorf("report carries no aggregate MAPE note")
	}
	return strconv.ParseFloat(m[1], 64)
}

// calibrationMAPE calibrates the cost model for the quick profile at
// the experiment seed, from a cold memo, and returns its held-out
// aggregate error.
func calibrationMAPE(b *bench) (float64, error) {
	if err := experiment.SetRunCacheDir(""); err != nil {
		return 0, err
	}
	experiment.ResetRunCache()
	w := &sweepWorkload{fidelity: experiment.FidelityScreening, scenarios: 1}
	res, err := experiment.Sweep(w.options(b))
	if err != nil {
		return 0, err
	}
	return aggMAPE(res.Render())
}

// addSnapshots returns a + sign·b over the counters the ledger reports.
func addSnapshots(a, b experiment.StatsSnapshot, sign int64) experiment.StatsSnapshot {
	a.RunCache.Hits += b.RunCache.Hits * sign
	a.RunCache.DiskHits += b.RunCache.DiskHits * sign
	a.RunCache.Misses += b.RunCache.Misses * sign
	a.RunCache.WriteFailures += b.RunCache.WriteFailures * sign
	a.RunCache.Quarantined += b.RunCache.Quarantined * sign
	a.Checkpoint.Replayed += b.Checkpoint.Replayed * sign
	a.Checkpoint.Saved += b.Checkpoint.Saved * sign
	a.Lease.Acquired += b.Lease.Acquired * sign
	a.Lease.Contended += b.Lease.Contended * sign
	a.Lease.Reclaimed += b.Lease.Reclaimed * sign
	a.Lease.Fallbacks += b.Lease.Fallbacks * sign
	a.Fidelity.ScreenedCells += b.Fidelity.ScreenedCells * sign
	a.Fidelity.EscalatedCells += b.Fidelity.EscalatedCells * sign
	a.Fidelity.ModelFits += b.Fidelity.ModelFits * sign
	return a
}
