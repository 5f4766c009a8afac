package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"regexp"
	"sort"
	"strings"

	"cohmeleon/internal/experiment"
	"cohmeleon/internal/stats"
)

// metricDef declares one reported metric. Bound is the share of the
// parent's median by which an end-to-end metric may worsen; per-layer
// metrics carry no bound.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd lists what a user of the system sees, reported by every
// untraced run on every workload (see README.md for each workload's
// definition of a job and a cell).
var endToEnd = []metricDef{
	{"wall_s", "s", "lower", 0.25},
	{"cpu_s", "s", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
	{"ok_frac", "frac", "higher", 0.01},
	{"cells_per_s", "1/s", "higher", 0.25},
	{"jobs_per_s", "1/s", "higher", 0.25},
	{"cold_job_p50_s", "s", "lower", 0.25},
	{"cold_job_tail_s", "s", "lower", 0.25},
	{"cohm_speedup_pct", "%", "higher", 0.01},
	{"cohm_offchip_reduction_pct", "%", "higher", 0.01},
	{"screen_agg_mape_pct", "%", "lower", 0.01},
}

// modules are the attribution buckets of the CPU profile: the repo's
// packages under internal/ (soc/protocol folds into soc), the
// benchmark's own code, the network stack no repo frame called into,
// three runtime buckets, and "other" for whatever remains.
var modules = []string{
	"sim", "noc", "cache", "soc", "mem", "acc", "esp", "workload",
	"core", "learn", "policy", "costmodel", "scenario", "experiment",
	"server", "stats", "faultinject", "bench", "net",
	"runtime.gc", "runtime.sched", "runtime.syscall", "other",
}

// rosterPolicies are the sweep's policy rows, in report order.
var rosterPolicies = []string{
	"fixed-non-coh-dma", "fixed-llc-coh-dma", "fixed-coh-dma", "fixed-full-coh",
	"rand", "manual", "cohmeleon",
}

// perLayer lists what a traced run reports.
func perLayer() []metricDef {
	var out []metricDef
	add := func(name, unit, better string) {
		out = append(out, metricDef{Name: name, Unit: unit, Better: better})
	}
	for _, m := range modules {
		add(m+".self_s", "s", "lower")
		add(m+".share", "frac", "lower")
	}
	add("tracing_overhead_pct", "%", "lower")
	add("experiment.cell_ms.p50", "ms", "lower")
	add("experiment.cell_ms.p90", "ms", "lower")
	add("costmodel.calibrate_s", "s", "lower")
	for _, s := range serverSpans() {
		add("server."+s, "ms", "lower")
	}
	add("jobs.cold.samples", "count", "higher")
	add("jobs.cold.tail_pct", "%", "higher")
	add("jobs.warm.samples", "count", "higher")
	add("jobs.warm.tail_pct", "%", "higher")
	add("jobs.warm.p50_ms", "ms", "lower")
	add("jobs.warm.tail_ms", "ms", "lower")
	for _, c := range []string{"memo_hits", "disk_hits"} {
		add("experiment.store."+c, "count", "higher")
	}
	add("experiment.store.simulated", "count", "lower")
	add("experiment.store.hit_ratio", "frac", "higher")
	add("experiment.store.write_failures", "count", "lower")
	add("experiment.store.quarantined", "count", "lower")
	add("experiment.checkpoint.replayed", "count", "higher")
	add("experiment.checkpoint.saved", "count", "lower")
	add("experiment.checkpoint.replay_ratio", "frac", "higher")
	add("experiment.lease.acquired", "count", "lower")
	add("experiment.lease.contended", "count", "lower")
	add("experiment.lease.reclaimed", "count", "lower")
	add("experiment.lease.fallbacks", "count", "lower")
	add("experiment.fidelity.screened_cells", "count", "higher")
	add("experiment.fidelity.escalated_cells", "count", "lower")
	add("experiment.fidelity.model_fits", "count", "lower")
	add("server.refused", "count", "lower")
	for _, p := range rosterPolicies {
		add("soc.norm_exec."+p, "ratio", "lower")
	}
	for _, p := range rosterPolicies {
		add("soc.norm_offchip."+p, "ratio", "lower")
	}
	add("report_sha256", "hash", "lower")
	return out
}

// serverSpans names the p50 spans of served jobs, per job class:
// submit (POST round trip), queue_wait (admitted to running), run
// (running to settled) and report (settled to report received).
func serverSpans() []string {
	var out []string
	for _, class := range []string{"cold", "warm"} {
		for _, s := range []string{"submit", "queue_wait", "run", "report"} {
			out = append(out, class+"."+s+"_ms")
		}
	}
	return out
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitName = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// validateDefs checks names, units and uniqueness of a metric list.
func validateDefs(defs []metricDef) error {
	seen := map[string]bool{}
	for _, d := range defs {
		if !metricName.MatchString(d.Name) {
			return fmt.Errorf("metric name %q is not [A-Za-z0-9_.-]+ starting with a letter or digit (≤ 64)", d.Name)
		}
		if !unitName.MatchString(d.Unit) {
			return fmt.Errorf("metric %s: unit %q invalid", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			return fmt.Errorf("metric %s: better %q must be lower or higher", d.Name, d.Better)
		}
		if seen[d.Name] {
			return fmt.Errorf("metric %s declared twice", d.Name)
		}
		seen[d.Name] = true
	}
	return nil
}

// median returns the middle value (mean of the two middle values for
// an even count); 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile returns the nearest-rank q-quantile (0 < q ≤ 1).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	k := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(k, len(s)-1))]
}

// tailBeyond is the number of samples that must lie above a reported
// tail percentile.
const tailBeyond = 10

// tail returns the highest order statistic that has at least
// tailBeyond samples above it, with its nearest-rank percentile. With
// too few samples no such percentile exists: tail returns the maximum
// (percentile 100) and ok=false, so the report can say so.
func tail(xs []float64) (v, pct float64, ok bool) {
	if len(xs) == 0 {
		return 0, 0, false
	}
	s := sortedCopy(xs)
	n := len(s)
	k := n - 1 - tailBeyond
	if k < 0 {
		return s[n-1], 100, false
	}
	return s[k], 100 * float64(k+1) / float64(n), true
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// headline computes the quality metrics from a sweep result the way
// experiment.HeadlineFrom does for Figure 9: Cohmeleon against every
// fixed-* row, averaged, as percentages.
func headline(r *experiment.SweepResult) (speedupPct, offchipPct float64, err error) {
	if r == nil {
		return 0, 0, fmt.Errorf("no sweep result")
	}
	cohm, ok := r.Row("cohmeleon")
	if !ok {
		return 0, 0, fmt.Errorf("sweep result has no cohmeleon row")
	}
	var speedups, reductions []float64
	for _, row := range r.Rows {
		if !strings.HasPrefix(row.Policy, "fixed-") {
			continue
		}
		speedups = append(speedups, stats.Ratio(row.NormExec, cohm.NormExec)-1)
		reductions = append(reductions, 1-stats.Ratio(cohm.NormMem, row.NormMem))
	}
	if len(speedups) == 0 {
		return 0, 0, fmt.Errorf("sweep result has no fixed-* rows")
	}
	return 100 * stats.Mean(speedups), 100 * stats.Mean(reductions), nil
}

// reportHash condenses a rendered report's SHA-256 to its first 52
// bits, which a JSON number carries exactly.
func reportHash(report string) float64 {
	sum := sha256.Sum256([]byte(report))
	return float64(binary.BigEndian.Uint64(sum[:8]) >> 12)
}

// paperSpeedupPct and paperOffchipPct are the paper's headline
// aggregates (§6), printed beside every quality number.
const (
	paperSpeedupPct = 38.0
	paperOffchipPct = 66.0
)
