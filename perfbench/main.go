// Command perfbench is the repository's benchmark. It runs one workload
// in this process, measures it from outside the program — timing its
// own calls into the repo's public functions and reading their public
// counters — checks the outputs, and prints one JSON result as the last
// line of standard output. See README.md for the workloads, the
// metrics and how to read them.
//
//	perfbench --workload sweep-full --seed 1 --seconds 15 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"cohmeleon/internal/experiment"
)

// workload is one benchmark scenario. setup runs several times and is
// timed by the caller; measure runs the timed phase once, with or
// without the CPU profile.
type workload interface {
	setup(b *bench) error
	setupReps() int
	measure(b *bench, traced bool) (*phase, error)
	// quality returns the workload's reference sweep result (the source
	// of the quality metrics) and its rendered report.
	quality() (*experiment.SweepResult, string)
	// mapePct returns the cost model's held-out per-run aggregate error.
	mapePct(b *bench) (float64, error)
	close()
}

var workloads = map[string]func() workload{
	"sweep-full":      func() workload { return &sweepWorkload{fidelity: experiment.FidelityFull, scenarios: 8} },
	"sweep-screening": func() workload { return &sweepWorkload{fidelity: experiment.FidelityScreening, scenarios: 4096} },
	"serve-mixed":     func() workload { return &serveWorkload{} },
}

// bench carries the run's arguments and its correctness tally.
type bench struct {
	seed    uint64 // the run's seed: drives the serve clients' warm picks
	expSeed uint64 // the experiment seed the simulated inputs derive from
	seconds float64
	workDir string // scratch space for serve cache dirs

	attempted, failed int
}

// check counts one output check; a failure is logged and counted.
func (b *bench) check(ok bool, format string, args ...any) bool {
	b.attempted++
	if !ok {
		b.failed++
		fmt.Fprintf(os.Stderr, "perfbench: check failed: "+format+"\n", args...)
	}
	return ok
}

// op counts one attempted operation (a sweep run or a served job)
// whose error, if any, counts as a failure.
func (b *bench) op(err error) bool {
	return b.check(err == nil, "%v", err)
}

// phase is what one timed phase measured. Times are net of steal
// (see stealClock).
type phase struct {
	walls, cpus []float64 // per timed unit: cold sweep run, or the serve mix
	cold, warm  []float64 // job latencies, seconds
	jobs        int
	timed       float64 // wall seconds over every job of the phase
	cells       int     // cells completed by cold jobs
	cellWall    float64 // wall seconds those cold jobs took
	cellMs      []float64
	spans       map[string][]float64 // server spans, ms
	refused     int
	profiles    [][]byte
	snap        experiment.StatsSnapshot
	steal       float64 // share of runnable vCPU time stolen, for the log
}

func main() {
	name := flag.String("workload", "", "workload: sweep-full, sweep-screening or serve-mixed")
	seed := flag.Uint64("seed", 42, "input seed: the serve clients' warm picks")
	expSeed := flag.Uint64("experiment-seed", 42, "experiment seed of the simulated inputs (held-out check: 1042)")
	seconds := flag.Float64("seconds", 15, "measurement length in seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	if err := run(*name, *seed, *expSeed, *seconds, *trace == 1); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

func run(name string, seed, expSeed uint64, seconds float64, traced bool) error {
	mk, ok := workloads[name]
	if !ok {
		return fmt.Errorf("unknown workload %q (valid: sweep-full, sweep-screening, serve-mixed)", name)
	}
	if seconds <= 0 {
		return errors.New("--seconds must be positive")
	}
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))
	if err := os.MkdirAll(".bench_build/run", 0o755); err != nil {
		return err
	}
	b := &bench{seed: seed, expSeed: expSeed, seconds: seconds, workDir: ".bench_build/run"}
	w := mk()
	defer w.close()

	var setups []float64
	clock := readSteal()
	for i := 0; i < w.setupReps(); i++ {
		t0 := time.Now()
		if err := w.setup(b); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	net := 1 - clock.stolenSince()
	for i := range setups {
		setups[i] *= net
	}

	var metrics map[string]float64
	if traced {
		plain, err := w.measure(b, false)
		if err != nil {
			return err
		}
		tr, err := w.measure(b, true)
		if err != nil {
			return err
		}
		if metrics, err = layerMetrics(b, w, plain, tr, setups); err != nil {
			return err
		}
	} else {
		ph, err := w.measure(b, false)
		if err != nil {
			return err
		}
		rss := peakRSSMB()
		metrics = endToEndMetrics(b, w, ph, setups, rss)
	}
	defs := endToEnd
	if traced {
		defs = perLayer()
	}
	return emit(b, defs, metrics)
}

// endToEndMetrics derives the untraced run's metrics.
func endToEndMetrics(b *bench, w workload, ph *phase, setups []float64, rss float64) map[string]float64 {
	fmt.Fprintf(os.Stderr, "perfbench: %.1f%% of runnable vCPU time stolen in the timed phase\n", 100*ph.steal)
	res, report := w.quality()
	speedup, offchip, err := headline(res)
	b.check(err == nil, "quality metrics: %v", err)
	mape, err := w.mapePct(b)
	b.check(err == nil, "cost-model error: %v", err)
	coldTail, coldPct, _ := tail(ph.cold)
	warmTail, warmPct, _ := tail(ph.warm)
	fmt.Fprintf(os.Stderr, "perfbench: cold jobs %d (tail = p%.0f), warm jobs %d (p50 %.3f ms, tail = p%.0f: %.3f ms)\n",
		len(ph.cold), coldPct, len(ph.warm), 1e3*median(ph.warm), warmPct, 1e3*warmTail)
	fmt.Fprintf(os.Stderr, "perfbench: quality: speedup %.2f%% (paper %.0f%%, error %.2f points), off-chip reduction %.2f%% (paper %.0f%%, error %.2f points), report %x\n",
		speedup, paperSpeedupPct, speedup-paperSpeedupPct, offchip, paperOffchipPct, offchip-paperOffchipPct, uint64(reportHash(report)))
	return map[string]float64{
		"wall_s":                     median(ph.walls),
		"cpu_s":                      median(ph.cpus),
		"setup_s":                    median(setups),
		"peak_rss_mb":                rss,
		"ok_frac":                    1 - float64(b.failed)/float64(max(b.attempted, 1)),
		"cells_per_s":                float64(ph.cells) / ph.cellWall,
		"jobs_per_s":                 float64(ph.jobs) / ph.timed,
		"cold_job_p50_s":             median(ph.cold),
		"cold_job_tail_s":            coldTail,
		"cohm_speedup_pct":           speedup,
		"cohm_offchip_reduction_pct": offchip,
		"screen_agg_mape_pct":        mape,
	}
}

// layerMetrics derives the traced run's metrics: the module ledger of
// the traced phase, spans, counters and the simulated statistics.
func layerMetrics(b *bench, w workload, plain, tr *phase, setups []float64) (map[string]float64, error) {
	m := map[string]float64{}
	total := 0.0
	led := ledger{}
	for _, raw := range tr.profiles {
		p, err := parseProfile(raw)
		if err != nil {
			return nil, err
		}
		l, t := attribute(p)
		for k, v := range l {
			led[k] += v
		}
		total += t
	}
	b.check(total > 0, "traced phase recorded no CPU samples")
	for _, mod := range modules {
		m[mod+".self_s"] = led[mod]
		m[mod+".share"] = led[mod] / max(total, 1e-9)
	}
	printLedger(led, total)
	m["tracing_overhead_pct"] = 100 * (median(tr.walls)/median(plain.walls) - 1)
	m["experiment.cell_ms.p50"] = quantile(tr.cellMs, 0.5)
	m["experiment.cell_ms.p90"] = quantile(tr.cellMs, 0.9)
	if sw, ok := w.(*sweepWorkload); ok && sw.fidelity == experiment.FidelityScreening {
		m["costmodel.calibrate_s"] = median(setups)
	} else {
		m["costmodel.calibrate_s"] = 0
	}
	for _, s := range serverSpans() {
		m["server."+s] = median(tr.spans[s])
	}
	_, coldPct, _ := tail(tr.cold)
	warmTail, warmPct, _ := tail(tr.warm)
	m["jobs.warm.p50_ms"] = 1e3 * median(tr.warm)
	m["jobs.warm.tail_ms"] = 1e3 * warmTail
	m["jobs.cold.samples"] = float64(len(tr.cold))
	m["jobs.cold.tail_pct"] = coldPct
	m["jobs.warm.samples"] = float64(len(tr.warm))
	m["jobs.warm.tail_pct"] = warmPct

	s := tr.snap
	rc := s.RunCache
	m["experiment.store.memo_hits"] = float64(rc.Hits)
	m["experiment.store.disk_hits"] = float64(rc.DiskHits)
	m["experiment.store.simulated"] = float64(rc.Misses)
	m["experiment.store.hit_ratio"] = ratio(rc.Hits+rc.DiskHits, rc.Hits+rc.DiskHits+rc.Misses)
	m["experiment.store.write_failures"] = float64(rc.WriteFailures)
	m["experiment.store.quarantined"] = float64(rc.Quarantined)
	ck := s.Checkpoint
	m["experiment.checkpoint.replayed"] = float64(ck.Replayed)
	m["experiment.checkpoint.saved"] = float64(ck.Saved)
	m["experiment.checkpoint.replay_ratio"] = ratio(ck.Replayed, ck.Replayed+ck.Saved)
	m["experiment.lease.acquired"] = float64(s.Lease.Acquired)
	m["experiment.lease.contended"] = float64(s.Lease.Contended)
	m["experiment.lease.reclaimed"] = float64(s.Lease.Reclaimed)
	m["experiment.lease.fallbacks"] = float64(s.Lease.Fallbacks)
	m["experiment.fidelity.screened_cells"] = float64(s.Fidelity.ScreenedCells)
	m["experiment.fidelity.escalated_cells"] = float64(s.Fidelity.EscalatedCells)
	m["experiment.fidelity.model_fits"] = float64(s.Fidelity.ModelFits)
	m["server.refused"] = float64(tr.refused)

	res, report := w.quality()
	if !b.check(res != nil, "no sweep result") {
		res = &experiment.SweepResult{}
	}
	for _, p := range rosterPolicies {
		row, ok := res.Row(p)
		b.check(ok, "sweep result lacks the %s row", p)
		m["soc.norm_exec."+p] = row.NormExec
		m["soc.norm_offchip."+p] = row.NormMem
	}
	m["report_sha256"] = reportHash(report)
	return m, nil
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// printLedger writes the module shares, largest first, to stderr.
func printLedger(led ledger, total float64) {
	names := append([]string(nil), modules...)
	sort.Slice(names, func(i, j int) bool { return led[names[i]] > led[names[j]] })
	fmt.Fprintf(os.Stderr, "perfbench: layer ledger (%.2f CPU s profiled; %.1f%% outside other)\n",
		total, 100*(1-led["other"]/max(total, 1e-9)))
	for _, n := range names {
		if led[n] > 0 {
			fmt.Fprintf(os.Stderr, "  %-16s %7.3fs %6.2f%%\n", n, led[n], 100*led[n]/total)
		}
	}
}

// result is the benchmark's output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// emit prints the JSON result; every declared metric must be valid,
// present and finite.
func emit(b *bench, defs []metricDef, values map[string]float64) error {
	if err := validateDefs(defs); err != nil {
		return err
	}
	out := result{Metrics: map[string]metric{}}
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.Name)
		}
		if v != v || v > 1e300 || v < -1e300 {
			return fmt.Errorf("metric %s is not finite (%v)", d.Name, v)
		}
		out.Metrics[d.Name] = metric{Value: v, Unit: d.Unit}
	}
	out.Correct = b.failed == 0
	out.Attempted = b.attempted
	out.Failed = b.failed
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// cpuSeconds returns the process's user+system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// peakRSSMB returns the process's peak resident set in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// stealClock samples the kernel's CPU accounting. On a shared virtual
// machine the hypervisor steals vCPU time for other guests, and that
// steal, not the program, dominates wall-clock variation between runs.
type stealClock struct{ steal, busy uint64 }

// readSteal reads the all-CPU line of /proc/stat; zero where absent.
func readSteal() stealClock {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return stealClock{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return stealClock{}
	}
	var v [8]uint64
	for i := range v {
		v[i], _ = strconv.ParseUint(f[i+1], 10, 64)
	}
	// user nice system idle iowait irq softirq steal: runnable time is
	// everything but idle and iowait.
	return stealClock{steal: v[7], busy: v[0] + v[1] + v[2] + v[5] + v[6] + v[7]}
}

// minStealBusy is the least runnable time, in clock ticks, over which
// a steal share is taken; shorter intervals read as no steal.
const minStealBusy = 100

// stolenSince returns the share of runnable vCPU time stolen since c.
// A thread that was runnable throughout an interval ran for (1 − share)
// of it, so multiplying a wall-clock interval by 1 − share removes the
// steal. Process CPU time needs no correction: a kernel with paravirt
// steal accounting never charges steal to the running task.
func (c stealClock) stolenSince() float64 {
	now := readSteal()
	if now.busy < c.busy+minStealBusy {
		return 0
	}
	return float64(now.steal-c.steal) / float64(now.busy-c.busy)
}
