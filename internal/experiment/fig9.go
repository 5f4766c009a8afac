package experiment

import (
	"strings"

	"cohmeleon/internal/core"
	"cohmeleon/internal/esp"
	"cohmeleon/internal/soc"
	"cohmeleon/internal/stats"
	"cohmeleon/internal/workload"
)

// Fig9Point is one scatter point of Figure 9: a policy's geomean
// normalized performance on one SoC configuration.
type Fig9Point struct {
	SoC      string
	Policy   string
	NormExec float64
	NormMem  float64
	// Raw totals over the whole application (cycles, off-chip lines):
	// the headline aggregates use these, since per-phase ratios are
	// ill-conditioned when a cache-friendly policy reaches zero off-chip
	// accesses in a phase.
	RawExec float64
	RawMem  float64
}

// Fig9Result reproduces Figure 9: all eight policies across the eight
// evaluation configurations (SoC0 streaming/irregular, SoC1–SoC3 with
// mixed traffic generators, and the three case-study SoCs), each
// Cohmeleon model trained for TrainIterations with the (67.5, 7.5, 25)
// reward.
type Fig9Result struct {
	Points []Fig9Point
}

// fig9Configs returns the eight evaluation configurations in paper
// order.
func fig9Configs(seed uint64) []*soc.Config {
	return []*soc.Config{
		soc.SoC0(soc.TrafficStreaming, seed),
		soc.SoC0(soc.TrafficIrregular, seed),
		soc.SoC1(seed + 1),
		soc.SoC2(seed + 2),
		soc.SoC3(seed + 3),
		soc.SoC4(),
		soc.SoC5(),
		soc.SoC6(),
	}
}

// Figure9 runs the cross-SoC study. Two fan-out phases: every SoC's
// policy set (training + profiling) is prepared concurrently, then all
// (SoC, policy) test trials run as one flat pool. Each trial owns its
// policy instance and a fresh SoC; seeds are fixed up front, and the
// points are assembled in paper order from the indexed results, so the
// report is identical for any worker count.
func Figure9(opt Options) (*Fig9Result, error) {
	cfgs := fig9Configs(opt.Seed)
	for _, cfg := range cfgs {
		withProtocol(cfg, opt)
	}
	// Phase 1 already fans one task per SoC, so the nested fan-out inside
	// policySet (training ∥ profiling, and the profiler's trials) gets
	// only the leftover share of the pool; otherwise the effective
	// concurrency would multiply across nesting levels and blow far past
	// Options.Workers in SoC-sized allocations.
	inner := opt
	inner.Workers = opt.workers() / len(cfgs)
	if inner.Workers < 1 {
		inner.Workers = 1
	}
	tests := make([]*workload.App, len(cfgs))
	policies := make([][]esp.Policy, len(cfgs))
	if err := forEachOpt(opt, len(cfgs), func(i int) error {
		test, err := workload.AppFor(cfgs[i], opt.Seed+2000)
		if err != nil {
			return err
		}
		tests[i] = test
		pols, err := policySet(cfgs[i], inner, core.DefaultWeights())
		policies[i] = pols
		return err
	}); err != nil {
		return nil, err
	}

	perSoC := len(policies[0])
	results := make([]*workload.AppResult, len(cfgs)*perSoC)
	ctx := opt.ctx()
	if err := forEachOpt(opt, len(results), func(i int) error {
		ci, pi := i/perSoC, i%perSoC
		res, err := testPolicy(simulator{ctx, cfgs[ci]}, policies[ci][pi], tests[ci], opt.Seed+3)
		results[i] = res
		return err
	}); err != nil {
		return nil, err
	}

	out := &Fig9Result{}
	for ci, cfg := range cfgs {
		baseline := results[ci*perSoC] // first policy is fixed-non-coh-dma
		for pi, pol := range policies[ci] {
			res := results[ci*perSoC+pi]
			exec, mem := geoNormalized(res, baseline)
			out.Points = append(out.Points, Fig9Point{
				SoC: cfg.Name, Policy: pol.Name(), NormExec: exec, NormMem: mem,
				RawExec: float64(res.Cycles), RawMem: float64(res.OffChip),
			})
		}
	}
	return out, nil
}

// Point returns the measurement for a SoC and policy.
func (r *Fig9Result) Point(socName, pol string) (Fig9Point, bool) {
	for _, p := range r.Points {
		if p.SoC == socName && p.Policy == pol {
			return p, true
		}
	}
	return Fig9Point{}, false
}

// LearnedPoint returns the learned-policy measurement for a SoC,
// whatever learner stack it ran under: the agent reports as
// "cohmeleon" for the default stack and "cohmeleon-<algo>-<sched>"
// otherwise, and the headline must aggregate either.
func (r *Fig9Result) LearnedPoint(socName string) (Fig9Point, bool) {
	for _, p := range r.Points {
		if p.SoC == socName && strings.HasPrefix(p.Policy, "cohmeleon") {
			return p, true
		}
	}
	return Fig9Point{}, false
}

// SoCs returns the configuration names in order.
func (r *Fig9Result) SoCs() []string {
	seen := map[string]bool{}
	var out []string
	for _, p := range r.Points {
		if !seen[p.SoC] {
			seen[p.SoC] = true
			out = append(out, p.SoC)
		}
	}
	return out
}

// Render formats one table per SoC.
func (r *Fig9Result) Render() string {
	mt := &MultiTable{}
	for _, socName := range r.SoCs() {
		t := &Table{
			Title:  "Figure 9 — " + socName + " (geomean over phases, normalized to fixed-non-coh-dma)",
			Header: []string{"policy", "norm exec", "norm off-chip"},
		}
		for _, p := range r.Points {
			if p.SoC == socName {
				t.AddRow(p.Policy, f2(p.NormExec), f2(p.NormMem))
			}
		}
		mt.Tables = append(mt.Tables, t)
	}
	return mt.Render()
}

// HeadlineResult aggregates Figure 9 into the paper's headline numbers:
// Cohmeleon's average speedup and off-chip reduction versus the five
// fixed policies (four homogeneous plus heterogeneous) across all SoC
// configurations.
type HeadlineResult struct {
	Fig9            *Fig9Result
	AvgSpeedup      float64 // mean of (fixed exec / cohmeleon exec) − 1
	AvgMemReduction float64 // mean of 1 − (cohmeleon mem / fixed mem)
	VsManualExec    float64 // cohmeleon exec / manual exec (≈1 means match)
}

// fixedPolicyNames are the five design-time baselines of the headline.
var fixedPolicyNames = []string{
	"fixed-non-coh-dma", "fixed-llc-coh-dma", "fixed-coh-dma", "fixed-full-coh", "fixed-hetero",
}

// Headline computes the aggregate comparison (running Figure 9 first).
func Headline(opt Options) (*HeadlineResult, error) {
	fig9, err := Figure9(opt)
	if err != nil {
		return nil, err
	}
	return HeadlineFrom(fig9), nil
}

// HeadlineFrom aggregates an existing Figure-9 result.
func HeadlineFrom(fig9 *Fig9Result) *HeadlineResult {
	var speedups, reductions, vsManual []float64
	for _, socName := range fig9.SoCs() {
		cohm, ok := fig9.LearnedPoint(socName)
		if !ok {
			continue
		}
		for _, fixed := range fixedPolicyNames {
			fp, ok := fig9.Point(socName, fixed)
			if !ok {
				continue
			}
			speedups = append(speedups, stats.Ratio(fp.RawExec, cohm.RawExec)-1)
			reductions = append(reductions, 1-stats.Ratio(cohm.RawMem, fp.RawMem))
		}
		if mp, ok := fig9.Point(socName, "manual"); ok {
			vsManual = append(vsManual, stats.Ratio(cohm.RawExec, mp.RawExec))
		}
	}
	return &HeadlineResult{
		Fig9:            fig9,
		AvgSpeedup:      stats.Mean(speedups),
		AvgMemReduction: stats.Mean(reductions),
		VsManualExec:    stats.Mean(vsManual),
	}
}

// Render formats the headline numbers.
func (h *HeadlineResult) Render() string {
	t := &Table{
		Title:  "Headline — Cohmeleon vs the five fixed policies (across all SoCs)",
		Header: []string{"metric", "measured", "paper"},
	}
	t.AddRow("avg speedup", f1(h.AvgSpeedup*100)+"%", "38%")
	t.AddRow("avg off-chip reduction", f1(h.AvgMemReduction*100)+"%", "66%")
	t.AddRow("exec vs manually-tuned", f2(h.VsManualExec)+"x", "~1.0x (matches)")
	return t.Render()
}
