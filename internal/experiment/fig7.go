package experiment

import (
	"fmt"

	"cohmeleon/internal/core"
	"cohmeleon/internal/esp"
	"cohmeleon/internal/soc"
	"cohmeleon/internal/workload"
)

// Fig7Row is one stacked bar of Figure 7: the selection frequency of
// each coherence mode for a policy, overall or within one workload-size
// class.
type Fig7Row struct {
	Policy   string
	Size     string // "all", "S", "M", "L", "XL"
	Percent  [soc.NumModes]float64
	Decision [soc.NumModes]int64
}

// Fig7Result reproduces Figure 7: the breakdown of coherence decisions
// made by Cohmeleon and the manually-tuned algorithm, in total and per
// workload-size class.
type Fig7Result struct {
	Rows []Fig7Row
}

// Figure7 trains Cohmeleon, then runs both policies on the test
// application and tallies their decisions from the invocation results.
func Figure7(opt Options) (*Fig7Result, error) {
	cfg := withProtocol(soc.SoC0(soc.TrafficMixed, opt.Seed), opt)
	test, err := workload.Generate(cfg, workload.GenConfig{MinInvocations: opt.MinInvocations}, opt.Seed+2000)
	if err != nil {
		return nil, err
	}
	policies, err := policySet(cfg, opt, core.DefaultWeights())
	if err != nil {
		return nil, err
	}
	manual := policies[6]
	agent := policies[7]

	// The two test trials (trained agent, manual) are independent and
	// run concurrently; rows are tallied in paper order afterwards.
	pols := []esp.Policy{agent, manual}
	results := make([]*workload.AppResult, len(pols))
	sim := simulator{opt.ctx(), cfg}
	if err := forEachOpt(opt, len(pols), func(i int) error {
		res, err := testPolicy(sim, pols[i], test, opt.Seed+3)
		results[i] = res
		return err
	}); err != nil {
		return nil, err
	}

	out := &Fig7Result{}
	for i, pol := range pols {
		res := results[i]
		counts := map[string][soc.NumModes]int64{}
		for _, inv := range res.AllInvocations() {
			for _, key := range []string{"all", sizeClassOf(inv, cfg).String()} {
				c := counts[key]
				c[inv.Mode]++
				counts[key] = c
			}
		}
		for _, size := range []string{"all", "S", "M", "L", "XL"} {
			c, ok := counts[size]
			if !ok {
				continue
			}
			row := Fig7Row{Policy: pol.Name(), Size: size, Decision: c}
			var total int64
			for _, n := range c {
				total += n
			}
			if total > 0 {
				for m := range c {
					row.Percent[m] = 100 * float64(c[m]) / float64(total)
				}
			}
			out.Rows = append(out.Rows, row)
		}
	}
	return out, nil
}

// Render formats the breakdown.
func (r *Fig7Result) Render() string {
	t := &Table{
		Title:  "Figure 7 — breakdown of coherence decisions (% of invocations)",
		Header: []string{"policy (size)", "non-coh", "llc-coh", "coh-dma", "full-coh"},
	}
	for _, row := range r.Rows {
		t.AddRow(fmt.Sprintf("%s (%s)", row.Policy, row.Size),
			f1(row.Percent[soc.NonCohDMA]), f1(row.Percent[soc.LLCCohDMA]),
			f1(row.Percent[soc.CohDMA]), f1(row.Percent[soc.FullyCoh]))
	}
	t.AddNote("paper: both rely heavily on coh-dma and non-coh-dma; cohmeleon shifts S/M/L decisions away from non-coh toward the LLC modes")
	return t.Render()
}
