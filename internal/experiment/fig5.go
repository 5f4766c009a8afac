package experiment

import (
	"cohmeleon/internal/core"
	"cohmeleon/internal/soc"
	"cohmeleon/internal/stats"
	"cohmeleon/internal/workload"
)

// Fig5Cell is one bar pair of Figure 5: a policy's normalized execution
// time and off-chip accesses for one phase.
type Fig5Cell struct {
	Phase    string
	Policy   string
	NormExec float64
	NormMem  float64
}

// Fig5Result reproduces Figure 5: the four selected phases of the
// evaluation application on SoC0 under all eight policies, normalized
// per phase to the fixed non-coherent-DMA policy.
type Fig5Result struct {
	Phases   []string
	Policies []string
	Cells    []Fig5Cell
}

// Figure5 runs the phase analysis.
func Figure5(opt Options) (*Fig5Result, error) {
	cfg := withProtocol(soc.SoC0(soc.TrafficMixed, opt.Seed), opt)
	test, err := workload.Figure5App(cfg, opt.Seed+2000)
	if err != nil {
		return nil, err
	}
	policies, err := policySet(cfg, opt, core.DefaultWeights())
	if err != nil {
		return nil, err
	}

	// The eight test trials are independent (fresh SoC each, policies
	// trained above) and fan out; cells are assembled in policy order
	// against the indexed results, normalized to the first policy.
	results := make([]*workload.AppResult, len(policies))
	sim := simulator{opt.ctx(), cfg}
	if err := forEachOpt(opt, len(policies), func(i int) error {
		res, err := testPolicy(sim, policies[i], test, opt.Seed+3)
		results[i] = res
		return err
	}); err != nil {
		return nil, err
	}

	out := &Fig5Result{}
	baseline := results[0] // first policy is fixed-non-coh-dma
	for i, pol := range policies {
		res := results[i]
		out.Policies = append(out.Policies, pol.Name())
		for pi := range res.Phases {
			if len(out.Phases) < len(res.Phases) {
				out.Phases = append(out.Phases, res.Phases[pi].Name)
			}
			out.Cells = append(out.Cells, Fig5Cell{
				Phase:    res.Phases[pi].Name,
				Policy:   pol.Name(),
				NormExec: stats.Ratio(float64(res.Phases[pi].Cycles), float64(baseline.Phases[pi].Cycles)),
				NormMem:  stats.Ratio(float64(res.Phases[pi].OffChip), float64(baseline.Phases[pi].OffChip)),
			})
		}
	}
	return out, nil
}

// Cell returns the measurement for a phase and policy.
func (r *Fig5Result) Cell(phase, pol string) (Fig5Cell, bool) {
	for _, c := range r.Cells {
		if c.Phase == phase && c.Policy == pol {
			return c, true
		}
	}
	return Fig5Cell{}, false
}

// Render formats one row per policy per phase.
func (r *Fig5Result) Render() string {
	mt := &MultiTable{}
	for _, phase := range r.Phases {
		t := &Table{
			Title:  "Figure 5 — " + phase + " (normalized to fixed-non-coh-dma)",
			Header: []string{"policy", "norm exec", "norm off-chip"},
		}
		for _, pol := range r.Policies {
			if c, ok := r.Cell(phase, pol); ok {
				t.AddRow(pol, f2(c.NormExec), f2(c.NormMem))
			}
		}
		mt.Tables = append(mt.Tables, t)
	}
	return mt.Render()
}
