package experiment

import (
	"fmt"

	"cohmeleon/internal/core"
	"cohmeleon/internal/policy"
	"cohmeleon/internal/soc"
	"cohmeleon/internal/workload"
)

// Fig8Point is one sample of Figure 8: test performance after a given
// number of training iterations.
type Fig8Point struct {
	Schedule  int // total iterations of the decay schedule
	Iteration int // 0 = untrained (equivalent to Random)
	NormExec  float64
	NormMem   float64
}

// Fig8Result reproduces Figure 8: performance over training iterations
// for the 10/30/50-iteration decay schedules, alternating one training
// iteration with a frozen test on a different application instance.
type Fig8Result struct {
	Points []Fig8Point
}

// Figure8 runs the training-time study on SoC0.
func Figure8(opt Options) (*Fig8Result, error) {
	cfg := withProtocol(soc.SoC0(soc.TrafficMixed, opt.Seed), opt)
	train, err := workload.Generate(cfg, workload.GenConfig{MinInvocations: opt.MinInvocations}, opt.Seed+1000)
	if err != nil {
		return nil, err
	}
	test, err := workload.Generate(cfg, workload.GenConfig{MinInvocations: opt.MinInvocations}, opt.Seed+2000)
	if err != nil {
		return nil, err
	}

	sim := simulator{opt.ctx(), cfg}
	baseline, err := sim.run(policy.NewFixed(soc.NonCohDMA), test, opt.Seed+3)
	if err != nil {
		return nil, err
	}
	// Each decay schedule trains its own agent and must alternate train
	// and frozen-test sequentially (iteration i+1 learns from i), but the
	// schedules are independent of each other and fan out; their point
	// series are concatenated in option order afterwards.
	series := make([][]Fig8Point, len(opt.Fig8Schedules))
	if err := forEachOpt(opt, len(opt.Fig8Schedules), func(si int) error {
		schedule := opt.Fig8Schedules[si]
		agentCfg := agentConfig(opt)
		agentCfg.DecayIterations = schedule
		agent, err := core.New(agentCfg)
		if err != nil {
			return err
		}

		record := func(iter int) error {
			res, err := testPolicy(sim, agent, test, opt.Seed+3)
			if err != nil {
				return err
			}
			exec, mem := geoNormalized(res, baseline)
			series[si] = append(series[si], Fig8Point{
				Schedule: schedule, Iteration: iter, NormExec: exec, NormMem: mem,
			})
			return nil
		}
		// Iteration 0: the untrained model (equivalent to Random).
		if err := record(0); err != nil {
			return err
		}
		for i := 1; i <= schedule; i++ {
			if err := trainCohmeleon(sim, agent, train, 1, opt.Seed+uint64(i)); err != nil {
				return err
			}
			if err := record(i); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}

	out := &Fig8Result{}
	for _, s := range series {
		out.Points = append(out.Points, s...)
	}
	return out, nil
}

// Render formats one series per schedule.
func (r *Fig8Result) Render() string {
	mt := &MultiTable{}
	schedules := map[int]bool{}
	var order []int
	for _, p := range r.Points {
		if !schedules[p.Schedule] {
			schedules[p.Schedule] = true
			order = append(order, p.Schedule)
		}
	}
	for _, s := range order {
		t := &Table{
			Title:  fmt.Sprintf("Figure 8 — performance over training (%d-iteration schedule, normalized to fixed-non-coh-dma)", s),
			Header: []string{"iteration", "norm exec", "norm off-chip"},
		}
		for _, p := range r.Points {
			if p.Schedule == s {
				t.AddRow(fmt.Sprintf("%d", p.Iteration), f2(p.NormExec), f2(p.NormMem))
			}
		}
		mt.Tables = append(mt.Tables, t)
	}
	return mt.Render()
}
