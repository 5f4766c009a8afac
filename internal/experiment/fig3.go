package experiment

import (
	"fmt"

	"cohmeleon/internal/esp"
	"cohmeleon/internal/policy"
	"cohmeleon/internal/sim"
	"cohmeleon/internal/soc"
	"cohmeleon/internal/stats"
)

// Fig3Point is one bar pair of Figure 3: average normalized performance
// with n accelerators running concurrently under one mode.
type Fig3Point struct {
	Accs     int
	Mode     soc.Mode
	NormExec float64
	NormMem  float64
}

// Fig3Result reproduces Figure 3: performance degradation as 1, 4, 8
// and 12 accelerators (three instances each of FFT, night-vision, sort,
// SPMV) run 256 kB workloads concurrently.
type Fig3Result struct {
	Points []Fig3Point
}

var fig3Counts = []int{1, 4, 8, 12}

// Figure3 runs the parallel-execution study on the motivation SoC.
func Figure3(opt Options) (*Fig3Result, error) {
	cfg := withProtocol(soc.MotivationParallel(), opt)
	const bytes = 256 << 10
	types := []string{}
	seen := map[string]bool{}
	for _, a := range cfg.Accs {
		if !seen[a.Spec.Name] {
			seen[a.Spec.Name] = true
			types = append(types, a.Spec.Name)
		}
	}

	// Baseline: each type alone under non-coherent DMA. The four
	// baselines and, afterwards, all (count, mode) cells are independent
	// simulations on fresh SoCs; both batches fan out on the worker pool.
	baseExec := map[string]float64{}
	baseMem := map[string]float64{}
	baseE := make([]map[string]float64, len(types))
	baseM := make([]map[string]float64, len(types))
	if err := forEachOpt(opt, len(types), func(i int) error {
		var err error
		baseE[i], baseM[i], err = fig3Measure(cfg, []string{types[i] + ".0"}, soc.NonCohDMA, bytes, opt)
		return err
	}); err != nil {
		return nil, err
	}
	for i, tn := range types {
		baseExec[tn] = baseE[i][tn]
		baseMem[tn] = baseM[i][tn]
	}

	// One cell per (count, mode). An n==1 cell averages one solo trial
	// per type; an n>1 cell is a single trial whose result carries every
	// type. Each trial writes only its own (cell, type) slots.
	nM := int(soc.NumModes)
	nT := len(types)
	cells := len(fig3Counts) * nM
	execVals := make([]float64, cells*nT)
	memVals := make([]float64, cells*nT)
	if err := forEachOpt(opt, cells*nT, func(t int) error {
		i, ti := t/nT, t%nT
		n := fig3Counts[i/nM]
		mode := soc.AllModes[i%nM]
		if n == 1 {
			// One accelerator at a time, averaged over the four types.
			tn := types[ti]
			e, m, err := fig3Measure(cfg, []string{tn + ".0"}, mode, bytes, opt)
			if err != nil {
				return err
			}
			execVals[t] = stats.Ratio(e[tn], baseExec[tn])
			memVals[t] = stats.Ratio(m[tn], baseMem[tn])
			return nil
		}
		if ti != 0 {
			return nil // concurrent cell: the ti==0 trial covers all types
		}
		// n/4 instances of each type run concurrently.
		var insts []string
		for k := 0; k < n/nT; k++ {
			for _, name := range types {
				insts = append(insts, fmt.Sprintf("%s.%d", name, k))
			}
		}
		e, m, err := fig3Measure(cfg, insts, mode, bytes, opt)
		if err != nil {
			return err
		}
		for tj, tn := range types {
			execVals[i*nT+tj] = stats.Ratio(e[tn], baseExec[tn])
			memVals[i*nT+tj] = stats.Ratio(m[tn], baseMem[tn])
		}
		return nil
	}); err != nil {
		return nil, err
	}

	out := &Fig3Result{}
	for i := 0; i < cells; i++ {
		out.Points = append(out.Points, Fig3Point{
			Accs: fig3Counts[i/nM], Mode: soc.AllModes[i%nM],
			NormExec: stats.Mean(execVals[i*nT : (i+1)*nT]),
			NormMem:  stats.Mean(memVals[i*nT : (i+1)*nT]),
		})
	}
	return out, nil
}

// fig3Measure runs the listed accelerator instances concurrently (each
// invoked opt.Runs+1 times in a row from its own thread, first warm-up
// measured too, as on the FPGA) and returns the mean invocation exec
// and off-chip per accelerator type. Setup failures inside the
// simulation threads (allocation, instance lookup) surface as errors
// through the experiment result rather than tearing the process down.
func fig3Measure(cfg *soc.Config, insts []string, mode soc.Mode, bytes int64, opt Options) (map[string]float64, map[string]float64, error) {
	s, err := build(cfg)
	if err != nil {
		return nil, nil, err
	}
	sys := esp.NewSystem(s, policy.NewFixed(mode))
	execSum := map[string]float64{}
	memSum := map[string]float64{}
	count := map[string]float64{}

	var procErr error
	wg := sim.NewWaitGroup(s.Eng)
	for ti, inst := range insts {
		inst := inst
		ti := ti
		wg.Add(1)
		s.Eng.Go("fig3:"+inst, func(p *sim.Proc) {
			defer wg.Done()
			buf, err := s.Heap.Alloc(bytes)
			if err != nil {
				if procErr == nil {
					procErr = fmt.Errorf("fig3 %s: %w", inst, err)
				}
				return
			}
			a, err := s.AccByName(inst)
			if err != nil {
				if procErr == nil {
					procErr = err
				}
				return
			}
			rng := sim.NewRNG(opt.Seed + uint64(ti))
			cpuTile := s.CPUs[ti%len(s.CPUs)]
			s.CPUPool.Acquire(p)
			p.WaitUntil(s.CPUTouchRange(cpuTile, buf, 0, buf.Lines(), true, p.Now(), &soc.Meter{}))
			for r := 0; r < opt.Runs+1; r++ {
				res := sys.InvokeWithMode(p, a, buf, mode, s.CPUPool, rng.Split())
				execSum[a.Spec.Name] += float64(res.ExecCycles)
				memSum[a.Spec.Name] += float64(res.OffChipTrue)
				count[a.Spec.Name]++
			}
			s.CPUPool.Release()
		})
	}
	s.Eng.Go("fig3:join", func(p *sim.Proc) { wg.Wait(p) })
	if err := s.Eng.Run(); err != nil {
		return nil, nil, err
	}
	if procErr != nil {
		return nil, nil, procErr
	}
	releaseEngine(s.Eng)
	for k := range execSum {
		execSum[k] /= count[k]
		memSum[k] /= count[k]
	}
	return execSum, memSum, nil
}

// Render formats the figure.
func (r *Fig3Result) Render() string {
	t := &Table{
		Title:  "Figure 3 — parallel accelerator execution (normalized to 1-acc non-coh-dma)",
		Header: []string{"accs", "mode", "norm exec", "norm off-chip"},
	}
	for _, p := range r.Points {
		t.AddRow(fmt.Sprintf("%d", p.Accs), p.Mode.String(), f2(p.NormExec), f2(p.NormMem))
	}
	t.AddNote("paper: non-coh suffers least under contention (≤2.4x at 12 accs); coh-dma degrades worst (~8x)")
	return t.Render()
}
