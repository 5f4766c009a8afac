package workload

import (
	"fmt"
	"strconv"

	"cohmeleon/internal/sim"
	"cohmeleon/internal/soc"
)

// GenConfig controls the random application generator. Zero values take
// the defaults noted per field.
type GenConfig struct {
	// MaxThreads per phase (default 8, clamped to 12).
	MaxThreads int
	// MaxChain is the longest accelerator chain per thread (default 3).
	MaxChain int
	// MaxLoops per thread (default 3).
	MaxLoops int
	// MinInvocations keeps adding phases until the app reaches this many
	// accelerator invocations (default 300, the paper's "over 300
	// accelerator invocations" per training iteration).
	MinInvocations int
	// Classes restricts workload sizes (default: all four).
	Classes []SizeClass
}

func (g GenConfig) withDefaults() GenConfig {
	if g.MaxThreads <= 0 {
		g.MaxThreads = 8
	}
	if g.MaxThreads > 12 {
		g.MaxThreads = 12
	}
	if g.MaxChain <= 0 {
		g.MaxChain = 3
	}
	if g.MaxLoops <= 0 {
		g.MaxLoops = 3
	}
	if g.MinInvocations <= 0 {
		g.MinInvocations = 300
	}
	if len(g.Classes) == 0 {
		g.Classes = []SizeClass{Small, Medium, Large, ExtraLarge}
	}
	return g
}

// minFootprintBytes is the smallest dataset any thread works on.
const minFootprintBytes = 4 << 10

// classRange returns the footprint bounds of a class on a SoC. The
// nominal bands follow the paper's definition (Small fits the private
// L2, Medium one LLC partition, Large the aggregate LLC, Extra-Large
// three times that), but randomized topologies produce degenerate
// geometries — an L2 bigger than an LLC slice inverts the Medium band,
// a single memory tile collapses Large onto Medium — so empty bands are
// merged to their lower boundary (the sampled footprint then classifies
// as the next class up) and the upper bound is capped at DRAM capacity.
// A class is impossible, and reported as an error, when even its lower
// boundary exceeds what the SoC's DRAM can allocate.
func classRange(c SizeClass, cfg *soc.Config) (lo, hi int64, err error) {
	switch c {
	case Small:
		lo, hi = minFootprintBytes, cfg.L2Bytes()
	case Medium:
		lo, hi = cfg.L2Bytes()+1, cfg.LLCSliceBytes()
	case Large:
		lo, hi = cfg.LLCSliceBytes()+1, cfg.TotalLLCBytes()
	case ExtraLarge:
		lo, hi = cfg.TotalLLCBytes()+1, 3*cfg.TotalLLCBytes()
	default:
		return 0, 0, fmt.Errorf("workload: unknown size class %d", int(c))
	}
	if lo < minFootprintBytes {
		lo = minFootprintBytes
	}
	if dram := cfg.DRAMBytes(); dram > 0 {
		if lo > dram {
			return 0, 0, fmt.Errorf("workload: size class %v impossible on %s: needs ≥ %d bytes, DRAM holds %d",
				c, cfg.Name, lo, dram)
		}
		if hi > dram {
			hi = dram
		}
	}
	if hi < lo {
		hi = lo // degenerate band: merge onto the lower boundary
	}
	return lo, hi, nil
}

// sampleBytes draws a footprint uniformly within the class, rounded to
// whole KB. Class bounds sit one byte past a cache size, so rounding
// down would drop boundary draws back into the class below (a Medium
// draw of L2+5 bytes must not become exactly L2); those round up
// instead, which never exceeds the DRAM cap because capacities are
// KB-aligned.
func sampleBytes(c SizeClass, cfg *soc.Config, rng *sim.RNG) (int64, error) {
	lo, hi, err := classRange(c, cfg)
	if err != nil {
		return 0, err
	}
	b := lo + rng.Int63n(hi-lo+1)
	if b < minFootprintBytes {
		b = minFootprintBytes
	}
	if down := (b >> 10) << 10; down >= lo {
		b = down
	} else {
		b = ((lo + (1 << 10) - 1) >> 10) << 10
	}
	return b, nil
}

// ClassFeasible reports whether the size class can be sampled on the
// SoC's memory geometry (nil), or why it cannot. Generate can only
// fail on infeasible classes, so a class set filtered through this
// check makes generation infallible for every seed.
func ClassFeasible(c SizeClass, cfg *soc.Config) error {
	_, _, err := classRange(c, cfg)
	return err
}

// randomThread draws one thread spec.
func randomThread(name string, cfg *soc.Config, g GenConfig, class SizeClass, rng *sim.RNG) (ThreadSpec, error) {
	chainLen := 1 + rng.Intn(g.MaxChain)
	chain := make([]string, chainLen)
	for i := range chain {
		chain[i] = cfg.Accs[rng.Intn(len(cfg.Accs))].InstName
	}
	bytes, err := sampleBytes(class, cfg, rng)
	if err != nil {
		return ThreadSpec{}, err
	}
	return ThreadSpec{
		Name:             name,
		FootprintBytes:   bytes,
		Chain:            chain,
		Loops:            2 + rng.Intn(g.MaxLoops), // accelerators are invoked repeatedly per thread
		RewriteFraction:  0.25,
		ReadbackFraction: 0.25,
	}, nil
}

// Generate builds a randomized evaluation application for the SoC. The
// same (cfg, g, seed) triple always yields the same app; different
// seeds yield the "different instances of the evaluation application"
// the paper trains and tests on. It fails when a requested size class
// is impossible on the SoC's memory geometry.
func Generate(cfg *soc.Config, g GenConfig, seed uint64) (*App, error) {
	g = g.withDefaults()
	rng := sim.NewRNG(seed ^ 0x10ad5eed)
	app := &App{Name: fmt.Sprintf("%s-gen-%d", cfg.Name, seed)}
	// Phases collect on the stack, up to the generator's cap of 64, and
	// are copied out once at their final count.
	var phases [64]PhaseSpec
	n, invocations := 0, 0
	for ; invocations < g.MinInvocations && n < len(phases); n++ {
		threads := 1 + rng.Intn(g.MaxThreads)
		phase := PhaseSpec{Name: "phase-" + strconv.Itoa(n), Threads: make([]ThreadSpec, 0, threads)}
		for ti := 0; ti < threads; ti++ {
			class := g.Classes[rng.Intn(len(g.Classes))]
			ts, err := randomThread("t"+strconv.Itoa(ti), cfg, g, class, rng)
			if err != nil {
				return nil, err
			}
			invocations += ts.Invocations()
			phase.Threads = append(phase.Threads, ts)
		}
		phases[n] = phase
	}
	app.Phases = append([]PhaseSpec(nil), phases[:n]...)
	return app, nil
}
