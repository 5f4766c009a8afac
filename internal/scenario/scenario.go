// Package scenario samples randomized evaluation scenarios — a SoC
// topology drawn from soc.RandomConfig paired with a workload-generator
// configuration — from a declarative, seeded spec. The paper evaluates
// its learned policy on eight hand-built SoCs; a scenario set is the
// scaled-up version of that protocol: hundreds of (SoC, workload)
// combinations, each validated against the simulator's build
// invariants, reproducible from (spec, seed) alone. Disjoint seeds
// yield disjoint scenario sets, which is what makes the train-on-A /
// test-on-B transferability workflow meaningful.
package scenario

import (
	"fmt"

	"cohmeleon/internal/sim"
	"cohmeleon/internal/soc"
	"cohmeleon/internal/workload"
)

// seedStride separates per-scenario seed streams; the golden-ratio
// multiplier keeps consecutive scenario seeds far apart in the RNG's
// state space.
const seedStride = 0x9e3779b97f4a7c15

// Spec declaratively bounds the scenario sampler. The zero value is not
// useful; start from DefaultSpec.
type Spec struct {
	// SoC bounds the randomized topology generator.
	SoC soc.RandomSpec
	// MaxThreads..MaxLoops bound the per-scenario workload-generator
	// draw (each scenario samples its own values within these).
	MaxThreads, MaxChain, MaxLoops int
	// MinInvocations sizes each scenario's applications.
	MinInvocations int
	// Classes are the workload size classes scenarios may mix (empty =
	// all four).
	Classes []workload.SizeClass
}

// DefaultSpec spans the full default design space.
func DefaultSpec() Spec {
	return Spec{
		SoC:            soc.DefaultRandomSpec(),
		MaxThreads:     8,
		MaxChain:       3,
		MaxLoops:       3,
		MinInvocations: 300,
		Classes: []workload.SizeClass{
			workload.Small, workload.Medium, workload.Large, workload.ExtraLarge,
		},
	}
}

// Validate reports specification errors.
func (s Spec) Validate() error {
	if err := s.SoC.Validate(); err != nil {
		return err
	}
	if s.MaxThreads < 1 || s.MaxChain < 1 || s.MaxLoops < 1 {
		return fmt.Errorf("scenario: workload bounds (%d threads, %d chain, %d loops) must be ≥ 1",
			s.MaxThreads, s.MaxChain, s.MaxLoops)
	}
	if s.MinInvocations < 1 {
		return fmt.Errorf("scenario: MinInvocations %d must be ≥ 1", s.MinInvocations)
	}
	if len(s.Classes) == 0 {
		return fmt.Errorf("scenario: empty class set")
	}
	return nil
}

// Scenario is one sampled evaluation point: a SoC topology plus the
// workload-generator configuration its applications are drawn from.
type Scenario struct {
	// Index is the scenario's position in its sampled set.
	Index int
	// Cfg is the validated SoC configuration.
	Cfg *soc.Config
	// Gen drives workload generation for this scenario.
	Gen workload.GenConfig
	// Seed is the scenario's base seed; App offsets derive from it.
	Seed uint64
}

// App generates this scenario's application for a purpose offset
// (distinct offsets yield distinct instances — e.g. train vs test).
func (sc Scenario) App(offset uint64) (*workload.App, error) {
	return workload.Generate(sc.Cfg, sc.Gen, sc.Seed+offset)
}

// Sample draws n scenarios deterministically from (spec, seed): the
// same pair always yields the same set, and sets drawn from different
// seeds are disjoint with overwhelming probability. Scenario i is
// Draw(spec, i, seed), so a caller that visits scenarios one at a time
// can draw each where it is used instead of holding the set. No
// application is built here: feasibleClasses already makes every App
// offset of every scenario generate, so a smoke-built app would prove
// nothing more.
func Sample(spec Spec, n int, seed uint64) ([]Scenario, error) {
	if n < 1 {
		return nil, fmt.Errorf("scenario: sample count %d must be ≥ 1", n)
	}
	out := make([]Scenario, 0, n)
	for i := 0; i < n; i++ {
		sc, err := Draw(spec, i, seed)
		if err != nil {
			return nil, err
		}
		out = append(out, sc)
	}
	return out, nil
}

// Draw returns scenario i of the set Sample(spec, n, seed) draws, for
// any n > i: a pure function of (spec, i, seed). Its SoC passes
// soc.Config.Validate, and its class set is filtered to what the
// geometry can actually sample (feasibleClasses), which makes workload
// generation infallible for every App offset — so downstream sweeps
// never trip build or geometry errors mid-grid.
func Draw(spec Spec, i int, seed uint64) (Scenario, error) {
	if err := spec.Validate(); err != nil {
		return Scenario{}, err
	}
	if i < 0 {
		return Scenario{}, fmt.Errorf("scenario: index %d must be ≥ 0", i)
	}
	scSeed := seed + uint64(i)*seedStride
	cfg, err := soc.RandomConfig(fmt.Sprintf("scenario-%03d", i), spec.SoC, scSeed)
	if err != nil {
		return Scenario{}, fmt.Errorf("scenario %d: %w", i, err)
	}
	rng := sim.NewRNG(scSeed ^ 0x5ce7a110)
	classes, err := feasibleClasses(drawClasses(spec.Classes, rng), cfg)
	if err != nil {
		return Scenario{}, fmt.Errorf("scenario %d (%s): %w", i, cfg.Name, err)
	}
	gen := workload.GenConfig{
		MaxThreads:     1 + rng.Intn(spec.MaxThreads),
		MaxChain:       1 + rng.Intn(spec.MaxChain),
		MaxLoops:       1 + rng.Intn(spec.MaxLoops),
		MinInvocations: spec.MinInvocations,
		Classes:        classes,
	}
	return Scenario{Index: i, Cfg: cfg, Gen: gen, Seed: scSeed}, nil
}

// feasibleClasses drops classes the config's memory geometry cannot
// sample (workload.ClassFeasible). The class draw varies per workload
// seed, so a spot check of one generated app would not prove later
// App(offset) calls safe — only excluding infeasible classes up front
// does. An error is returned when nothing survives.
func feasibleClasses(classes []workload.SizeClass, cfg *soc.Config) ([]workload.SizeClass, error) {
	out := make([]workload.SizeClass, 0, len(classes))
	for _, c := range classes {
		if workload.ClassFeasible(c, cfg) == nil {
			out = append(out, c)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no feasible size class for this geometry")
	}
	return out, nil
}

// drawClasses picks a random non-empty subset of the allowed classes,
// preserving order.
func drawClasses(all []workload.SizeClass, rng *sim.RNG) []workload.SizeClass {
	out := make([]workload.SizeClass, 0, len(all))
	for _, c := range all {
		if rng.Float64() < 0.5 {
			out = append(out, c)
		}
	}
	if len(out) == 0 {
		out = append(out, all[rng.Intn(len(all))])
	}
	return out
}
