// Package workload defines the evaluation applications of the paper
// (§5): multithreaded programs organized in phases; each phase runs a
// set of threads; each thread owns one dataset and drives a chain of
// accelerators serially over it, optionally looping. The package also
// provides the seeded random application generator used for training
// and testing, the four Figure-5 phases, and the case-study
// applications for SoC4/5/6.
package workload

import (
	"fmt"
	"io"
	"sort"

	"cohmeleon/internal/soc"
)

// SizeClass is the paper's workload-size characterization: Small fits
// the accelerator's L2, Medium one LLC partition, Large the aggregate
// LLC, and Extra-Large exceeds the LLC.
type SizeClass int

// Workload size classes.
const (
	Small SizeClass = iota
	Medium
	Large
	ExtraLarge
	NumSizeClasses
)

// String names the class as in Figure 7.
func (c SizeClass) String() string {
	switch c {
	case Small:
		return "S"
	case Medium:
		return "M"
	case Large:
		return "L"
	case ExtraLarge:
		return "XL"
	default:
		return fmt.Sprintf("SizeClass(%d)", int(c))
	}
}

// Classify buckets a footprint per the paper's definition for a SoC.
func Classify(bytes int64, cfg *soc.Config) SizeClass {
	switch {
	case bytes <= cfg.L2Bytes():
		return Small
	case bytes <= cfg.LLCSliceBytes():
		return Medium
	case bytes <= cfg.TotalLLCBytes():
		return Large
	default:
		return ExtraLarge
	}
}

// ClassBytes returns a representative footprint for a class on a SoC:
// the class midpoint (Small uses half the L2, ExtraLarge four times the
// aggregate LLC ceiling of Large).
func ClassBytes(c SizeClass, cfg *soc.Config) int64 {
	switch c {
	case Small:
		return cfg.L2Bytes() / 2
	case Medium:
		return (cfg.L2Bytes() + cfg.LLCSliceBytes()) / 2
	case Large:
		return (cfg.LLCSliceBytes() + cfg.TotalLLCBytes()) / 2
	default:
		return cfg.TotalLLCBytes() * 2
	}
}

// ThreadSpec is one software thread: a dataset and a chain of
// accelerator invocations operating serially on it.
type ThreadSpec struct {
	Name string
	// FootprintBytes is the dataset size.
	FootprintBytes int64
	// Chain lists accelerator instance names invoked in order.
	Chain []string
	// Loops repeats the chain (≥1).
	Loops int
	// RewriteFraction of the dataset is re-initialized by the CPU between
	// loops (producing fresh inputs).
	RewriteFraction float64
	// ReadbackFraction of the dataset is read by the CPU after the final
	// loop (consuming outputs).
	ReadbackFraction float64
}

// Invocations returns the number of accelerator invocations the thread
// performs.
func (t *ThreadSpec) Invocations() int { return len(t.Chain) * t.Loops }

// Validate reports specification errors against a SoC configuration.
func (t *ThreadSpec) Validate(cfg *soc.Config) error {
	if t.FootprintBytes <= 0 {
		return fmt.Errorf("workload: thread %s with footprint %d", t.Name, t.FootprintBytes)
	}
	if t.Loops < 1 {
		return fmt.Errorf("workload: thread %s with %d loops", t.Name, t.Loops)
	}
	if len(t.Chain) == 0 {
		return fmt.Errorf("workload: thread %s with empty chain", t.Name)
	}
	// A linear scan, not a name set: chains are a few links long and
	// configurations hold at most a few dozen accelerators, and the
	// analytical replay validates the same app on every run.
	for _, inst := range t.Chain {
		if !hasAcc(cfg, inst) {
			return fmt.Errorf("workload: thread %s references unknown accelerator %q", t.Name, inst)
		}
	}
	if t.RewriteFraction < 0 || t.RewriteFraction > 1 || t.ReadbackFraction < 0 || t.ReadbackFraction > 1 {
		return fmt.Errorf("workload: thread %s with bad touch fractions", t.Name)
	}
	return nil
}

// hasAcc reports whether cfg holds an accelerator instance named inst.
func hasAcc(cfg *soc.Config, inst string) bool {
	for i := range cfg.Accs {
		if cfg.Accs[i].InstName == inst {
			return true
		}
	}
	return false
}

// PhaseSpec is one application phase: threads launched together; the
// phase ends when all finish.
type PhaseSpec struct {
	Name    string
	Threads []ThreadSpec
}

// Invocations returns the phase's total invocation count.
func (p *PhaseSpec) Invocations() int {
	n := 0
	for i := range p.Threads {
		n += p.Threads[i].Invocations()
	}
	return n
}

// App is a complete evaluation application: phases run sequentially.
type App struct {
	Name   string
	Phases []PhaseSpec
}

// Invocations returns the app's total invocation count.
func (a *App) Invocations() int {
	n := 0
	for i := range a.Phases {
		n += a.Phases[i].Invocations()
	}
	return n
}

// Footprints returns the distinct thread footprints of the app in
// ascending order — the inputs at which an accelerator's Reuse function
// can be evaluated during a run (content-keyed memoization probes it
// exactly there).
func (a *App) Footprints() []int64 {
	seen := make(map[int64]bool)
	var out []int64
	for pi := range a.Phases {
		for ti := range a.Phases[pi].Threads {
			fp := a.Phases[pi].Threads[ti].FootprintBytes
			if !seen[fp] {
				seen[fp] = true
				out = append(out, fp)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// HashContent writes a canonical encoding of the complete application
// specification to w, for content-keyed memoization of simulation runs.
func (a *App) HashContent(w io.Writer) {
	fmt.Fprintf(w, "app|%s|%d\n", a.Name, len(a.Phases))
	for pi := range a.Phases {
		p := &a.Phases[pi]
		fmt.Fprintf(w, "phase|%s|%d\n", p.Name, len(p.Threads))
		for ti := range p.Threads {
			t := &p.Threads[ti]
			fmt.Fprintf(w, "thread|%s|%d|%d|%g|%g|%d\n",
				t.Name, t.FootprintBytes, t.Loops,
				t.RewriteFraction, t.ReadbackFraction, len(t.Chain))
			for _, inst := range t.Chain {
				fmt.Fprintf(w, "inv|%s\n", inst)
			}
		}
	}
}

// Validate checks every thread against the SoC configuration.
func (a *App) Validate(cfg *soc.Config) error {
	if len(a.Phases) == 0 {
		return fmt.Errorf("workload: app %s has no phases", a.Name)
	}
	for i := range a.Phases {
		for j := range a.Phases[i].Threads {
			if err := a.Phases[i].Threads[j].Validate(cfg); err != nil {
				return err
			}
		}
	}
	return nil
}
