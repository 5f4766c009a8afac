package costmodel

import (
	"testing"

	"cohmeleon/internal/esp"
	"cohmeleon/internal/policy"
	"cohmeleon/internal/soc"
	"cohmeleon/internal/workload"
)

// unmarked hides every optional interface of the policy it wraps, the
// static marker included, so the estimator replays it in full: sensing,
// deciding and observing every invocation.
type unmarked struct{ esp.Policy }

// countingStatic keeps a static policy's marker and counts its Decide
// calls, to show the replay took the static branch.
type countingStatic struct {
	esp.StaticPolicy
	decides int
}

func (c *countingStatic) Decide(ctx *esp.Context) soc.Mode {
	c.decides++
	return c.StaticPolicy.Decide(ctx)
}

// unclamped is a static policy that breaks its contract: it chooses
// fully-coherent whether or not the tile offers it.
type unclamped struct{ *policy.Fixed }

func (unclamped) Decide(*esp.Context) soc.Mode { return soc.FullyCoh }

// TestStaticReplayMatchesGeneral: a static policy's replay — one
// decision per accelerator, then planned estimates summed — reproduces
// the full replay of the same policy with its marker hidden, bit for
// bit: the Run totals and every phase's cycles and off-chip count. The
// policies are the four fixed modes (fully-coherent clamps on SoC3's
// cacheless tiles) and a heterogeneous assignment, whose nonzero
// overhead pins that the static branch charges it. The apps are
// generated multi-phase apps whose threads rewrite and read back part
// of their data, and a ragged variant whose threads finish mid-phase.
func TestStaticReplayMatchesGeneral(t *testing.T) {
	m, err := Fit(syntheticSamples(200), "mesi")
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []*soc.Config{soc.SoC3(5), soc.SoC6()} {
		ex, err := NewExtractor(cfg)
		if err != nil {
			t.Fatal(err)
		}
		est := NewEstimator(ex, m)
		var apps []*workload.App
		// clamps: some app invokes a tile without a private cache.
		rewrite, readback, clamps := false, false, false
		for _, seed := range []uint64{3, 4, 1000} {
			app := testApp(t, est, seed)
			if len(app.Phases) < 2 {
				t.Fatalf("%s: app %d has %d phases, want several", cfg.Name, seed, len(app.Phases))
			}
			for _, ph := range app.Phases {
				for _, th := range ph.Threads {
					rewrite = rewrite || (th.RewriteFraction > 0 && th.Loops > 1)
					readback = readback || th.ReadbackFraction > 0
					for _, inst := range th.Chain {
						ai, _ := est.ex.AccIndex(inst)
						clamps = clamps || !cfg.Accs[ai].PrivateCache
					}
				}
			}
			apps = append(apps, app)
		}
		if !rewrite || !readback {
			t.Fatalf("%s: apps exercise rewrite=%v readback=%v, want both", cfg.Name, rewrite, readback)
		}
		if cfg.Name == "SoC3" && !clamps {
			t.Fatal("no SoC3 app invokes a cacheless tile: fully-coherent never clamps")
		}
		apps = append(apps, raggedApp(t, apps[0]))

		assignment := make(map[string]soc.Mode)
		for i := range cfg.Accs {
			assignment[cfg.Accs[i].Spec.Name] = soc.Mode((i + 1) % soc.NumModes)
		}
		pols := []esp.StaticPolicy{policy.NewFixedHeterogeneous(assignment, soc.CohDMA)}
		for _, mode := range []soc.Mode{soc.NonCohDMA, soc.LLCCohDMA, soc.CohDMA, soc.FullyCoh} {
			pols = append(pols, policy.NewFixed(mode))
		}
		for _, pol := range pols {
			for _, app := range apps {
				counted := &countingStatic{StaticPolicy: pol}
				got, err := est.Run(counted, app)
				if err != nil {
					t.Fatal(err)
				}
				if counted.decides != len(cfg.Accs) {
					t.Fatalf("%s %s on %s: %d decisions, want one per accelerator (%d)",
						cfg.Name, pol.Name(), app.Name, counted.decides, len(cfg.Accs))
				}
				want, err := est.Run(unmarked{pol}, app)
				if err != nil {
					t.Fatal(err)
				}
				if err := diffTotals(got, want); err != nil {
					t.Fatalf("%s %s on %s: %v", cfg.Name, pol.Name(), app.Name, err)
				}
				if err := est.Train(pol, app); err != nil {
					t.Fatal(err)
				}
			}
		}

		// The static branch keeps the full replay's availability check.
		if clamps {
			bad := unclamped{policy.NewFixed(soc.FullyCoh)}
			if _, err := est.Run(bad, apps[0]); err == nil {
				t.Fatalf("%s: a static policy choosing an unavailable mode ran without error", cfg.Name)
			}
			if err := est.Train(bad, apps[0]); err == nil {
				t.Fatalf("%s: training a static policy choosing an unavailable mode succeeded", cfg.Name)
			}
		}
	}
}
