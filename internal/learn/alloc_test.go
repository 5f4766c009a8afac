//go:build !race

package learn

// Zero-allocation guards for the learner hot path, the PR-2 kernel
// discipline applied to the decide/update cycle: every accelerator
// invocation crosses it, so a stray allocation here taxes the whole
// simulator. The race detector's shadow allocations would trip the
// guards, so they run only in non-race builds (CI runs them as a
// dedicated step).

import (
	"testing"

	"cohmeleon/internal/sim"
	"cohmeleon/internal/soc"
)

// The default algorithm's steady-state decide+update must not
// allocate: a state's table row is allocated once, on its first update
// (AllocsPerRun's warm-up call touches every state the loop visits),
// lookups then index that row, and the ε-greedy branch draws from a
// value-type RNG.
func TestZeroAllocDefaultDecideUpdate(t *testing.T) {
	a := NewEpsilonGreedyQ()
	rng := sim.NewRNG(3)
	got := testing.AllocsPerRun(200, func() {
		for i := 0; i < 32; i++ {
			s := State(i % NumStates)
			m := a.Decide(rng, s, soc.UniformActions[:], 0.4)
			a.Update(rng, s, m, 0.5, 0.25)
		}
	})
	if got != 0 {
		t.Fatalf("default decide/update allocates %.1f per 32-decision batch, want 0", got)
	}
}

// Featurizing a context is pure arithmetic over the sensed fields.
func TestZeroAllocFeaturize(t *testing.T) {
	e := NewEncoder()
	ctx := ctxWith(1, 1, 0.5, 64<<10, 128<<10)
	got := testing.AllocsPerRun(200, func() {
		for i := 0; i < 32; i++ {
			_ = e.Featurize(ctx)
		}
	})
	if got != 0 {
		t.Fatalf("featurize allocates %.1f per 32-context batch, want 0", got)
	}
}
