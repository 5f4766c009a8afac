package experiment

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"cohmeleon/internal/esp"
	"cohmeleon/internal/faultinject"
	"cohmeleon/internal/policy"
	"cohmeleon/internal/soc"
)

func TestForEachRunsEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 3, 8} {
		n := 23
		counts := make([]int64, n)
		if err := forEach(context.Background(), workers, n, func(i int) error {
			atomic.AddInt64(&counts[i], 1)
			return nil
		}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, c)
			}
		}
	}
}

func TestForEachReturnsLowestIndexError(t *testing.T) {
	errA := errors.New("a")
	errB := errors.New("b")
	err := forEach(context.Background(), 4, 10, func(i int) error {
		switch i {
		case 3:
			return errB
		case 2:
			return errA
		}
		return nil
	})
	if err != errA {
		t.Fatalf("got %v, want the lowest-index error %v", err, errA)
	}
}

// TestForEachFailFast proves an errored fan-out stops handing out new
// indices: with one worker the sequential order makes the cut exact —
// nothing after the failing index may run.
func TestForEachFailFast(t *testing.T) {
	boom := errors.New("boom")
	var ran int64
	err := forEach(context.Background(), 1, 100, func(i int) error {
		atomic.AddInt64(&ran, 1)
		if i == 4 {
			return boom
		}
		return nil
	})
	if err != boom {
		t.Fatalf("got %v, want %v", err, boom)
	}
	if ran != 5 {
		t.Fatalf("sequential fail-fast ran %d trials, want 5", ran)
	}
}

// TestForEachFailFastParallel bounds the over-dispatch after a failure:
// trial 0 errors immediately while every other trial takes ~1ms, so by
// the time any worker finishes its first trial the failure flag is set
// and only the handful of trials dispatched before it may still run.
func TestForEachFailFastParallel(t *testing.T) {
	boom := errors.New("boom")
	const n, workers = 1000, 4
	var ran int64
	err := forEach(context.Background(), workers, n, func(i int) error {
		atomic.AddInt64(&ran, 1)
		if i == 0 {
			return boom
		}
		time.Sleep(time.Millisecond)
		return nil
	})
	if err != boom {
		t.Fatalf("got %v, want %v", err, boom)
	}
	// Without fail-fast all 1000 trials run; with it, only the in-flight
	// ones (bounded by the worker count, with slack for dispatch races).
	if got := atomic.LoadInt64(&ran); got >= 50 {
		t.Fatalf("fail-fast still dispatched %d of %d trials", got, n)
	}
}

// TestForEachCancellation checks the cooperative-cancel contract: after
// ctx is cancelled no new index is dispatched, in-flight trials finish,
// and the returned error wraps context.Canceled.
func TestForEachCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var ran int64
	err := forEach(ctx, 2, 100, func(i int) error {
		atomic.AddInt64(&ran, 1)
		if i == 1 {
			cancel()
			return nil
		}
		// Every other trial takes ~1ms, so the cancel from trial 1 lands
		// while the fan-out has barely started.
		time.Sleep(time.Millisecond)
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want a context.Canceled wrap", err)
	}
	if got := atomic.LoadInt64(&ran); got >= 50 {
		t.Fatalf("cancellation still dispatched %d trials", got)
	}
}

// TestForEachCancelledBeforeStart dispatches nothing on a dead context.
func TestForEachCancelledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		var ran int64
		err := forEach(ctx, workers, 10, func(i int) error {
			atomic.AddInt64(&ran, 1)
			return nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: got %v, want context.Canceled", workers, err)
		}
		if ran != 0 {
			t.Fatalf("workers=%d: dead context still ran %d trials", workers, ran)
		}
	}
}

// TestForEachCancelAfterCompletionIsMoot: a cancellation that lands when
// every trial already completed must not fail the (whole) fan-out.
func TestForEachCancelAfterCompletionIsMoot(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	n := 8
	var ran int64
	err := forEach(ctx, 4, n, func(i int) error {
		if atomic.AddInt64(&ran, 1) == int64(n) {
			cancel() // last trial: results are whole
		}
		return nil
	})
	if err != nil {
		t.Fatalf("complete fan-out reported %v", err)
	}
}

// TestForEachErrorBeatsCancellation: when a trial failed and the context
// was also cancelled, the trial error wins (it is the actionable one).
func TestForEachErrorBeatsCancellation(t *testing.T) {
	boom := errors.New("boom")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	err := forEach(ctx, 3, 50, func(i int) error {
		if i == 2 {
			cancel()
			return boom
		}
		return nil
	})
	if err != boom {
		t.Fatalf("got %v, want the trial error %v", err, boom)
	}
}

func TestForEachPropagatesPanicValue(t *testing.T) {
	type payload struct{ code int }
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected the worker panic to reach the caller")
		}
		tp, ok := r.(*TrialPanic)
		if !ok {
			t.Fatalf("panic re-raised as %T, want *TrialPanic", r)
		}
		if tp.Index != 5 {
			t.Fatalf("panic reports trial %d, want 5", tp.Index)
		}
		// The original panic value survives untouched, not a formatted
		// string of it.
		if v, ok := tp.Value.(payload); !ok || v.code != 42 {
			t.Fatalf("panic lost its payload: %#v", tp.Value)
		}
		if len(tp.Stack) == 0 {
			t.Fatal("panic lost the worker stack")
		}
	}()
	_ = forEach(context.Background(), 4, 8, func(i int) error {
		if i == 5 {
			panic(payload{code: 42})
		}
		return nil
	})
}

// TestForEachInjectedTrialFaults drives the pool through the faultinject
// trial point: an injected error fails fast, an injected panic re-raises
// with the injected value.
func TestForEachInjectedTrialFaults(t *testing.T) {
	faultinject.Enable(faultinject.NewScript(faultinject.Fail(faultinject.Trial, 3)))
	var ran int64
	err := forEach(context.Background(), 1, 10, func(i int) error {
		atomic.AddInt64(&ran, 1)
		return nil
	})
	faultinject.Disable()
	if err == nil {
		t.Fatal("injected trial fault did not surface")
	}
	if ran != 3 {
		t.Fatalf("injection at index 3 let %d trials run, want 3 (0..2)", ran)
	}

	faultinject.Enable(faultinject.NewScript(
		faultinject.Rule{Point: faultinject.Trial, N: 1, Action: faultinject.Action{Panic: "injected-panic"}}))
	defer faultinject.Disable()
	defer func() {
		r := recover()
		tp, ok := r.(*TrialPanic)
		if !ok || tp.Value != "injected-panic" {
			t.Fatalf("injected panic surfaced as %#v", r)
		}
	}()
	_ = forEach(context.Background(), 2, 4, func(i int) error { return nil })
}

// TestWorkersReportByteIdenticalFig5 proves the fan-out is inert for
// results: the same experiment rendered with Workers 1 and Workers 8
// must produce byte-identical reports.
func TestWorkersReportByteIdenticalFig5(t *testing.T) {
	seq := Tiny()
	seq.Workers = 1
	par := Tiny()
	par.Workers = 8

	a, err := Figure5(seq)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Figure5(par)
	if err != nil {
		t.Fatal(err)
	}
	if a.Render() != b.Render() {
		t.Fatalf("fig5 reports differ between Workers=1 and Workers=8:\n--- seq ---\n%s\n--- par ---\n%s",
			a.Render(), b.Render())
	}
}

// TestWorkersReportByteIdenticalHeadline is the full-protocol variant of
// the determinism check: the headline aggregate (Figure 9 across all
// seven SoCs plus the derived averages) rendered with Workers 1 and
// Workers 8 must match byte for byte. The two runs simulate every
// (SoC, policy) trial twice, so the test is skipped under -short.
func TestWorkersReportByteIdenticalHeadline(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full Tiny headline twice; skipped in -short")
	}
	seq := Tiny()
	seq.Workers = 1
	par := Tiny()
	par.Workers = 8

	a, err := Headline(seq)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Headline(par)
	if err != nil {
		t.Fatal(err)
	}
	if a.Fig9.Render() != b.Fig9.Render() {
		t.Fatal("fig9 reports differ between Workers=1 and Workers=8")
	}
	if a.Render() != b.Render() {
		t.Fatalf("headline reports differ between Workers=1 and Workers=8:\n--- seq ---\n%s\n--- par ---\n%s",
			a.Render(), b.Render())
	}
}

// panickyPolicy panics from Decide, which the ESP runtime calls inside a
// simulated thread process — on a kernel coroutine, not on the worker
// goroutine that runs the cell.
type panickyPolicy struct{ esp.Policy }

type simPanic struct{ code int }

func (panickyPolicy) Decide(*esp.Context) soc.Mode { panic(simPanic{code: 99}) }

// TestForEachSurfacesSimulatedProcessPanic: a panic raised inside a
// simulated process must reach forEach's recover on the worker that ran
// the cell and re-raise on the caller as a *TrialPanic with the original
// value, not kill the binary from a kernel goroutine.
func TestForEachSurfacesSimulatedProcessPanic(t *testing.T) {
	memoTestSetup(t)
	cfg, app := memoTestInputs(t)
	defer func() {
		tp, ok := recover().(*TrialPanic)
		if !ok {
			t.Fatal("simulated process panic did not surface as a *TrialPanic")
		}
		if tp.Index != 1 {
			t.Fatalf("panic reports trial %d, want 1", tp.Index)
		}
		if v, ok := tp.Value.(simPanic); !ok || v.code != 99 {
			t.Fatalf("panic lost its payload: %#v", tp.Value)
		}
	}()
	_ = forEach(context.Background(), 2, 4, func(i int) error {
		var pol esp.Policy = policy.NewFixed(soc.LLCCohDMA)
		if i == 1 {
			pol = panickyPolicy{pol}
		}
		_, err := runApp(context.Background(), cfg, pol, app, uint64(i))
		return err
	})
	t.Fatal("forEach returned instead of panicking")
}
