package experiment

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"cohmeleon/internal/faultinject"
)

// This file implements the worker pool the experiments fan out on.
//
// Every experiment in this package decomposes into independent trials:
// each trial builds a fresh SoC (hardware state never survives a
// measurement), owns its policy instances, and draws from seeds assigned
// before the fan-out. Trials therefore neither share mutable state nor
// depend on execution order, and reports assembled from the indexed
// results are byte-identical to the sequential run. Only the training
// loop of a single agent is inherently sequential (iteration i+1 learns
// from iteration i); independent (SoC, policy, seed, reward-weight)
// combinations fan out.
//
// The pool is also where cancellation and fail-fast live: dispatch stops
// handing out new indices once the context is cancelled or any trial has
// failed. Trials already in flight either run to completion (and their
// results still checkpoint) or cut out early at their own app-run
// boundaries, which observe the same context. Cancellation is checked
// only at those boundaries — never inside the simulator — so an
// uncancelled run pays one ctx.Err() load per trial and stays
// byte-identical.

// workers resolves the configured worker count.
func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// TrialPanic is the value a fan-out re-panics with when a worker trial
// panicked: the original panic value survives in Value (a recovering
// caller can inspect or re-raise it), with the trial index and worker
// stack alongside for diagnosis.
type TrialPanic struct {
	Index int
	Value interface{}
	Stack []byte
}

func (p *TrialPanic) String() string {
	return fmt.Sprintf("experiment: trial %d panicked: %v\n%s", p.Index, p.Value, p.Stack)
}

// interruptedErr marks a fan-out cut short by context cancellation;
// errors.Is sees through it to context.Canceled / DeadlineExceeded.
func interruptedErr(ctx context.Context, done, n int) error {
	return fmt.Errorf("experiment: interrupted after %d/%d trials: %w", done, n, ctx.Err())
}

// Gate bounds the cells in flight across every fan-out sharing it —
// the serve layer's cross-job cell budget. A nil Gate admits
// everything. Gates must not be held across nested fan-outs (an outer
// trial waiting on inner trials of the same gate can deadlock); the
// experiments that accept one (sweep, learners) run flat cell loops.
type Gate chan struct{}

// NewGate returns a gate admitting up to n concurrent cells.
func NewGate(n int) Gate { return make(Gate, n) }

// acquire blocks until a slot frees or the context is cancelled.
func (g Gate) acquire(ctx context.Context) error {
	if g == nil {
		return nil
	}
	select {
	case g <- struct{}{}:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("experiment: cell aborted waiting for admission: %w", ctx.Err())
	}
}

// release frees a slot.
func (g Gate) release() {
	if g != nil {
		<-g
	}
}

// InFlight reports the cells currently holding the gate.
func (g Gate) InFlight() int { return len(g) }

// fanout bundles the dispatch controls run threads to every trial:
// context, worker budget, admission gate, and cell retry policy.
type fanout struct {
	ctx     context.Context
	workers int
	retry   *RetryPolicy
	gate    Gate
}

// run runs fn(i) for every i in [0, n) on up to f.workers goroutines
// and waits for the ones it started. Dispatch is fail-fast: once any
// trial errors or panics, or ctx is cancelled, no new index is handed
// out; in-flight trials finish. Errors are collected per index and the
// lowest-index one is returned, matching what a sequential loop that
// stopped at the first failure would have reported; a cancellation with
// no trial error returns an error wrapping ctx.Err() — unless every
// trial already completed, in which case the fan-out (and its results)
// are whole and the cancellation is moot. A panicking task does not tear
// down the process from a bare goroutine: the panic is captured and
// re-raised on the calling goroutine as a *TrialPanic (lowest index
// first). With one worker (or n == 1) fn runs inline in index order.
func (f fanout) run(n int, fn func(i int) error) error {
	ctx, workers := f.ctx, f.workers
	if n <= 0 {
		return nil
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if ctx.Err() != nil {
				return interruptedErr(ctx, i, n)
			}
			if err := f.cell(i, fn); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	panics := make([]*TrialPanic, n)
	var next int64 = -1
	var failed atomic.Bool
	var completed int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if failed.Load() || ctx.Err() != nil {
					return
				}
				i := int(atomic.AddInt64(&next, 1))
				if i >= n {
					return
				}
				func() {
					defer func() {
						if r := recover(); r != nil {
							panics[i] = &TrialPanic{Index: i, Value: r, Stack: debug.Stack()}
							failed.Store(true)
						}
					}()
					if err := f.cell(i, fn); err != nil {
						errs[i] = err
						failed.Store(true)
					} else {
						atomic.AddInt64(&completed, 1)
					}
				}()
			}
		}()
	}
	wg.Wait()
	for _, p := range panics {
		if p != nil {
			panic(p)
		}
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	if ctx.Err() != nil && int(completed) < n {
		return interruptedErr(ctx, int(completed), n)
	}
	return nil
}

// cell runs one trial under the retry policy: transient failures back
// off and retry up to MaxAttempts; deterministic errors (and every
// error with no policy armed) return on the first attempt. The retried
// value is identical to what the failed attempt would have produced —
// cells are pure functions of their inputs — so retry can never change
// a report, only rescue one.
func (f fanout) cell(i int, fn func(i int) error) error {
	for attempt := 1; ; attempt++ {
		err := f.attempt(i, fn)
		if err == nil || f.retry == nil {
			return err
		}
		if !IsTransient(err) || attempt >= f.retry.MaxAttempts || f.ctx.Err() != nil {
			return err
		}
		bumpJob(f.ctx, cellRetries)
		if serr := f.retry.sleep(f.ctx, f.retry.delay(i, attempt)); serr != nil {
			// Cancelled mid-backoff: surface the cancellation chain so a
			// draining caller classifies this as an interrupt, with the
			// transient cause alongside for diagnosis.
			return fmt.Errorf("experiment: cell %d retry abandoned (last failure: %v): %w", i, err, serr)
		}
	}
}

// attempt is one gated execution of a trial. The gate is held only
// while the cell actually runs — backoff sleeps do not occupy a slot.
func (f fanout) attempt(i int, fn func(i int) error) error {
	if err := f.gate.acquire(f.ctx); err != nil {
		return err
	}
	defer f.gate.release()
	if f.retry != nil {
		if err := faultinject.Check(faultinject.CellAttempt); err != nil {
			return err
		}
	}
	return runTrial(i, fn)
}

// runTrial executes one trial behind its failpoint: an armed fault
// script can fail, panic, or cancel at an exact trial index, which is
// how the crash-safety tests interrupt a fan-out deterministically.
func runTrial(i int, fn func(i int) error) error {
	if err := faultinject.CheckIndex(faultinject.Trial, i); err != nil {
		return err
	}
	return fn(i)
}

// forEachOpt fans out n trials with the worker count, context, gate,
// and retry policy taken from the options.
func forEachOpt(opt Options, n int, fn func(i int) error) error {
	return fanout{ctx: opt.ctx(), workers: opt.workers(), retry: opt.Retry, gate: opt.Gate}.run(n, fn)
}
