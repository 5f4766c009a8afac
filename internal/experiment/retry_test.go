package experiment

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cohmeleon/internal/faultinject"
)

// noSleep is a retry policy sleep stub: no real timer, still honors
// cancellation.
func noSleep(ctx context.Context, _ time.Duration) error { return ctx.Err() }

// retryOptions builds options with an armed retry policy for fanout
// tests.
func retryOptions(attempts int) Options {
	opt := Tiny()
	opt.Workers = 1
	opt.Retry = &RetryPolicy{MaxAttempts: attempts, BaseDelay: time.Millisecond, MaxDelay: 8 * time.Millisecond, Sleep: noSleep}
	return opt
}

func TestRetryRescuesTransientCellFailure(t *testing.T) {
	before := Snapshot().Retry.CellRetries
	attempts := 0
	err := forEachOpt(retryOptions(3), 1, func(i int) error {
		attempts++
		if attempts == 1 {
			return fmt.Errorf("flaky infrastructure: %w", faultinject.ErrTransient)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("transient failure not rescued: %v", err)
	}
	if attempts != 2 {
		t.Fatalf("attempts = %d, want 2", attempts)
	}
	if got := Snapshot().Retry.CellRetries - before; got != 1 {
		t.Fatalf("CellRetries rose by %d, want 1", got)
	}
}

func TestRetryFailsFastOnDeterministicError(t *testing.T) {
	boom := errors.New("bad geometry")
	attempts := 0
	err := forEachOpt(retryOptions(5), 1, func(i int) error {
		attempts++
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	if attempts != 1 {
		t.Fatalf("deterministic error retried: %d attempts, want 1", attempts)
	}
}

func TestRetryExhaustsAttemptsAndReturnsLastError(t *testing.T) {
	attempts := 0
	err := forEachOpt(retryOptions(3), 1, func(i int) error {
		attempts++
		return fmt.Errorf("still down: %w", faultinject.ErrTransient)
	})
	if err == nil || !errors.Is(err, faultinject.ErrTransient) {
		t.Fatalf("err = %v, want transient", err)
	}
	if attempts != 3 {
		t.Fatalf("attempts = %d, want 3 (MaxAttempts)", attempts)
	}
}

func TestRetryAbandonedOnCancellationWrapsContextError(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	opt := retryOptions(5)
	opt.Ctx = ctx
	opt.Retry.Sleep = func(ctx context.Context, _ time.Duration) error {
		cancel() // cancelled mid-backoff
		return ctx.Err()
	}
	err := forEachOpt(opt, 1, func(i int) error {
		return fmt.Errorf("flaky: %w", faultinject.ErrTransient)
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want to wrap context.Canceled", err)
	}
	if !strings.Contains(err.Error(), "retry abandoned") {
		t.Fatalf("err = %v, want the abandoned-retry chain with the transient cause", err)
	}
}

func TestRetryRescuesInjectedCellAttemptFault(t *testing.T) {
	// The CellAttempt failpoint is occurrence-counted and only checked
	// with a retry policy armed, so batch runs (no policy) never see it.
	faultinject.Enable(faultinject.NewScript(faultinject.FailTransient(faultinject.CellAttempt, 2)))
	defer faultinject.Disable()
	var runs int
	err := forEachOpt(retryOptions(3), 3, func(i int) error {
		runs++
		return nil
	})
	if err != nil {
		t.Fatalf("injected transient fault not rescued: %v", err)
	}
	if runs != 3 {
		t.Fatalf("runs = %d, want 3", runs)
	}
}

func TestRetryDelayIsDeterministicAndBounded(t *testing.T) {
	p := RetryPolicy{MaxAttempts: 5, BaseDelay: 100 * time.Millisecond, MaxDelay: time.Second}
	for index := 0; index < 4; index++ {
		for attempt := 1; attempt < 5; attempt++ {
			d1 := p.delay(index, attempt)
			d2 := p.delay(index, attempt)
			if d1 != d2 {
				t.Fatalf("delay(%d,%d) nondeterministic: %v vs %v", index, attempt, d1, d2)
			}
			pre := p.BaseDelay << (attempt - 1)
			if pre > p.MaxDelay {
				pre = p.MaxDelay
			}
			if d1 < pre/2 || d1 > pre {
				t.Fatalf("delay(%d,%d) = %v outside [%v, %v]", index, attempt, d1, pre/2, pre)
			}
		}
	}
}

func TestRetryPolicyValidate(t *testing.T) {
	bad := []RetryPolicy{
		{MaxAttempts: 0},
		{MaxAttempts: 1, BaseDelay: -time.Second},
		{MaxAttempts: 1, MaxDelay: -time.Second},
	}
	for _, p := range bad {
		if err := p.Validate(); err == nil {
			t.Fatalf("Validate(%+v) passed, want error", p)
		}
	}
	good := DefaultRetryPolicy()
	if err := good.Validate(); err != nil {
		t.Fatalf("DefaultRetryPolicy invalid: %v", err)
	}
}

func TestIsTransientClassification(t *testing.T) {
	if IsTransient(errors.New("plain")) {
		t.Fatal("plain error classified transient")
	}
	if !IsTransient(fmt.Errorf("wrap: %w", faultinject.ErrTransient)) {
		t.Fatal("wrapped ErrTransient not classified transient")
	}
}

func TestGateBoundsCellsInFlightAcrossFanOuts(t *testing.T) {
	gate := NewGate(2)
	opt := Tiny()
	opt.Workers = 8
	opt.Gate = gate
	var inFlight, peak atomic.Int64
	var mu sync.Mutex
	err := forEachOpt(opt, 16, func(i int) error {
		n := inFlight.Add(1)
		mu.Lock()
		if n > peak.Load() {
			peak.Store(n)
		}
		mu.Unlock()
		time.Sleep(2 * time.Millisecond)
		inFlight.Add(-1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > 2 {
		t.Fatalf("peak in-flight cells = %d, want ≤ 2 (gate bound)", p)
	}
	if g := gate.InFlight(); g != 0 {
		t.Fatalf("gate not drained: %d slots held", g)
	}
}

func TestGateCancelledWhileWaitingForAdmission(t *testing.T) {
	gate := NewGate(1)
	gate <- struct{}{} // hold the only slot
	defer func() { <-gate }()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := gate.acquire(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("acquire on cancelled ctx = %v, want context.Canceled", err)
	}
}

func TestJobCountersFlowThroughContext(t *testing.T) {
	var c JobCounters
	ctx := WithJobCounters(context.Background(), &c)
	before := Snapshot().RunCache.Hits
	bumpJob(ctx, runMemoHits)
	bumpJob(context.Background(), runMemoHits)
	if got := c.View(); got != (JobCounterView{MemoHits: 1}) {
		t.Fatalf("job counters = %+v, want one memo hit from the attached context only", got)
	}
	if got := Snapshot().RunCache.Hits - before; got != 2 {
		t.Fatalf("process memo hits rose by %d, want 2 (every bump counts process-wide)", got)
	}
}
