package experiment

import (
	"context"
	"errors"
	"fmt"
	"time"

	"cohmeleon/internal/faultinject"
)

// Cell-boundary retry. A grid cell's value is a pure function of its
// inputs, so a transient infrastructure failure — a flaky disk, a brief
// resource squeeze, an injected fault at the CellAttempt failpoint —
// can be retried without any risk to report bytes: the retried attempt
// recomputes exactly the value the failed one would have produced.
// Deterministic trial errors (bad geometry, undecodable state) are the
// opposite: retrying them re-fails identically, so they are never
// retried. The line between the two is explicit: only errors that
// declare themselves transient (IsTransient) are retried.

// IsTransient classifies an error as a retryable infrastructure
// failure: it either implements `Transient() bool` or wraps
// faultinject.ErrTransient. Everything else — in particular every
// deterministic trial error — is not transient and fails fast.
func IsTransient(err error) bool {
	var t interface{ Transient() bool }
	if errors.As(err, &t) {
		return t.Transient()
	}
	return errors.Is(err, faultinject.ErrTransient)
}

// RetryPolicy retries transient cell failures with capped exponential
// backoff and deterministic jitter. The zero policy is invalid; use
// DefaultRetryPolicy for sane serving defaults.
type RetryPolicy struct {
	// MaxAttempts is the total attempts per cell, including the first
	// (1 = no retry).
	MaxAttempts int
	// BaseDelay is the pre-jitter delay before the first retry; each
	// further retry doubles it.
	BaseDelay time.Duration
	// MaxDelay caps the pre-jitter backoff.
	MaxDelay time.Duration
	// Sleep waits out a backoff delay, returning early with the context
	// error if cancelled. Nil means a real timer; tests inject stubs.
	Sleep func(context.Context, time.Duration) error
}

// DefaultRetryPolicy returns the serve-mode defaults: a few quick
// attempts, backing off 50ms → 2s.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{MaxAttempts: 3, BaseDelay: 50 * time.Millisecond, MaxDelay: 2 * time.Second}
}

// Validate reports policy errors before any cell runs under them.
func (p *RetryPolicy) Validate() error {
	switch {
	case p.MaxAttempts < 1:
		return fmt.Errorf("experiment: retry attempts %d must be ≥ 1", p.MaxAttempts)
	case p.BaseDelay < 0:
		return fmt.Errorf("experiment: retry base delay %v must be ≥ 0", p.BaseDelay)
	case p.MaxDelay < 0:
		return fmt.Errorf("experiment: retry max delay %v must be ≥ 0", p.MaxDelay)
	}
	return nil
}

// delay computes the backoff before retry number `attempt` (1-based) of
// cell `index`: BaseDelay doubled per attempt, capped at MaxDelay, then
// scaled into [50%, 100%) by a jitter derived deterministically from
// (index, attempt) — desynchronizing concurrent cells without any
// shared RNG state.
func (p *RetryPolicy) delay(index, attempt int) time.Duration {
	d := p.BaseDelay
	for i := 1; i < attempt; i++ {
		d *= 2
		if p.MaxDelay > 0 && d >= p.MaxDelay {
			d = p.MaxDelay
			break
		}
	}
	if p.MaxDelay > 0 && d > p.MaxDelay {
		d = p.MaxDelay
	}
	if d <= 0 {
		return 0
	}
	frac := 0.5 + 0.5*float64(splitmix64(uint64(index)<<20|uint64(attempt))>>11)/float64(1<<53)
	return time.Duration(float64(d) * frac)
}

// sleep waits out one backoff delay.
func (p *RetryPolicy) sleep(ctx context.Context, d time.Duration) error {
	switch {
	case p.Sleep != nil:
		return p.Sleep(ctx, d)
	case d <= 0:
		return ctx.Err()
	}
	return sleepCtx(ctx, d)
}

// splitmix64 is the standard 64-bit finalizer-style mixer.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
