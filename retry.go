package disqo

import (
	"context"
	"errors"
	"math/rand"
	"time"
)

// RetryPolicy shapes Retry's capped exponential backoff. The zero value
// is not useful; start from DefaultRetryPolicy and override fields.
type RetryPolicy struct {
	// MaxAttempts is the total number of calls (first try included).
	MaxAttempts int
	// BaseDelay is the backoff before the second attempt; each further
	// attempt multiplies it by Multiplier, capped at MaxDelay.
	BaseDelay  time.Duration
	MaxDelay   time.Duration
	Multiplier float64
	// Jitter spreads each delay uniformly over [d·(1−Jitter), d·(1+Jitter)]
	// so herds of shed queries don't re-arrive in lockstep. 0 disables
	// jitter; values are clamped to [0, 1].
	Jitter float64
	// RetryIf classifies errors as transient; nil retries only
	// ErrOverloaded — the engine's sole documented back-off-and-retry
	// signal.
	RetryIf func(error) bool
}

// DefaultRetryPolicy retries ErrOverloaded up to 5 attempts with
// 5ms→500ms exponential backoff (×2 per attempt, ±50% jitter).
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{
		MaxAttempts: 5,
		BaseDelay:   5 * time.Millisecond,
		MaxDelay:    500 * time.Millisecond,
		Multiplier:  2,
		Jitter:      0.5,
	}
}

// Retry calls fn until it succeeds, fails with a non-retryable error,
// exhausts p.MaxAttempts, or ctx is done — whichever comes first. The
// last error is returned on exhaustion; a context cancellation during
// backoff returns ctx.Err() immediately (joined with the last attempt's
// error so callers keep both signals). When ctx carries a deadline that
// the next backoff would sleep past, Retry does not sleep at all: it
// returns context.DeadlineExceeded joined with the last error right
// away, so a caller with a 50ms budget is never parked for a 400ms
// backoff it cannot use. It replaces the hand-rolled sleep loops
// ErrOverloaded used to suggest:
//
//	res, err := disqo.Retry(ctx, disqo.DefaultRetryPolicy(),
//		func() (*disqo.Result, error) { return db.Query(sql) })
func Retry[T any](ctx context.Context, p RetryPolicy, fn func() (T, error)) (T, error) {
	var zero T
	if ctx == nil {
		ctx = context.Background()
	}
	if p.MaxAttempts < 1 {
		p.MaxAttempts = 1
	}
	if p.Multiplier < 1 {
		p.Multiplier = 1
	}
	if p.Jitter < 0 {
		p.Jitter = 0
	} else if p.Jitter > 1 {
		p.Jitter = 1
	}
	retryable := p.RetryIf
	if retryable == nil {
		retryable = func(err error) bool { return errors.Is(err, ErrOverloaded) }
	}
	delay := p.BaseDelay
	var lastErr error
	for attempt := 1; ; attempt++ {
		if err := ctx.Err(); err != nil {
			return zero, errors.Join(err, lastErr)
		}
		v, err := fn()
		if err == nil {
			return v, nil
		}
		lastErr = err
		if attempt >= p.MaxAttempts || !retryable(err) {
			return zero, err
		}
		d := delay
		if p.MaxDelay > 0 && d > p.MaxDelay {
			d = p.MaxDelay
		}
		if p.Jitter > 0 && d > 0 {
			span := float64(d) * p.Jitter
			d = time.Duration(float64(d) - span + 2*span*rand.Float64())
		}
		if dl, ok := ctx.Deadline(); ok && time.Until(dl) < d {
			// The backoff would outlive the caller's budget: spending it
			// asleep only converts a useful "still overloaded" error into
			// a late one. Fail fast with both signals.
			return zero, errors.Join(context.DeadlineExceeded, lastErr)
		}
		if d > 0 {
			t := time.NewTimer(d)
			select {
			case <-ctx.Done():
				t.Stop()
				return zero, errors.Join(ctx.Err(), lastErr)
			case <-t.C:
			}
		}
		delay = time.Duration(float64(delay) * p.Multiplier)
	}
}
