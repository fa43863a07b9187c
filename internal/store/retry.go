package store

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sync/atomic"
	"time"
)

// RetryPolicy configures capped exponential backoff with jitter for the
// Client's idempotent operations (range queries, full-overwrite
// uploads, single or batched, listings, stats, blob I/O). Non-idempotent operations —
// Rename, Delete, UploadFrom (whose reader cannot be replayed) — always
// run single-attempt regardless of policy.
type RetryPolicy struct {
	// MaxAttempts is the per-call budget including the first attempt;
	// values below 2 disable retries.
	MaxAttempts int
	// BaseDelay is the first backoff; each retry doubles it up to
	// MaxDelay. Zero means 10ms.
	BaseDelay time.Duration
	// MaxDelay caps the exponential growth. Zero means 1s.
	MaxDelay time.Duration
	// JitterSeed makes the jitter sequence deterministic for tests;
	// zero seeds from the policy address identity (still deterministic
	// per client, arbitrary across runs).
	JitterSeed int64
	// Sleep replaces the wait between attempts; test hook. The default
	// wait ends early when the caller's context is done.
	Sleep func(time.Duration)
}

func (p *RetryPolicy) attempts() int {
	if p == nil || p.MaxAttempts < 2 {
		return 1
	}
	return p.MaxAttempts
}

// backoff returns the pause before attempt+1: the capped exponential
// step equal-jittered into [step/2, step).
func (p *RetryPolicy) backoff(attempt int, rng *rand.Rand) time.Duration {
	base := p.BaseDelay
	if base <= 0 {
		base = 10 * time.Millisecond
	}
	max := p.MaxDelay
	if max <= 0 {
		max = time.Second
	}
	step := base
	for i := 1; i < attempt && step < max; i++ {
		step *= 2
	}
	if step > max {
		step = max
	}
	half := step / 2
	if half <= 0 {
		return step
	}
	return half + time.Duration(rng.Int63n(int64(half)))
}

// ClientStats counts a Client's request outcomes; all fields are
// atomic, so one stats block can be read while transfers are in flight.
type ClientStats struct {
	// Attempts counts every request attempt issued, including firsts.
	Attempts atomic.Int64
	// Retries counts attempts beyond an operation's first.
	Retries atomic.Int64
	// Exhausted counts operations that gave up with RetryExhaustedError.
	Exhausted atomic.Int64
}

// StatsSnapshot is a point-in-time copy of ClientStats.
type StatsSnapshot struct {
	Attempts, Retries, Exhausted int64
}

// Snapshot reads the counters atomically (each counter individually;
// the set is not a consistent cut, which is fine for monitoring).
func (s *ClientStats) Snapshot() StatsSnapshot {
	return StatsSnapshot{
		Attempts:  s.Attempts.Load(),
		Retries:   s.Retries.Load(),
		Exhausted: s.Exhausted.Load(),
	}
}

// RetryExhaustedError reports that an idempotent operation burned its
// whole attempt budget; it wraps the LAST attempt's error, so
// errors.Is/As see through to the underlying failure.
type RetryExhaustedError struct {
	// Op names the operation, e.g. "GET /query".
	Op string
	// Attempts is the number of attempts issued.
	Attempts int
	// Err is the last attempt's error.
	Err error
}

func (e *RetryExhaustedError) Error() string {
	return fmt.Sprintf("store client: %s: retry budget exhausted after %d attempts: %v",
		e.Op, e.Attempts, e.Err)
}

func (e *RetryExhaustedError) Unwrap() error { return e.Err }

// transportError marks a request that never produced an HTTP response
// (dial/write/read failures, dropped responses) — always retryable.
type transportError struct {
	method, endpoint string
	err              error
}

func (e *transportError) Error() string {
	return fmt.Sprintf("store client: %s %s: %v", e.method, e.endpoint, e.err)
}

func (e *transportError) Unwrap() error { return e.err }

// statusError is a non-2xx HTTP response; 5xx is retryable, 4xx is the
// caller's fault and is not — but for statusCorruptFrame, an upload
// damaged on its way.
type statusError struct {
	method, endpoint string
	code             int
	status, body     string
}

func (e *statusError) Error() string {
	return fmt.Sprintf("store client: %s %s: %s: %s", e.method, e.endpoint, e.status, e.body)
}

// retryable classifies an attempt's failure. Transport-level failures
// and server-side (5xx) responses may heal on retry; 4xx responses and
// payload-validation failures are deterministic and do not.
func retryable(err error) bool {
	var se *statusError
	if errors.As(err, &se) {
		return se.code >= 500 || se.code == statusCorruptFrame
	}
	var te *transportError
	if errors.As(err, &te) {
		return true
	}
	// A corrupt batch frame (CRC mismatch) is in-flight damage, not a
	// deterministic failure: re-request the frame.
	var ce *ChecksumError
	if errors.As(err, &ce) {
		return true
	}
	// A truncated response body (server died mid-stream) surfaces from
	// the decoder rather than the transport.
	return errors.Is(err, io.ErrUnexpectedEOF)
}

func (c *Client) jitterRNG() *rand.Rand {
	c.rngMu.Lock()
	defer c.rngMu.Unlock()
	if c.rng == nil {
		seed := int64(1)
		if c.Retry != nil && c.Retry.JitterSeed != 0 {
			seed = c.Retry.JitterSeed
		}
		c.rng = rand.New(rand.NewSource(seed))
	}
	return c.rng
}

// jitterStep draws one jittered backoff under the client's RNG mutex so
// concurrent operations don't race the source.
func (c *Client) jitterStep(attempt int) time.Duration {
	rng := c.jitterRNG()
	c.rngMu.Lock()
	defer c.rngMu.Unlock()
	return c.Retry.backoff(attempt, rng)
}

// withRetry runs fn under the client's retry policy. ctx is the
// CALLER's context: its cancellation always stops the loop, in a backoff
// too (a deadline that fired inside an attempt came from the per-request
// timeout and is retried; one observable on ctx itself is not).
func (c *Client) withRetry(ctx context.Context, op string, fn func() error) error {
	max := c.Retry.attempts()
	var err error
	attempt := 0
	for attempt < max {
		attempt++
		c.Stats.Attempts.Add(1)
		c.Metrics.Add("store.client.attempts", 1)
		if attempt > 1 {
			c.Stats.Retries.Add(1)
			c.Metrics.Add("store.client.retries", 1)
		}
		err = fn()
		if err == nil {
			return nil
		}
		if ctx.Err() != nil || !retryable(err) {
			return err
		}
		if attempt < max {
			d := c.jitterStep(attempt)
			if c.Retry.Sleep != nil {
				c.Retry.Sleep(d)
				continue
			}
			select {
			case <-time.After(d):
			case <-ctx.Done():
				return fmt.Errorf("store client: %s: %w in backoff after: %v", op, ctx.Err(), err)
			}
		}
	}
	if max > 1 {
		c.Stats.Exhausted.Add(1)
		c.Metrics.Add("store.client.exhausted", 1)
		return &RetryExhaustedError{Op: op, Attempts: attempt, Err: err}
	}
	return err
}
