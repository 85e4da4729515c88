package shard

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"repro/internal/frame"
)

// RetryPolicy bounds how the coordinator retries transient chunk-read
// errors (frame.IsTransient — flaky disks, brief stalls). A failed read is
// re-attempted in place with capped exponential backoff: the chunk has not
// been folded yet, so a successful re-read continues the pass exactly
// where it stopped and the fit stays bit-identical to a fault-free run.
// Permanent errors (checksum mismatches, format violations, unknown
// failures) are never retried — they abort the fit fast with a typed,
// position-aware PassError.
type RetryPolicy struct {
	// MaxAttempts is the total read attempts per chunk (first try
	// included); <= 1 disables retrying entirely.
	MaxAttempts int
	// BaseDelay is the backoff before the first retry, doubling per
	// attempt (default 5ms when retrying is enabled).
	BaseDelay time.Duration
	// MaxDelay caps the backoff growth (default 250ms).
	MaxDelay time.Duration
}

// DefaultRetryPolicy returns the standard transient-fault policy: 4 total
// attempts with 5ms → 250ms capped exponential backoff.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{MaxAttempts: 4, BaseDelay: 5 * time.Millisecond, MaxDelay: 250 * time.Millisecond}
}

// enabled reports whether the policy retries at all; the zero value is
// off, so Config.Retry costs nothing unless asked for.
func (p RetryPolicy) enabled() bool { return p.MaxAttempts > 1 }

// Delay returns the deterministic backoff before retry attempt n (1-based):
// BaseDelay doubled per prior retry, capped at MaxDelay. Exported for the
// distributed transport, which retries transient frame faults on the same
// schedule as chunk reads.
func (p RetryPolicy) Delay(n int) time.Duration { return p.delay(n) }

// delay returns the backoff before retry attempt n (1-based): BaseDelay
// doubled per prior retry, capped at MaxDelay. Deterministic — no jitter —
// so chaos replays time out identically.
func (p RetryPolicy) delay(n int) time.Duration {
	d := p.BaseDelay
	if d <= 0 {
		d = 5 * time.Millisecond
	}
	max := p.MaxDelay
	if max <= 0 {
		max = 250 * time.Millisecond
	}
	for i := 1; i < n; i++ {
		d *= 2
		if d >= max {
			return max
		}
	}
	if d > max {
		return max
	}
	return d
}

// PassError positions a streaming-pass read failure: which pass over the
// source, which chunk ordinal within it, and how many read attempts were
// made before giving up. Unwrap reaches the source's own error, so
// errors.Is/As find the cause — e.g. colstore's *FormatError or
// *ChecksumError for corrupted column files. Context cancellation is
// never wrapped: a cancelled fit returns ctx.Err() bare.
type PassError struct {
	Pass     int // 1-based streaming pass ordinal
	Chunk    int // 0-based chunk ordinal within the pass
	Attempts int // read attempts made (> 1 means retries were exhausted)
	Err      error
}

// Error implements error.
func (e *PassError) Error() string {
	msg := fmt.Sprintf("shard: pass %d: chunk %d", e.Pass, e.Chunk)
	if e.Attempts > 1 {
		msg += fmt.Sprintf(" (after %d attempts)", e.Attempts)
	}
	return msg + ": " + e.Err.Error()
}

// Unwrap implements errors.Unwrap.
func (e *PassError) Unwrap() error { return e.Err }

// NewRetrySource wraps a chunk source with the policy's transient-read
// retry loop, counting absorbed retries into *retries (written atomically).
// A disabled policy returns src unchanged. Distributed workers wrap their
// partition streams with this, so a recovered read never surfaces to the
// coordinator's fold — only the reported retry count does.
func NewRetrySource(ctx context.Context, src frame.ChunkSource, pol RetryPolicy, retries *int64) frame.ChunkSource {
	if !pol.enabled() {
		return src
	}
	return &retrySource{src: src, ctx: ctx, pol: pol, retries: retries}
}

// retrySource wraps the raw chunk source with the retry policy. It sits
// BELOW the prefetcher: a transient error is absorbed and re-read inside
// the same Next call, so the prefetcher's in-order error delivery and the
// pass's partition-index-ordered folds never observe it — only
// Stats.Retries does. Final failures come back as *PassError (Chunk and
// Attempts filled; the runner adds Pass); io.EOF and context errors pass
// through bare.
type retrySource struct {
	src     frame.ChunkSource
	ctx     context.Context
	pol     RetryPolicy
	retries *int64 // atomic — the prefetch reader goroutine writes it
	chunk   int    // delivered count within the current pass
}

// Names implements frame.ChunkSource.
func (r *retrySource) Names() []string { return r.src.Names() }

// NumCols implements frame.ChunkSource.
func (r *retrySource) NumCols() int { return r.src.NumCols() }

// Reset implements frame.ChunkSource; Reset errors are not retried (they
// are setup, not streaming, and the pass has folded nothing yet).
func (r *retrySource) Reset() error {
	if err := r.src.Reset(); err != nil {
		return err
	}
	r.chunk = 0
	return nil
}

// StableChunks implements frame.StableSource by forwarding the wrapped
// source's stability, so the prefetcher above keeps its zero-copy path.
func (r *retrySource) StableChunks() bool {
	if ss, ok := r.src.(frame.StableSource); ok {
		return ss.StableChunks()
	}
	return false
}

// Next implements frame.ChunkSource with the retry loop.
func (r *retrySource) Next() (*frame.Chunk, error) {
	for attempt := 1; ; attempt++ {
		c, err := r.src.Next()
		if err == nil {
			r.chunk++
			return c, nil
		}
		if errors.Is(err, io.EOF) {
			return nil, err
		}
		if ctxErr := r.ctx.Err(); ctxErr != nil {
			return nil, ctxErr
		}
		if !frame.IsTransient(err) || attempt >= r.pol.MaxAttempts {
			return nil, &PassError{Chunk: r.chunk, Attempts: attempt, Err: err}
		}
		if serr := r.sleep(r.pol.delay(attempt)); serr != nil {
			return nil, serr // cancelled mid-backoff: ctx.Err(), bare
		}
		atomic.AddInt64(r.retries, 1)
	}
}

// sleep waits d or until the fit's context is done, whichever comes first
// — a cancel during backoff aborts promptly, leaking no timer goroutine.
func (r *retrySource) sleep(d time.Duration) error {
	if d <= 0 {
		return r.ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-r.ctx.Done():
		return r.ctx.Err()
	}
}

// passReadError positions a chunk-read failure for the caller: context
// errors pass through bare (cancellation is the caller's signal, not a
// source fault), an existing *PassError from the retry layer gets the
// given pass ordinal stamped onto a copy (never mutated in place — the
// prefetcher delivers one sticky error object to every worker), and
// anything else is wrapped fresh at the given chunk ordinal.
func passReadError(err error, pass, chunk int) error {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	var pe *PassError
	if errors.As(err, &pe) {
		if pe.Pass != 0 {
			return err
		}
		return &PassError{Pass: pass, Chunk: pe.Chunk, Attempts: pe.Attempts, Err: pe.Err}
	}
	return &PassError{Pass: pass, Chunk: chunk, Attempts: 1, Err: err}
}

var _ frame.ChunkSource = (*retrySource)(nil)
var _ frame.StableSource = (*retrySource)(nil)
