package shard

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/frame"
)

// TestChaosRetryPolicyDelay pins the deterministic backoff schedule:
// doubling from BaseDelay, capped at MaxDelay, with sane defaults when the
// fields are unset.
func TestChaosRetryPolicyDelay(t *testing.T) {
	p := RetryPolicy{MaxAttempts: 5, BaseDelay: 10 * time.Millisecond, MaxDelay: 45 * time.Millisecond}
	want := []time.Duration{
		10 * time.Millisecond, // attempt 1
		20 * time.Millisecond,
		40 * time.Millisecond,
		45 * time.Millisecond, // capped
		45 * time.Millisecond,
	}
	for i, w := range want {
		if d := p.delay(i + 1); d != w {
			t.Fatalf("delay(%d) = %v, want %v", i+1, d, w)
		}
	}
	var zero RetryPolicy
	if zero.enabled() {
		t.Fatal("zero policy must be disabled")
	}
	if d := zero.delay(1); d != 5*time.Millisecond {
		t.Fatalf("default base delay = %v, want 5ms", d)
	}
	if d := zero.delay(20); d != 250*time.Millisecond {
		t.Fatalf("default delay cap = %v, want 250ms", d)
	}
	if !DefaultRetryPolicy().enabled() {
		t.Fatal("DefaultRetryPolicy must be enabled")
	}
}

// TestChaosPassErrorPositioning pins passReadError's three contracts:
// context errors pass through bare, a retry-layer *PassError is stamped
// with the pass ordinal on a COPY (the prefetcher shares one sticky error
// object across workers, so mutating it would race), and foreign errors
// are wrapped fresh.
func TestChaosPassErrorPositioning(t *testing.T) {
	if err := passReadError(context.Canceled, 3, 7); err != context.Canceled {
		t.Fatalf("context error wrapped: %v", err)
	}

	cause := errors.New("flaky read")
	inner := &PassError{Chunk: 5, Attempts: 4, Err: cause}
	out := passReadError(inner, 3, 9)
	var pe *PassError
	if !errors.As(out, &pe) {
		t.Fatalf("got %T, want *PassError", out)
	}
	if pe == inner {
		t.Fatal("passReadError stamped the shared error in place")
	}
	if inner.Pass != 0 {
		t.Fatal("the retry layer's error object was mutated")
	}
	if pe.Pass != 3 || pe.Chunk != 5 || pe.Attempts != 4 || !errors.Is(pe, cause) {
		t.Fatalf("stamped copy wrong: %+v", pe)
	}
	// Already-stamped errors pass through unchanged.
	if again := passReadError(out, 3, 11); again != out {
		t.Fatalf("re-stamped an already-positioned error: %v", again)
	}

	wrapped := passReadError(cause, 3, 2)
	if !errors.As(wrapped, &pe) || pe.Pass != 3 || pe.Chunk != 2 || pe.Attempts != 1 {
		t.Fatalf("foreign error wrapped wrong: %v", wrapped)
	}
}

// TestChaosRetryRecoversSameSelection pins in-package what the differential
// suite pins externally: transient faults under the retry policy change
// nothing about the selection, for sequential and parallel passes alike.
func TestChaosRetryRecoversSameSelection(t *testing.T) {
	train := workload(t, 4000, 8)
	cfg := core.DefaultConfig()
	cfg.Seed = 1
	cfg.Workers = 1
	want, _, _, err := Fit(context.Background(), frame.NewFrameChunks(train, 500), Config{Core: cfg})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		src := chaos.Wrap(frame.NewFrameChunks(train, 500), chaos.TransientPlan(9, 3, 16))
		wcfg := cfg
		wcfg.Workers = workers
		got, _, st, err := Fit(context.Background(), src, Config{Core: wcfg, Retry: DefaultRetryPolicy()})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		assertSameSelection(t, want, got)
		if st.Retries < 3 {
			t.Fatalf("workers=%d: %d retries recorded, want >= 3", workers, st.Retries)
		}
	}
}

// TestChaosRetryExhaustion pins the give-up path: a fault outlasting
// MaxAttempts surfaces as a positioned *PassError that unwraps to the
// transient cause, with the attempt budget accounted.
func TestChaosRetryExhaustion(t *testing.T) {
	train := workload(t, 2000, 6)
	src := chaos.Wrap(frame.NewFrameChunks(train, 500),
		&chaos.Plan{Faults: []chaos.Fault{{Chunk: 1, Kind: chaos.Transient, Times: 10}}})
	cfg := core.DefaultConfig()
	cfg.Seed = 1
	cfg.Workers = 2
	_, _, _, err := Fit(context.Background(), src, Config{
		Core:  cfg,
		Retry: RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond},
	})
	var pe *PassError
	if !errors.As(err, &pe) {
		t.Fatalf("got %v, want *PassError", err)
	}
	if pe.Attempts != 3 || pe.Chunk != 1 || pe.Pass != 1 {
		t.Fatalf("exhaustion positioned at pass %d chunk %d after %d attempts, want 1/1/3", pe.Pass, pe.Chunk, pe.Attempts)
	}
	var te *chaos.TransientError
	if !errors.As(err, &te) {
		t.Fatalf("transient cause lost: %v", err)
	}
	if !frame.IsTransient(pe.Err) {
		t.Fatal("exhausted error's cause no longer classified transient")
	}
}

// TestChaosRetryDisabledAbortsFast pins the zero-policy contract: without
// Config.Retry, the first transient error aborts the fit immediately (no
// hidden retries), still typed and positioned.
func TestChaosRetryDisabledAbortsFast(t *testing.T) {
	train := workload(t, 2000, 6)
	src := chaos.Wrap(frame.NewFrameChunks(train, 500),
		&chaos.Plan{Faults: []chaos.Fault{{Chunk: 2, Kind: chaos.Transient, Times: 1}}})
	cfg := core.DefaultConfig()
	cfg.Seed = 1
	cfg.Workers = 2
	_, _, _, err := Fit(context.Background(), src, Config{Core: cfg})
	var pe *PassError
	if !errors.As(err, &pe) {
		t.Fatalf("got %v, want *PassError", err)
	}
	if pe.Attempts != 1 {
		t.Fatalf("disabled retry still attempted %d reads", pe.Attempts)
	}
	if src.Injected() != 1 {
		t.Fatalf("fault fired %d times, want 1", src.Injected())
	}
}

// TestChaosRetryCancelDuringBackoff pins prompt abort mid-backoff: with a
// fault that would back off for ~10s, cancelling the context must return
// ctx.Err() bare (never a PassError) well within a second, leaking
// nothing.
func TestChaosRetryCancelDuringBackoff(t *testing.T) {
	train := workload(t, 4000, 8)
	shardWarmup(t, train, 4)
	check := shardLeakCheck(t)

	src := chaos.Wrap(frame.NewFrameChunks(train, 500),
		&chaos.Plan{Faults: []chaos.Fault{{Chunk: 2, Kind: chaos.Transient, Times: 1000}}})
	cfg := core.DefaultConfig()
	cfg.Seed = 1
	cfg.Workers = 4
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, _, _, err := Fit(ctx, src, Config{
		Core:  cfg,
		Retry: RetryPolicy{MaxAttempts: 1000, BaseDelay: 10 * time.Second, MaxDelay: 10 * time.Second},
	})
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	var pe *PassError
	if errors.As(err, &pe) {
		t.Fatalf("cancellation wrapped in a PassError: %v", err)
	}
	if elapsed > time.Second {
		t.Fatalf("cancel during a 10s backoff took %v, want < 1s", elapsed)
	}
	cancel()
	check()
}
