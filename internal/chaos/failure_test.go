// Unrecoverable faults must surface from a sharded fit as typed,
// position-aware errors, never as a silent wrong answer. That recoverable
// ones leave the selection bit-identical is checked by the fault cells of the
// selection oracle (TestSelectionOracle, at the repository root). Run under
// -race.
package chaos_test

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/frame"
	"repro/internal/shard"
)

// chaosWorkload generates the benchmark-shaped synthetic dataset
// (Interactions = Dim/3, dataset seed 11).
func chaosWorkload(t *testing.T, rows, dim int) *frame.Frame {
	t.Helper()
	ds, err := datagen.Generate(datagen.Spec{
		Name: "chaos-test", Train: rows, Test: 64, Dim: dim,
		Interactions: dim / 3, SignalScale: 2.5, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ds.Train
}

// leakCheck snapshots the goroutine count after a warmup fit and asserts
// the process returns to it.
func leakCheck(t *testing.T) func() {
	t.Helper()
	base := runtime.NumGoroutine()
	return func() {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for {
			if n := runtime.NumGoroutine(); n <= base {
				return
			}
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<20)
				n := runtime.Stack(buf, true)
				t.Fatalf("goroutine leak: %d > baseline %d\n%s", runtime.NumGoroutine(), base, buf[:n])
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
}

// warmup runs one small fit per worker count so every shared worker pool
// (they are persistent by design, one per size) exists before a leak
// baseline is taken.
func warmup(t *testing.T, train *frame.Frame, workers ...int) {
	t.Helper()
	for _, w := range workers {
		cfg := core.DefaultConfig()
		cfg.Seed = 1
		cfg.Workers = w
		if _, _, _, err := shard.Fit(context.Background(), frame.NewFrameChunks(train, 1000), shard.Config{Core: cfg}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestChaosPermanentFaultTypedError pins fast, typed failure: a permanent
// read fault must abort the fit without retries, as a *shard.PassError
// that positions the failure and unwraps to the planned cause.
func TestChaosPermanentFaultTypedError(t *testing.T) {
	train := chaosWorkload(t, 4000, 8)
	warmup(t, train, 1, 4)
	check := leakCheck(t)

	sentinel := errors.New("sector unreadable")
	for _, workers := range []int{1, 4} {
		src := chaos.Wrap(frame.NewFrameChunks(train, 500),
			&chaos.Plan{Faults: []chaos.Fault{{Chunk: 3, Kind: chaos.Permanent, Err: sentinel}}})
		cfg := core.DefaultConfig()
		cfg.Seed = 1
		cfg.Workers = workers
		start := time.Now()
		_, _, _, err := shard.Fit(context.Background(), src, shard.Config{Core: cfg, Retry: shard.DefaultRetryPolicy()})
		if err == nil {
			t.Fatalf("workers=%d: permanent fault produced a result", workers)
		}
		var pe *shard.PassError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: got %T (%v), want *shard.PassError", workers, err, err)
		}
		if pe.Attempts != 1 {
			t.Fatalf("workers=%d: permanent fault was retried (%d attempts)", workers, pe.Attempts)
		}
		if pe.Pass < 1 || pe.Chunk != 3 {
			t.Fatalf("workers=%d: error positioned at pass %d chunk %d, want pass >= 1 chunk 3", workers, pe.Pass, pe.Chunk)
		}
		if !errors.Is(err, sentinel) {
			t.Fatalf("workers=%d: cause lost: %v", workers, err)
		}
		if d := time.Since(start); d > 5*time.Second {
			t.Fatalf("workers=%d: abort took %v, want fast failure", workers, d)
		}
		check()
	}
}

// TestChaosEarlyEOFRefused pins the unstable-source guard: a stream that
// ends a pass short must be refused with an explicit error — the
// coordinator never silently fits the partial pass.
func TestChaosEarlyEOFRefused(t *testing.T) {
	train := chaosWorkload(t, 4000, 8)
	// 8 chunks per pass; end the second pass two chunks short (lifetime
	// ordinal 14 = pass 2, chunk 6).
	src := chaos.Wrap(frame.NewFrameChunks(train, 500),
		&chaos.Plan{Faults: []chaos.Fault{{Chunk: 14, Kind: chaos.EarlyEOF}}})
	cfg := core.DefaultConfig()
	cfg.Seed = 1
	cfg.Workers = 2
	_, _, _, err := shard.Fit(context.Background(), src, shard.Config{Core: cfg, Retry: shard.DefaultRetryPolicy()})
	if err == nil {
		t.Fatal("early EOF mid-fit produced a result")
	}
	if !strings.Contains(err.Error(), "unstable source") {
		t.Fatalf("got %v, want the unstable-source refusal", err)
	}
}
