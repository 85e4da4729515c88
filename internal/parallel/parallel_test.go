package parallel

import (
	"context"
	"sync/atomic"
	"testing"
)

func TestForCoversEveryIndex(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8} {
		p := New(workers)
		for _, n := range []int{0, 1, 7, 64, 1000} {
			seen := make([]int32, n)
			p.For(n, func(i int) { atomic.AddInt32(&seen[i], 1) })
			for i, c := range seen {
				if c != 1 {
					t.Fatalf("workers=%d n=%d: index %d visited %d times", workers, n, i, c)
				}
			}
		}
	}
}

func TestForChunksDisjointCover(t *testing.T) {
	p := New(4)
	const n = 1003
	seen := make([]int32, n)
	p.ForChunks(n, 10, func(lo, hi int) {
		if lo < 0 || hi > n || lo >= hi {
			t.Errorf("bad chunk [%d,%d)", lo, hi)
		}
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&seen[i], 1)
		}
	})
	for i, c := range seen {
		if c != 1 {
			t.Fatalf("index %d visited %d times", i, c)
		}
	}
}

// TestDeterministicAcrossWorkerCounts verifies the pool's core contract:
// index-addressed outputs are identical for any worker count.
func TestDeterministicAcrossWorkerCounts(t *testing.T) {
	const n = 517
	want := make([]float64, n)
	New(1).For(n, func(i int) { want[i] = float64(i) * 1.5 })
	for _, workers := range []int{2, 3, 7} {
		got := make([]float64, n)
		New(workers).For(n, func(i int) { got[i] = float64(i) * 1.5 })
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: got[%d]=%v want %v", workers, i, got[i], want[i])
			}
		}
	}
}

// TestNestedForDoesNotDeadlock exercises a For issued from inside a worker:
// the pool must fall back to caller execution rather than waiting on itself.
func TestNestedForDoesNotDeadlock(t *testing.T) {
	p := New(2)
	var total atomic.Int64
	p.For(8, func(i int) {
		p.For(8, func(j int) { total.Add(1) })
	})
	if got := total.Load(); got != 64 {
		t.Fatalf("nested For ran %d inner iterations, want 64", got)
	}
}

// TestSaturatedPoolRunsInline pins what several independent callers of one
// pool rely on (two worker sessions and a coordinator's fold on Default()): a
// ForChunks issued while another caller holds the helpers completes on its
// own goroutine instead of queueing behind them.
func TestSaturatedPoolRunsInline(t *testing.T) {
	p := New(3)
	p.ForChunks(3, 1, func(lo, hi int) {}) // helpers started and back at their receive
	held := make(chan struct{}, 3)         // one slot per chunk: no sender waits on the test
	release, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		p.ForChunks(3, 1, func(lo, hi int) {
			held <- struct{}{}
			<-release
		})
	}()
	<-held // the first caller is inside fn, with every helper it enlisted
	var count atomic.Int64
	p.ForChunks(100, 1, func(lo, hi int) { count.Add(int64(hi - lo)) })
	if count.Load() != 100 {
		t.Fatalf("second caller covered %d of 100 indices beside a blocked one", count.Load())
	}
	close(release)
	<-done
}

func TestForPanicPropagates(t *testing.T) {
	p := New(4)
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("panic did not propagate")
		}
	}()
	p.For(1000, func(i int) {
		if i == 517 {
			panic("boom")
		}
	})
}

func TestGetCachesPools(t *testing.T) {
	if Get(3) != Get(3) {
		t.Fatal("Get(3) returned distinct pools")
	}
	if Get(0).Workers() != Default().Workers() {
		t.Fatal("Get(0) and Default disagree")
	}
	if Get(5).Workers() != 5 {
		t.Fatalf("Workers() = %d, want 5", Get(5).Workers())
	}
}

func TestForChunksReusablePool(t *testing.T) {
	p := New(3)
	for round := 0; round < 50; round++ {
		var count atomic.Int64
		p.ForChunks(200, 7, func(lo, hi int) { count.Add(int64(hi - lo)) })
		if count.Load() != 200 {
			t.Fatalf("round %d covered %d indices, want 200", round, count.Load())
		}
	}
}

func TestForChunksCtxCancellation(t *testing.T) {
	p := New(4)
	// A completed run returns nil.
	if err := p.ForChunksCtx(context.Background(), 100, 10, func(lo, hi int) {}); err != nil {
		t.Fatalf("uncancelled run returned %v", err)
	}
	// Cancelling from inside a chunk stops further chunks being claimed and
	// returns ctx.Err(); the pool stays reusable afterwards.
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int64
	err := p.ForChunksCtx(ctx, 100000, 1, func(lo, hi int) {
		if ran.Add(int64(hi-lo)) > 100 {
			cancel()
		}
	})
	if err != context.Canceled {
		t.Fatalf("cancelled run returned %v, want context.Canceled", err)
	}
	if ran.Load() >= 100000 {
		t.Fatal("cancellation did not stop chunk claims")
	}
	var count atomic.Int64
	p.ForChunks(500, 7, func(lo, hi int) { count.Add(int64(hi - lo)) })
	if count.Load() != 500 {
		t.Fatalf("pool unusable after cancellation: covered %d of 500", count.Load())
	}
	// An already-cancelled context runs nothing, including the single-chunk
	// fast path.
	ran.Store(0)
	if err := p.ForChunksCtx(ctx, 50, 100, func(lo, hi int) { ran.Add(1) }); err != context.Canceled {
		t.Fatalf("pre-cancelled run returned %v", err)
	}
	if ran.Load() != 0 {
		t.Fatal("pre-cancelled context still executed chunks")
	}
}
