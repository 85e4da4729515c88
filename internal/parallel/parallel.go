package parallel

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// Pool is a bounded set of reusable worker goroutines. The zero value is not
// usable; obtain pools with Get or New.
type Pool struct {
	workers int
	tasks   chan func()
}

var (
	poolsMu sync.Mutex
	pools   = map[int]*Pool{}
)

// Get returns the shared pool with the given worker count, creating it on
// first use. workers <= 0 selects GOMAXPROCS. Pools are never torn down:
// idle workers cost only a blocked goroutine each.
func Get(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	poolsMu.Lock()
	defer poolsMu.Unlock()
	if p, ok := pools[workers]; ok {
		return p
	}
	p := New(workers)
	pools[workers] = p
	return p
}

// Default returns the shared GOMAXPROCS-sized pool.
func Default() *Pool { return Get(0) }

// New creates a pool with its own worker goroutines. Most callers want Get.
func New(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	// The task channel is deliberately unbuffered: a send succeeds only when
	// an idle worker is actively receiving, so queued work can never wait on
	// a worker that is itself blocked in a nested ForChunks.
	p := &Pool{workers: workers, tasks: make(chan func())}
	// The caller of ForChunks always participates, so workers-1 helpers
	// saturate the target concurrency.
	for i := 0; i < workers-1; i++ {
		go func() {
			for task := range p.tasks {
				task()
			}
		}()
	}
	return p
}

// Workers returns the pool's concurrency bound.
func (p *Pool) Workers() int { return p.workers }

// Grain returns a chunk size that gives each worker a few chunks of an
// n-element loop — the default second argument to ForChunks when the caller
// has no per-chunk setup cost to amortise further.
func (p *Pool) Grain(n int) int {
	g := n / (4 * p.workers)
	if g < 1 {
		g = 1
	}
	return g
}

// minChunk is the smallest index range worth shipping to another goroutine.
const minChunk = 64

// ForChunks splits [0,n) into contiguous chunks of at least grain indices
// and runs fn on each. The calling goroutine always executes chunks itself;
// idle pool workers join in. fn must write results to per-index or per-chunk
// locations — chunk boundaries are a pure function of n and grain, so any
// such use is deterministic regardless of worker count or scheduling.
// ForChunks returns once every chunk has completed; a panic in fn is
// re-raised on the calling goroutine.
func (p *Pool) ForChunks(n, grain int, fn func(lo, hi int)) {
	p.forChunks(nil, n, grain, fn)
}

// ForChunksCtx is ForChunks with cooperative cancellation: once ctx is
// cancelled no further chunks are claimed and ctx.Err() is returned (nil on
// a complete run). Chunks already executing finish, and the call returns
// only after every participating worker has drained — pool workers outlive
// the call by design, so cancellation never leaks goroutines mid-task.
// On cancellation the per-index outputs are only partially written; callers
// must discard them and propagate the error.
func (p *Pool) ForChunksCtx(ctx context.Context, n, grain int, fn func(lo, hi int)) error {
	p.forChunks(ctx, n, grain, fn)
	return ctx.Err()
}

func (p *Pool) forChunks(ctx context.Context, n, grain int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if grain < 1 {
		grain = minChunk
	}
	chunks := (n + grain - 1) / grain
	if chunks <= 1 || p.workers == 1 {
		if ctx != nil && ctx.Err() != nil {
			return
		}
		fn(0, n)
		return
	}

	var (
		next     atomic.Int64
		panicked atomic.Pointer[panicValue]
		wg       sync.WaitGroup
	)
	run := func() {
		defer wg.Done()
		defer func() {
			if r := recover(); r != nil {
				panicked.CompareAndSwap(nil, &panicValue{r})
				// Drain remaining chunks so other participants finish fast.
				next.Store(int64(chunks))
			}
		}()
		for {
			if ctx != nil && ctx.Err() != nil {
				next.Store(int64(chunks))
				return
			}
			c := int(next.Add(1)) - 1
			if c >= chunks {
				return
			}
			lo := c * grain
			hi := lo + grain
			if hi > n {
				hi = n
			}
			fn(lo, hi)
		}
	}

	helpers := p.workers - 1
	if helpers > chunks-1 {
		helpers = chunks - 1
	}
	wg.Add(1 + helpers)
	submitted := 0
submit:
	for submitted < helpers {
		select {
		case p.tasks <- run:
			submitted++
		default:
			// Pool saturated (e.g. a nested call): the caller picks up the
			// slack, which keeps nesting deadlock-free.
			break submit
		}
	}
	for i := submitted; i < helpers; i++ {
		wg.Done()
	}
	run()
	wg.Wait()
	if pv := panicked.Load(); pv != nil {
		panic(pv.v)
	}
}

type panicValue struct{ v any }
