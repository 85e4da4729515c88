package shard

import (
	"context"
	"errors"
	"io"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/frame"
	"repro/internal/operators"
	"repro/internal/parallel"
	"repro/internal/sketch"
)

// localExec is the in-process Executor, the one Fit installs when
// Config.Exec is nil. It streams the fit's own source — behind the
// transient-read retry wrapper and the prefetcher's chunk leases — through
// the same ComputePartial kernels a distributed worker runs, one
// WorkerState per pool slot, and hands every *Partial to the fold by
// pointer in partition-index order. Nothing is serialised; the partial's
// pooled buffers return to the shared arena right after its fold.
type localExec struct {
	src   frame.ChunkSource // the stream passes read: base, retry- and prefetch-wrapped
	base  frame.ChunkSource // unwrapped source, for SkippableSource planning
	pf    *frame.Prefetch   // non-nil when chunks are leased (parallel/read-ahead)
	pool  *parallel.Pool
	reg   *operators.Registry
	arena *sketch.Arena

	states []*WorkerState // one per pool slot

	retries  int64 // absorbed transient reads; written atomically by the retry source
	reported int64 // retries already returned in a PassResult
}

// newLocalExec wraps src for in-process passes on the shared worker pool the
// normalised core config asks for. The caller closes it.
func newLocalExec(ctx context.Context, src frame.ChunkSource, cfg Config, norm *core.Config, arena *sketch.Arena) *localExec {
	pool := parallel.Get(1)
	if norm.Parallel {
		pool = parallel.Get(norm.Workers)
	}
	l := &localExec{base: src, pool: pool, reg: norm.Registry, arena: arena}
	// Transient-read retries wrap the raw source BELOW the prefetcher: a
	// retried read resolves inside one Next call, so it never becomes a
	// sticky stream error and the fold order is untouched.
	l.src = NewRetrySource(ctx, src, cfg.Retry, &l.retries)
	// Parallel passes need the prefetcher's lease semantics (each worker owns
	// its chunk until its partial is computed); a single-worker fit uses it
	// only when read-ahead is requested, keeping the sequential path
	// zero-copy by default.
	if depth := prefetchDepth(cfg.Prefetch, pool.Workers()); depth > 0 {
		l.pf = frame.NewPrefetch(l.src, depth, pool.Workers())
		l.src = l.pf
	}
	return l
}

// close stops the prefetcher's reader, if any.
func (l *localExec) close() {
	if l.pf != nil {
		l.pf.Close()
	}
}

// Open implements Executor: one worker state per pool slot. They share the
// fit's arena, because a partial computed on one slot is released by
// whichever slot folds it, and resolve operators in the fit's own registry.
func (l *localExec) Open(_ context.Context, names []string, task core.Task, sketchSize int) error {
	l.states = make([]*WorkerState, l.pool.Workers())
	for i := range l.states {
		l.states[i] = newWorkerState(names, task, sketchSize, l.reg, l.arena)
	}
	return nil
}

// SetLive implements Executor.
func (l *localExec) SetLive(_ context.Context, epoch int, nodes []NodeSpec, live []string) error {
	for _, ws := range l.states {
		if err := ws.SetLive(epoch, nodes, live); err != nil {
			return err
		}
	}
	return nil
}

// RunPass implements Executor with one full streaming pass over the source.
// Each pool slot runs one worker loop (the pool's caller participation
// guarantees progress even when every helper is busy elsewhere); a
// single-worker pool runs the one loop inline on the calling goroutine.
// Partials compute concurrently but fold serially in partition index order
// regardless of completion order, so every merged statistic accumulates
// exactly as in the single-worker pass.
func (l *localExec) RunPass(ctx context.Context, spec *PassSpec, fold func(*Partial) error) (PassResult, error) {
	// Checked before Reset, which starts the prefetcher reading ahead: a fit
	// whose context is already done must not consume a single chunk.
	if err := ctx.Err(); err != nil {
		return PassResult{}, err
	}
	if err := l.src.Reset(); err != nil {
		return PassResult{}, err
	}
	r := &passRun{l: l, ctx: ctx, spec: spec, fold: fold, pending: make(map[int]*Partial)}
	cerr := l.pool.ForChunksCtx(ctx, len(l.states), 1, func(lo, hi int) {
		for slot := lo; slot < hi; slot++ {
			r.worker(l.states[slot])
		}
	})
	if r.err != nil {
		return PassResult{}, r.err
	}
	if cerr != nil {
		return PassResult{}, cerr
	}
	total := atomic.LoadInt64(&l.retries)
	res := PassResult{Rows: r.rows, Parts: r.nextFold, Retries: total - l.reported}
	l.reported = total
	return res, nil
}

// passRun coordinates one pass: chunk handout order defines the partition
// sequence, and deposits drain the pending map in that sequence.
type passRun struct {
	l    *localExec
	ctx  context.Context
	spec *PassSpec
	fold func(*Partial) error

	mu       sync.Mutex
	nextSeq  int // next partition index to hand out
	nextFold int // next partition index to fold
	pending  map[int]*Partial
	rows     int
	eof      bool
	err      error
}

// fail records the first error and stops further handouts.
func (r *passRun) fail(err error) {
	r.mu.Lock()
	if r.err == nil {
		r.err = err
	}
	r.eof = true
	r.mu.Unlock()
}

// worker pulls chunks until the stream ends: read (serialized, which pins
// seq to source order, with the context checked before every chunk), compute
// concurrently, then deposit and fold every consecutively available
// partition. The chunk's lease is recycled before its partial can fold — a
// partial references no chunk memory. Each worker holds at most one chunk
// lease and one undeposited partial, so pending stays bounded by the worker
// count with no extra back-pressure machinery.
func (r *passRun) worker(ws *WorkerState) {
	for {
		r.mu.Lock()
		if r.err != nil || r.eof {
			r.mu.Unlock()
			return
		}
		if err := r.ctx.Err(); err != nil {
			r.mu.Unlock()
			r.fail(err)
			return
		}
		c, err := r.l.src.Next()
		if err != nil {
			if errors.Is(err, io.EOF) {
				r.eof = true
				r.mu.Unlock()
				return
			}
			chunk := r.nextSeq
			r.mu.Unlock()
			r.fail(passReadError(err, r.spec.Pass, chunk))
			return
		}
		seq := r.nextSeq
		r.nextSeq++
		r.mu.Unlock()

		p, err := ws.ComputePartial(r.spec, c)
		if r.l.pf != nil {
			r.l.pf.Recycle(c)
		}
		if err != nil {
			r.fail(err)
			return
		}

		r.mu.Lock()
		r.pending[seq] = p
		for r.err == nil {
			q, ok := r.pending[r.nextFold]
			if !ok {
				break
			}
			delete(r.pending, r.nextFold)
			r.nextFold++
			if err := r.fold(q); err != nil {
				r.err = err
				r.eof = true
				break
			}
			r.rows += q.Rows
			ws.Release(q)
		}
		r.mu.Unlock()
	}
}
