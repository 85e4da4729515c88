package shard

import (
	"context"
	"errors"
	"io"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/frame"
	"repro/internal/operators"
	"repro/internal/parallel"
	"repro/internal/sketch"
)

// localExec is the in-process Executor, the one Fit installs when
// Config.Exec is nil. It streams the fit's own source — behind the
// transient-read retry wrapper and, on a parallel fit, the prefetcher — one
// chunk at a time through the same ComputePartial kernel a distributed worker
// runs, and hands each *Partial to the fold by pointer. The parallelism is
// inside the kernel and inside the fold, across the chunk's columns; the
// partitions themselves go through in source order, so there is no fold
// order to restore and never more than one partial alive. Nothing is
// serialised; the partial's pooled buffers return to the shared arena right
// after its fold.
type localExec struct {
	src   frame.ChunkSource // the stream passes read: base, retry- and prefetch-wrapped
	base  frame.ChunkSource // unwrapped source, for SkippableSource planning
	pf    *frame.Prefetch   // non-nil when chunks are read ahead
	pool  *parallel.Pool
	reg   *operators.Registry
	arena *sketch.Arena

	ws *WorkerState

	retries  int64 // absorbed transient reads; written atomically by the retry source
	reported int64 // retries already returned in a PassResult
}

// newLocalExec wraps src for in-process passes on the fit's pool. The caller
// closes it.
func newLocalExec(ctx context.Context, src frame.ChunkSource, cfg Config, pool *parallel.Pool, reg *operators.Registry, arena *sketch.Arena) *localExec {
	l := &localExec{base: src, pool: pool, reg: reg, arena: arena}
	// Transient-read retries wrap the raw source BELOW the prefetcher: a
	// retried read resolves inside one Next call, so it never becomes a
	// sticky stream error.
	l.src = NewRetrySource(ctx, src, cfg.Retry, &l.retries)
	// A pool with a worker to spare reads two chunks ahead: decode of the next
	// overlaps compute of this one. One consumer holds one chunk at a time, so
	// the lease pool is the read-ahead plus that one; on a one-worker pool the
	// source's own chunk is used as it is (zero-copy).
	if pool.Workers() > 1 {
		l.pf = frame.NewPrefetch(l.src, 2, 1)
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

// Open implements Executor. The worker state shares the fit's arena, because
// the fold returns merged sketches to it while the kernel draws the next
// chunk's from it, and resolves operators in the fit's own registry.
func (l *localExec) Open(_ context.Context, names []string, task core.Task, sketchSize int) error {
	l.ws = newWorkerState(names, task, sketchSize, l.reg, l.arena, l.pool)
	return nil
}

// SetLive implements Executor.
func (l *localExec) SetLive(_ context.Context, epoch int, nodes []NodeSpec, live []string) error {
	return l.ws.SetLive(epoch, nodes, live)
}

// RunPass implements Executor with one full streaming pass over the source:
// next chunk (already read ahead when there is a prefetcher), compute its
// partial, recycle the chunk — a partial references no chunk memory — fold,
// release. The context is checked before every chunk and inside the kernel's
// and the fold's column loops.
func (l *localExec) RunPass(ctx context.Context, spec *PassSpec, fold func(*Partial) error) (PassResult, error) {
	// Checked before Reset, which starts the prefetcher reading ahead: a fit
	// whose context is already done must not consume a single chunk.
	if err := ctx.Err(); err != nil {
		return PassResult{}, err
	}
	if err := l.src.Reset(); err != nil {
		return PassResult{}, err
	}
	var res PassResult
	for {
		if err := ctx.Err(); err != nil {
			return PassResult{}, err
		}
		c, err := l.src.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return PassResult{}, passReadError(err, spec.Pass, res.Parts)
		}
		p, err := l.ws.ComputePartial(ctx, spec, c)
		if l.pf != nil {
			l.pf.Recycle(c)
		}
		if err != nil {
			return PassResult{}, err
		}
		rows := p.Rows
		err = fold(p)
		l.ws.Release(p)
		if err != nil {
			return PassResult{}, err
		}
		res.Rows += rows
		res.Parts++
	}
	total := atomic.LoadInt64(&l.retries)
	res.Retries = total - l.reported
	l.reported = total
	return res, nil
}
