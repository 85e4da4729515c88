package core

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/operators"
	"repro/internal/parallel"
)

// This file implements the streaming generate-and-filter stage of Fit:
// candidate features are generated chunk by chunk and IV-filtered as soon
// as a chunk completes, so the candidate set X̂ of Algorithm 1 never fully
// materialises. Columns of candidates the IV filter rejects go straight
// back to the arena, turning per-round allocation from O(candidates) into
// O(selected). The observable results (candidate counts, surviving set,
// selection) are identical to the materialise-then-filter formulation.

// genSpec records how a generated candidate is computed: the operator and
// the indices of its inputs in the round's live set.
type genSpec struct {
	op    operators.Operator
	feats []int
}

// candEntry is one candidate of a round: a base (live) feature or a
// generated one. Generated entries whose IV fails the filter have their
// column recycled (lf.train == nil, dropped == true) but keep their fitted
// applier and inputs so the rare min-keep fallback can regenerate them.
type candEntry struct {
	lf      *liveFeature
	spec    genSpec // zero op for base features
	applier operators.Applier
	in      [][]float64 // the input columns spec.feats names
	iv      float64
	dropped bool
}

// streamChunk is how many generated candidates buffer between flushes:
// large enough to keep the pool busy, small enough that the transient
// column memory stays modest (streamChunk × rows × 8 bytes).
const streamChunk = 32

// candidateStream owns the per-round streaming state. generate does what
// must be serial — fitting the operator, the formula de-dup, taking a column
// from the arena — and queues the candidate; flush computes and scores the
// queued columns on the pool, one worker per candidate.
type candidateStream struct {
	ctx      context.Context
	cfg      *Config
	pool     *parallel.Pool
	arena    *operators.Arena
	live     []*liveFeature
	labels   []float64
	existing map[string]bool

	entries   []*candEntry // all candidates in deterministic order
	pending   []*candEntry // fitted, awaiting their column and IV
	scratches scratchList
	generated int // total generated (post formula-dedup), including dropped
	// ivTime accumulates the share of the stream's wall time spent inside
	// the criterion computations it interleaves with generation, so the fit
	// can attribute it to the IV stage rather than generation.
	ivTime time.Duration
}

func newCandidateStream(ctx context.Context, cfg *Config, pool *parallel.Pool, arena *operators.Arena, live []*liveFeature, labels []float64) *candidateStream {
	st := &candidateStream{
		ctx:      ctx,
		cfg:      cfg,
		pool:     pool,
		arena:    arena,
		live:     live,
		labels:   labels,
		existing: make(map[string]bool, 2*len(live)),
		entries:  make([]*candEntry, 0, 2*len(live)),
		pending:  make([]*candEntry, 0, streamChunk),
	}
	for _, lf := range live {
		st.existing[lf.name] = true
	}
	return st
}

// addBase registers the round's live features as candidates and computes
// their IVs in one parallel sweep (they are filtered like any candidate but
// their columns are frame- or prior-round-owned, so never recycled here).
func (st *candidateStream) addBase() {
	cols := make([][]float64, len(st.live))
	for i, lf := range st.live {
		cols[i] = lf.train
	}
	t0 := time.Now()
	ivs := computeCriteria(cols, st.labels, st.cfg.Task, st.cfg.IVBins, st.cfg.IVEqualWidth, st.pool, &st.scratches)
	st.ivTime += time.Since(t0)
	for i, lf := range st.live {
		lf.iv = ivs[i]
		st.entries = append(st.entries, &candEntry{lf: lf, iv: ivs[i]})
	}
}

// generate fits op to the live features at feats and queues the new
// candidate for the next flush. Duplicate formulas are skipped. The context
// is checked per candidate, making generation the most finely cancellable
// stage of a fit.
func (st *candidateStream) generate(op operators.Operator, feats []int) error {
	if err := st.ctx.Err(); err != nil {
		return st.abort(err)
	}
	in := make([][]float64, len(feats))
	names := make([]string, len(feats))
	for i, f := range feats {
		in[i] = st.live[f].train
		names[i] = st.live[f].name
	}
	// Fit stays on this goroutine: SetLabels mutates the shared operator.
	if d, ok := op.(*operators.DiscretizeOp); ok {
		d.SetLabels(st.labels)
	}
	applier, err := op.Fit(in)
	if err != nil {
		return st.abort(fmt.Errorf("core: generate %s: %w", op.Name(), err))
	}
	name := applier.Formula(names)
	if st.existing[name] {
		return nil
	}
	st.existing[name] = true
	st.generated++

	lf := &liveFeature{
		name:   name,
		train:  st.arena.Get(),
		pooled: true,
		node: &FeatureNode{
			Name:    name,
			Inputs:  names,
			Applier: applier,
		},
	}
	st.pending = append(st.pending, &candEntry{
		lf:      lf,
		spec:    genSpec{op: op, feats: append([]int(nil), feats...)},
		applier: applier,
		in:      in,
	})
	if len(st.pending) >= streamChunk {
		return st.flush()
	}
	return nil
}

// flush computes, sanitises and scores the pending candidates on the pool —
// each column by one worker, scored while it is still in that worker's cache
// — and applies the stream filter: candidates at or below the threshold hand
// their column back to the arena immediately. A candidate's IV depends on
// its column alone, so the entries are the same for any pool size. A
// cancelled context returns ctx.Err() with the pending columns released.
func (st *candidateStream) flush() error {
	pending := st.pending
	if len(pending) == 0 {
		return nil
	}
	cfg := st.cfg
	var applyNs, critNs atomic.Int64
	t0 := time.Now()
	err := st.pool.ForChunksCtx(st.ctx, len(pending), st.pool.Grain(len(pending)), func(lo, hi int) {
		sc := st.scratches.get()
		defer st.scratches.put(sc)
		var apply, crit time.Duration
		for _, en := range pending[lo:hi] {
			t1 := time.Now()
			applyColumn(en)
			t2 := time.Now()
			en.iv = sc.criterion(en.lf.train, st.labels, cfg.Task, cfg.IVBins, cfg.IVEqualWidth)
			apply += t2.Sub(t1)
			crit += time.Since(t2)
		}
		applyNs.Add(int64(apply))
		critNs.Add(int64(crit))
	})
	if err != nil {
		return st.abort(err)
	}
	// The workers' summed criterion and apply times divide the flush's wall
	// time between the IV and the generate stage.
	if busy := applyNs.Load() + critNs.Load(); busy > 0 {
		st.ivTime += time.Duration(float64(time.Since(t0)) * float64(critNs.Load()) / float64(busy))
	}
	for _, en := range pending {
		en.lf.iv = en.iv
		if en.iv <= cfg.IVThreshold {
			en.dropped = true
			st.arena.Put(en.lf.train)
			en.lf.train = nil
		}
		st.entries = append(st.entries, en)
	}
	st.pending = st.pending[:0]
	return nil
}

// abort hands the pending candidates' columns back to the arena and returns
// err: the stream stops at its first error.
func (st *candidateStream) abort(err error) error {
	for _, en := range st.pending {
		st.arena.Put(en.lf.train)
		en.lf.train = nil
	}
	st.pending = st.pending[:0]
	return err
}

// applyColumn computes a generated candidate's column into its buffer and
// replaces NaN/Inf with 0.
func applyColumn(en *candEntry) {
	operators.TransformColumn(en.applier, en.in, en.lf.train)
	sanitize(en.lf.train)
}

// finish flushes the tail chunk and returns every candidate entry.
func (st *candidateStream) finish() ([]*candEntry, error) {
	if err := st.flush(); err != nil {
		return nil, err
	}
	return st.entries, nil
}

// keptAfterIV returns the indices (into entries) surviving Algorithm 3:
// IV strictly above the threshold, with the same top-minKeep fallback the
// ivFilter helper applies. Fallback winners whose columns were recycled are
// regenerated from their specs.
func (st *candidateStream) keptAfterIV(entries []*candEntry, minKeep int) []int {
	ivs := make([]float64, len(entries))
	for i, en := range entries {
		ivs[i] = en.iv
	}
	kept := ivFilter(ivs, st.cfg.IVThreshold, minKeep)
	for _, idx := range kept {
		if en := entries[idx]; en.dropped {
			st.regenerate(en)
		}
	}
	return kept
}

// regenerate rebuilds a recycled candidate column from its fitted applier.
func (st *candidateStream) regenerate(en *candEntry) {
	en.lf.train = st.arena.Get()
	applyColumn(en)
	en.dropped = false
}

// scratchList is the stream's free list of criterion scratches: a pool chunk
// takes one for its candidates and puts it back, so a fit allocates as many
// as chunks ever run at once (at most the pool's workers) instead of one per
// chunk per flush. The zero value is ready to use.
type scratchList struct {
	mu   sync.Mutex
	free []*criterionScratch
}

func (l *scratchList) get() *criterionScratch {
	l.mu.Lock()
	defer l.mu.Unlock()
	if n := len(l.free); n > 0 {
		s := l.free[n-1]
		l.free = l.free[:n-1]
		return s
	}
	return new(criterionScratch)
}

func (l *scratchList) put(s *criterionScratch) {
	l.mu.Lock()
	l.free = append(l.free, s)
	l.mu.Unlock()
}
