package core

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/frame"
	"repro/internal/gbdt"
	"repro/internal/metrics"
	"repro/internal/operators"
	"repro/internal/parallel"
	"repro/internal/stats"
)

// This file is the in-memory WorkingSet: every column is a resident
// []float64. Its generate stage streams: candidate features are computed
// chunk by chunk and IV-scored as soon as a chunk completes, and every
// scored column goes straight back to the arena, so the candidate set X̂ of
// Algorithm 1 never fully materialises. A candidate's values are a pure
// function of its fitted applier and inputs, so the stages after the IV
// filter rebuild the few they need: Pearson (Correlated) computes each IV
// survivor into an arena column and standardises it in place, and ranking
// (Bin) turns the Pearson survivors' buffers back into raw values. Each
// candidate column is held once, and the observable results (candidate
// counts, surviving set, selection) are identical to the
// materialise-then-filter formulation.

// liveFeature is the in-memory Column: the loop's record beside the
// feature's training (and optionally validation) values. A generated
// feature's train column is owned by the fit arena: it is nil between its
// IV score and its rebuild for ranking, and again once the feature leaves
// the working set.
type liveFeature struct {
	Feature
	train []float64
	valid []float64   // nil when fitting without a validation frame
	std   []float64   // its standardised values, an arena buffer, from Correlated to Bin or Carry
	in    [][]float64 // a generated feature's applier inputs: what train is rebuilt from
}

// candEntry is the stream's view of one candidate of a round: a base (live)
// feature or a generated one, whose candidate — its fitted applier and
// inputs — rebuilds its column whenever a later stage needs it.
type candEntry struct {
	lf   *liveFeature
	cand *Candidate // nil for base features
	iv   float64
}

// streamChunk is how many generated candidates buffer between flushes:
// large enough to keep the pool busy, small enough that the transient
// column memory stays modest (streamChunk × rows × 8 bytes).
const streamChunk = 32

// memorySet is the in-memory working set of one fit. queue takes a
// candidate's column from the arena and flush computes and scores the queued
// columns on the pool, one worker per candidate.
type memorySet struct {
	ctx    context.Context
	cfg    *Config
	pool   *parallel.Pool
	arena  *operators.Arena
	labels []float64
	code   *stats.TargetCode // the regression criterion's coded labels
	// validLabels is non-nil when the fit tracks a validation frame: every
	// live feature then carries its validation column.
	validLabels []float64
	live        []*liveFeature
	rows        int64 // Opened.Rows

	entries   []*candEntry // the round's candidates, in the loop's order
	pending   []*candEntry // queued, awaiting their column and IV
	scratches scratchList
	// ivTime accumulates the share of Generate's wall time spent inside the
	// criterion computations it interleaves with generation.
	ivTime time.Duration
}

// newMemorySet opens the working set over train's columns; valid, when
// non-nil, must name every one of them.
func newMemorySet(ctx context.Context, cfg *Config, pool *parallel.Pool, train, valid *frame.Frame) (*memorySet, error) {
	m := &memorySet{
		ctx:     ctx,
		cfg:     cfg,
		pool:    pool,
		arena:   operators.NewArena(train.NumRows()),
		labels:  train.Label,
		code:    codeTarget(train.Label, cfg.Task),
		live:    make([]*liveFeature, train.NumCols()),
		pending: make([]*candEntry, 0, streamChunk),
	}
	for j := range m.live {
		lf := &liveFeature{Feature: Feature{Name: train.Columns[j].Name}, train: train.Columns[j].Values}
		if valid != nil {
			vcol, ok := valid.ColByName(lf.Name)
			if !ok {
				return nil, fmt.Errorf("core: validation frame lacks column %q", lf.Name)
			}
			lf.valid = vcol
		}
		m.live[j] = lf
	}
	if valid != nil {
		m.validLabels = valid.Label
	}
	return m, nil
}

// Open implements WorkingSet: the frame is resident already.
func (m *memorySet) Open() (Opened, error) {
	live := make([]Column, len(m.live))
	for i, lf := range m.live {
		live[i] = lf
	}
	return Opened{Live: live, Labels: m.labels, Rows: &m.rows, ScanRows: int64(len(m.labels))}, nil
}

// Inputs implements WorkingSet with the live features' raw columns.
func (m *memorySet) Inputs(feats []int) [][]float64 {
	in := make([][]float64, len(feats))
	for i, f := range feats {
		in[i] = m.live[f].train
	}
	return in
}

// Bin implements WorkingSet with the binner gbdt.Train runs. A generated
// candidate without its raw column — a Pearson survivor on its way to the
// ranker — has it rebuilt first, on the pool, in the buffer that held its
// standardised values.
func (m *memorySet) Bin(cols []Column, cfg gbdt.Config) error {
	raw := make([][]float64, len(cols))
	var rebuild []*liveFeature
	for i, c := range cols {
		lf := c.(*liveFeature)
		if lf.train == nil {
			m.arena.Put(lf.std) // Get hands the last buffer Put back
			lf.train, lf.std = m.arena.Get(), nil
			rebuild = append(rebuild, lf)
		}
		raw[i] = lf.train
	}
	err := m.pool.ForChunksCtx(m.ctx, len(rebuild), m.pool.Grain(len(rebuild)), func(lo, hi int) {
		for _, lf := range rebuild[lo:hi] {
			Apply(lf.Node.Applier, lf.in, lf.train)
		}
	})
	if err != nil {
		return err
	}
	pb, err := gbdt.BinColumns(raw, cfg)
	if err != nil {
		return err
	}
	for i, c := range cols {
		f := c.Record()
		f.Codes, f.Cuts, f.Bins = pb.Codes[i], pb.Cuts[i], cfg.MaxBins
	}
	return nil
}

// Generate implements WorkingSet: the base features' criteria in one
// parallel sweep, then the generated candidates through the stream.
func (m *memorySet) Generate(cands []*Candidate) (time.Duration, error) {
	m.entries = make([]*candEntry, 0, len(cands))
	m.ivTime = 0
	m.addBase()
	for _, c := range cands[len(m.live):] {
		if err := m.queue(c); err != nil {
			return 0, err
		}
	}
	if err := m.flush(); err != nil {
		return 0, err
	}
	return m.ivTime, nil
}

// addBase registers the round's live features as candidates and computes
// their IVs (they are filtered like any candidate but their columns are
// frame- or prior-round-owned, so never recycled here).
func (m *memorySet) addBase() {
	cols := make([][]float64, len(m.live))
	for i, lf := range m.live {
		cols[i] = lf.train
	}
	t0 := time.Now()
	ivs := computeCriteria(cols, m.labels, m.code, m.cfg.Task, m.cfg.IVBins, m.cfg.IVEqualWidth, m.pool, &m.scratches)
	m.ivTime += time.Since(t0)
	for i, lf := range m.live {
		m.entries = append(m.entries, &candEntry{lf: lf, iv: ivs[i]})
	}
}

// queue gives a generated candidate its column and holds it for the next
// flush.
func (m *memorySet) queue(c *Candidate) error {
	lf := &liveFeature{Feature: Feature{Name: c.Node.Name, Node: c.Node}, train: m.arena.Get(), in: c.In}
	c.Column = lf
	m.pending = append(m.pending, &candEntry{lf: lf, cand: c})
	if len(m.pending) >= streamChunk {
		return m.flush()
	}
	return nil
}

// flush computes, sanitises and scores the pending candidates on the pool —
// each column by one worker, scored while it is still in that worker's cache
// — and hands every column back to the arena. A candidate's IV depends on
// its column alone, so the entries are the same for any pool size. A
// cancelled context returns ctx.Err() with the pending columns released and
// no entry admitted.
func (m *memorySet) flush() error {
	pending := m.pending
	if len(pending) == 0 {
		return nil
	}
	cfg := m.cfg
	var applyNs, critNs atomic.Int64
	t0 := time.Now()
	err := m.pool.ForChunksCtx(m.ctx, len(pending), m.pool.Grain(len(pending)), func(lo, hi int) {
		sc := m.scratches.get()
		defer m.scratches.put(sc)
		var apply, crit time.Duration
		for _, en := range pending[lo:hi] {
			t1 := time.Now()
			Apply(en.cand.Node.Applier, en.cand.In, en.lf.train)
			t2 := time.Now()
			en.iv = sc.criterion(en.lf.train, m.labels, m.code, cfg.Task, cfg.IVBins, cfg.IVEqualWidth)
			apply += t2.Sub(t1)
			crit += time.Since(t2)
		}
		applyNs.Add(int64(apply))
		critNs.Add(int64(crit))
	})
	if err != nil {
		return m.release(err)
	}
	// The workers' summed criterion and apply times divide the flush's wall
	// time between the IV and the generate stage.
	if busy := applyNs.Load() + critNs.Load(); busy > 0 {
		m.ivTime += time.Duration(float64(time.Since(t0)) * float64(critNs.Load()) / float64(busy))
	}
	m.entries = append(m.entries, pending...)
	return m.release(nil)
}

// release hands the pending candidates' columns back to the arena, empties
// the queue and returns err: the stream stops at its first error.
func (m *memorySet) release(err error) error {
	for _, en := range m.pending {
		m.arena.Put(en.lf.train)
		en.lf.train = nil
	}
	m.pending = m.pending[:0]
	return err
}

// Criteria implements WorkingSet: Generate scored every candidate already.
func (m *memorySet) Criteria([]*Candidate) ([]float64, error) {
	ivs := make([]float64, len(m.entries))
	for i, en := range m.entries {
		ivs[i] = en.iv
	}
	return ivs, nil
}

// Correlated implements WorkingSet on the kept candidates' standardised
// columns, each an arena buffer: a generated candidate is rebuilt into it
// from its fitted applier, a base one copied, and standardised in place in
// the same pool task.
func (m *memorySet) Correlated(_ []*Candidate, kept []int) (func(j int, among []int) bool, error) {
	for _, idx := range kept {
		m.entries[idx].lf.std = m.arena.Get()
	}
	return pearsonTest(m.ctx, len(m.entries), kept, m.cfg.PearsonThreshold, m.pool, func(j int) []float64 {
		en := m.entries[j]
		if en.cand == nil {
			copy(en.lf.std, en.lf.train)
		} else {
			Apply(en.cand.Node.Applier, en.cand.In, en.lf.std)
		}
		return en.lf.std
	})
}

// Carry implements WorkingSet: the selection's generated features get their
// validation columns (computed here, for the selected few, instead of for
// every candidate at generation time), and every standardised buffer and
// every arena column that is not selected — this round's rejects, and prior
// rounds' features that just left the working set — is recycled.
func (m *memorySet) Carry(_ []*Candidate, selected []int, _ []FeatureNode) error {
	next := make([]*liveFeature, len(selected))
	carried := make(map[*liveFeature]bool, len(selected))
	for i, idx := range selected {
		en := m.entries[idx]
		next[i], carried[en.lf] = en.lf, true
		en.lf.in = nil // live from here on: its raw column stays
		if m.validLabels == nil || en.cand == nil {
			continue
		}
		vin := make([][]float64, len(en.cand.Feats))
		for k, f := range en.cand.Feats {
			vin[k] = m.live[f].valid
		}
		en.lf.valid = make([]float64, len(m.validLabels))
		Apply(en.cand.Node.Applier, vin, en.lf.valid)
	}
	for _, en := range m.entries {
		lf := en.lf
		m.arena.Put(lf.std)
		lf.std = nil
		if !carried[lf] && lf.Node != nil && lf.train != nil {
			m.arena.Put(lf.train)
			lf.train = nil
		}
	}
	m.live, m.entries = next, nil
	return nil
}

// validationScore scores the live set's validation columns under the
// evaluator the loop trained on its training codes, with the task's
// validation metric: AUC for binary, exact-match accuracy for multiclass,
// negative RMSE for regression (all higher-is-better, so the early-stopping
// comparison is task-agnostic).
func (m *memorySet) validationScore(evaluator *gbdt.Model) float64 {
	vcols := make([][]float64, len(m.live))
	for i, lf := range m.live {
		vcols[i] = lf.valid
	}
	preds := evaluator.Predict(vcols)
	switch m.cfg.Task.Kind {
	case TaskMulticlass:
		return metrics.ClassAccuracy(preds, m.validLabels)
	case TaskRegression:
		return -metrics.RMSE(preds, m.validLabels)
	default:
		return metrics.AUC(preds, m.validLabels)
	}
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
