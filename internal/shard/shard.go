package shard

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/frame"
	"repro/internal/gbdt"
	"repro/internal/operators"
	"repro/internal/parallel"
	"repro/internal/sketch"
)

// Config configures a sharded fit.
type Config struct {
	// Core is the SAFE configuration, shared with the in-memory path and
	// normalised through core.NormalizeConfig, so both engines run from
	// identical effective settings.
	Core core.Config
	// SketchSize is the per-level summary size of the fit's running quantile
	// sketches (sketch.DefaultSize when <= 0): how many points a level holds
	// before merging partitions into it compacts it, so larger sizes defer the
	// error that merging adds at linearly more memory per sketched column. A
	// partition's partial is built at min(SketchSize, partialSize) points and
	// carries its own compaction error of ceil(chunk rows / that) ranks; the
	// refinement pass's gather buffers are as wide as the two errors' sum.
	SketchSize int
	// Retry bounds transient chunk-read retries (see RetryPolicy). The zero
	// value disables retrying: every read error aborts the fit immediately.
	// Retried reads re-run before the chunk is folded, so a recovered fit
	// selects features bit-identical to a fault-free run.
	Retry RetryPolicy
	// Exec, when set, replaces the in-process executor (see Executor): the
	// fit reads only the source schema from src and every streaming pass runs
	// wherever the executor runs it. The fitter is the same either way — it
	// reifies each pass into a PassSpec and folds the returned partials in
	// partition order — so selection stays bit-identical for any executor
	// worker count. Retry is ignored (fault handling moves below the executor's
	// fold); the caller owns the executor's lifecycle.
	Exec Executor
}

// DefaultConfig returns the paper's configuration with default sketches.
func DefaultConfig() Config { return Config{Core: core.DefaultConfig()} }

// Stats reports how a sharded fit consumed its source.
type Stats struct {
	// Rows is the dataset length; Partitions the chunks per pass.
	Rows       int
	Partitions int
	// Passes counts full streaming passes over the source.
	Passes int
	// RowsStreamed totals rows decoded across all passes.
	RowsStreamed int64
	// MaxQuantileRankError is the worst tracked rank-error bound across the
	// source columns' quantile sketches, in ranks of Rows: how wide the
	// refinement gather had to bracket each cut (every cut is exact
	// regardless). Generated columns are not sketched.
	MaxQuantileRankError int64
	// BlocksSkipped and RowsSkipped count source chunks (and their rows) the
	// refinement pass proved irrelevant from block statistics and never read
	// — non-zero only for frame.SkippableSource inputs (colstore files).
	// Skipped rows do not count into RowsStreamed.
	BlocksSkipped int64
	RowsSkipped   int64
	// Retries counts transient chunk-read errors absorbed by Config.Retry
	// across all passes; zero for a fault-free fit or a zero retry policy.
	Retries int64
}

// Fit learns the SAFE feature generation function Ψ from a labelled chunked
// source (Algorithm 1), never holding more than one chunk of raw values per
// pass plus the resident binned matrices. The loop is core.RunRounds — the
// one the in-memory engine runs, so the report, the per-stage timings and
// the FitEvent protocol on cfg.Core.Events are its own — over the
// out-of-core working set below; every cut is an exact order statistic, so
// the selected features and formulas match core.Fit on the same rows (see
// package doc). ctx is checked before every source chunk and every boosting round: a
// cancelled or expired context aborts the multi-pass coordinator promptly
// with ctx.Err() and leaks no goroutines.
func Fit(ctx context.Context, src frame.ChunkSource, cfg Config) (*core.Pipeline, *core.Report, *Stats, error) {
	norm, err := core.NormalizeConfig(cfg.Core)
	if err != nil {
		return nil, nil, nil, err
	}
	ops, err := norm.Registry.GetAll(norm.Operators)
	if err != nil {
		return nil, nil, nil, err
	}
	for _, op := range ops {
		if !operators.DataIndependent(op) {
			return nil, nil, nil, fmt.Errorf(
				"shard: operator %q fits parameters from data; the sharded engine supports data-independent operators only",
				op.Name())
		}
	}
	if norm.IVEqualWidth {
		return nil, nil, nil, errors.New("shard: IVEqualWidth is not supported by the sharded engine")
	}
	names := src.Names()
	if len(names) == 0 {
		return nil, nil, nil, errors.New("shard: source has no feature columns")
	}
	seen := make(map[string]bool, len(names))
	for _, name := range names {
		if name == "" {
			return nil, nil, nil, errors.New("shard: source has an empty column name")
		}
		if seen[name] {
			return nil, nil, nil, fmt.Errorf("shard: duplicate column name %q", name)
		}
		seen[name] = true
	}
	pool := norm.Pool()
	f := &fitter{
		ctx:        ctx,
		cfg:        norm,
		pool:       pool,
		sketchSize: cfg.SketchSize,
		names:      names,
		arena:      sketch.NewArena(),
		exec:       cfg.Exec,
	}
	if f.exec == nil {
		le := newLocalExec(ctx, src, cfg, pool, norm.Registry, f.arena)
		defer le.close()
		f.exec = le
	}
	p, rep, err := core.RunRounds(ctx, norm, names, f, nil)
	if err != nil {
		return nil, nil, nil, err
	}
	return p, rep, &f.stats, nil
}

// column is the out-of-core core.Column: the loop's record — whose resident
// codes are all the boosters and the combination scorer read — beside the
// merged statistics standing in for the raw values: its moments, and its cut
// table, from which every cut of it is read.
type column struct {
	core.Feature
	mom *sketch.Moments

	// The cut table: the non-NaN count, the maximum, and the exact value at
	// every rank of cutRankUnion(n) — filled from the base sketch and its
	// refiner for a source column, from the grid passes for a generated one.
	n     int64
	max   float64
	ranks []int64
	at    []float64

	// While the column is a candidate of the current round: its criterion,
	// the cuts it was counted at, a generated count-task column's per-bin
	// class counts (bin·k + class), and a generated column's grid passes'
	// state.
	crit     float64
	ivCuts   []float64
	ivCounts []int32
	grid     *gridState
}

// cuts reproduces stats.Quantiles(column, bins) exactly off the cut table:
// the same rank targets, the same deduplication. bins must be one of the bin
// counts cutRankUnion merged.
func (c *column) cuts(bins int) []float64 {
	ranks := sketch.CutRanks(c.n, bins)
	out := make([]float64, 0, len(ranks))
	t := 0
	for _, r := range ranks {
		for c.ranks[t] != r {
			t++
		}
		if v := c.at[t]; len(out) == 0 || out[len(out)-1] != v {
			out = append(out, v)
		}
	}
	return out
}

// binnerCuts is cuts with the trailing cut >= max dropped, mirroring the
// in-memory GBDT binner.
func (c *column) binnerCuts(maxBins int) []float64 {
	cuts := c.cuts(maxBins)
	if len(cuts) > 0 && cuts[len(cuts)-1] >= c.max {
		cuts = cuts[:len(cuts)-1]
	}
	return cuts
}

// constant reports a column Pearson's correlation is undefined for.
func (c *column) constant() bool { return c.mom.N == 0 || c.mom.Std() < 1e-12 }

// col is the candidate's column in this engine's representation.
func col(c *core.Candidate) *column { return c.Column.(*column) }

// fitter is the out-of-core core.WorkingSet of one fit: each of its methods
// is the streaming passes that stand in for a scan of resident columns. A
// round's candidates list the live features first, so candidate i < len(live)
// is live feature i.
type fitter struct {
	ctx        context.Context
	cfg        core.Config
	sketchSize int
	arena      *sketch.Arena  // recycles the partials' sketches and slabs
	pool       *parallel.Pool // the folds' and cut derivations' per-candidate loops run on it

	names      []string
	labels     []float64
	sample     *RowSample  // the base pass's row sample
	sampleLive [][]float64 // the live features at the sample's rows
	n          int
	passExpect int // expected rows of the current (possibly partial) pass; 0 = full
	live       []*column

	exec      Executor // runs every pass: Config.Exec, or the in-process executor
	liveEpoch int      // live-set epoch last pushed through exec.SetLive

	stats Stats
}

// each runs fn(i) for every i in [0,n) on the fit's pool — the per-candidate
// loop of a fold or a cut derivation. fn must touch only candidate i's state;
// the candidates are then each folded in partition order, whatever the pool.
func (f *fitter) each(n int, fn func(i int) error) error {
	return forRange(f.ctx, f.pool, n, f.pool.Grain(n), func(lo, hi int) error {
		for i := lo; i < hi; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	})
}

// trackSketch folds a sketch's error bound into the fit statistics.
func (f *fitter) trackSketch(sk *sketch.Quantile) {
	if b := sk.ErrorBound(); b > f.stats.MaxQuantileRankError {
		f.stats.MaxQuantileRankError = b
	}
}

// Open implements core.WorkingSet with the three pre-iteration passes: labels,
// the row sample, and per-feature quantile sketches and moments; the
// refinement of the sketches' cut brackets to exact order statistics (no pass
// at all when the sketches are lossless), which fills the cut tables; the
// resident miner codes of the original live set. Events' Rows are the rows
// runPass streams.
func (f *fitter) Open() (core.Opened, error) {
	if err := f.exec.Open(f.ctx, f.names, f.cfg.Task, f.sketchSize); err != nil {
		return core.Opened{}, err
	}
	f.live = make([]*column, len(f.names))
	live := make([]core.Column, len(f.names))
	sks := make([]*sketch.Quantile, len(f.names))
	for j, name := range f.names {
		f.live[j] = &column{Feature: core.Feature{Name: name}, mom: &sketch.Moments{}}
		sks[j] = sketch.NewQuantile(f.sketchSize)
		live[j] = f.live[j]
	}
	if err := f.passBaseSketch(sks); err != nil {
		return core.Opened{}, err
	}
	if f.n == 0 {
		return core.Opened{}, errors.New("shard: source has no rows")
	}
	if err := f.cfg.Task.ValidateLabels(f.labels); err != nil {
		return core.Opened{}, err
	}
	if err := f.refineLive(sks); err != nil {
		return core.Opened{}, err
	}
	for _, sk := range sks {
		f.trackSketch(sk)
	}
	if err := f.syncLive(nil); err != nil {
		return core.Opened{}, err
	}
	if err := f.Bin(live, f.cfg.Miner); err != nil {
		return core.Opened{}, err
	}
	return core.Opened{Live: live, Labels: f.labels, Rows: &f.stats.RowsStreamed}, nil
}

// Inputs implements core.WorkingSet: no raw column is resident, and the
// operators Fit admitted need none.
func (f *fitter) Inputs(feats []int) [][]float64 { return make([][]float64, len(feats)) }

// Bin implements core.WorkingSet: exact cuts off the refined sketches, then
// one codes pass. The pass addresses columns by live index, so what it bins
// is the live set, whole — which is what the loop asks for: the generated
// candidates are coded by the redundancy pass (Correlated).
func (f *fitter) Bin(cols []core.Column, cfg gbdt.Config) error {
	if len(cols) != len(f.live) {
		return fmt.Errorf("shard: asked to bin %d columns; the codes pass bins the %d live features", len(cols), len(f.live))
	}
	if err := f.each(len(cols), func(j int) error {
		lf := f.live[j]
		if cols[j] != core.Column(lf) {
			return fmt.Errorf("shard: asked to bin %q, which is not live feature %d", cols[j].Record().Name, j)
		}
		lf.Cuts = lf.binnerCuts(cfg.MaxBins)
		lf.Codes, lf.Bins = make([]uint8, f.n), cfg.MaxBins
		return nil
	}); err != nil {
		return err
	}
	return f.passLiveCodes()
}

// Generate implements core.WorkingSet: lay each generated column's grid over
// its values at the row sample and count it on that grid in one pass — the
// first half of the in-memory kernel's two scans (grid.go); Criteria's gather
// pass is the second.
func (f *fitter) Generate(cands []*core.Candidate) (time.Duration, error) {
	gens := cands[len(f.live):]
	if err := f.each(len(gens), func(i int) error {
		c := gens[i]
		g, err := genSpec(c)
		if err != nil {
			return err
		}
		c.Column = &column{
			Feature: core.Feature{Name: c.Node.Name, Node: c.Node},
			mom:     &sketch.Moments{},
			max:     math.Inf(-1),
			grid:    newGridState(g, c.Node.Applier, f.sampleLive, &f.cfg),
		}
		return nil
	}); err != nil {
		return 0, err
	}
	if len(gens) == 0 {
		return 0, nil
	}
	return 0, f.passGridCounts(gens)
}

// Criteria implements core.WorkingSet: one gather pass resolves every
// generated column's cut table exactly and, for a count task, its criterion
// counts, beside the live features' criterion histograms at their known
// cuts; the regression criterion then bins every candidate in one more pass.
func (f *fitter) Criteria(cands []*core.Candidate) ([]float64, error) {
	for _, lf := range f.live {
		lf.ivCuts = lf.cuts(f.cfg.IVBins)
	}
	if err := f.passGather(cands); err != nil {
		return nil, err
	}
	if f.cfg.Task.Kind == core.TaskRegression {
		if err := f.passCandidateCounts(cands); err != nil {
			return nil, err
		}
	}
	ivs := make([]float64, len(cands))
	for i, c := range cands {
		ivs[i] = col(c).crit
	}
	return ivs, nil
}

// Correlated implements core.WorkingSet from one Gram pass over the kept
// candidates: two of them correlate above θ when their standardised dot
// product exceeds θ·n. The same pass codes, at the ranker's bin count, every
// kept candidate that does not carry such codes yet, so the loop's ranking
// stage finds nothing left to bin.
func (f *fitter) Correlated(cands []*core.Candidate, kept []int) (func(j int, among []int) bool, error) {
	g, err := f.passGramAndCodes(cands, kept)
	if err != nil {
		return nil, err
	}
	pos := make(map[int]int, len(kept)) // candidate index -> gram column
	for gi, idx := range kept {
		pos[idx] = gi
	}
	limit := f.cfg.PearsonThreshold * float64(f.n)
	return func(j int, among []int) bool {
		cj := col(cands[j])
		if cj.constant() {
			// Constant columns correlate with nothing by convention; the
			// ranker buries them, exactly as in memory.
			return false
		}
		for _, k := range among {
			ck := col(cands[k])
			if ck.constant() {
				continue
			}
			dot := g.Dot(pos[j], pos[k], cj.mom.Mean, cj.mom.Std(), ck.mom.Mean, ck.mom.Std())
			if dot < 0 {
				dot = -dot
			}
			if dot > limit {
				return true
			}
		}
		return false
	}, nil
}

// Carry implements core.WorkingSet: the executor learns the new live set and
// the node program that derives it; the candidates that did not survive
// ranking are let go.
func (f *fitter) Carry(cands []*core.Candidate, selected []int, nodes []core.FeatureNode) error {
	f.live = make([]*column, len(selected))
	for i, idx := range selected {
		c := col(cands[idx])
		c.ivCuts, c.ivCounts, c.grid = nil, nil, nil
		f.live[i] = c
	}
	return f.syncLive(nodes)
}
