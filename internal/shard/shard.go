package shard

import (
	"context"
	"errors"
	"fmt"
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
	// ApproxCuts skips the exact cut-refinement pass and bins directly at
	// the sketches' approximate cut points. This trades the bit-exact
	// equivalence with the in-memory path for one fewer streaming pass per
	// stage; cut placement is then off by at most the sketches' rank error
	// bound (Stats.MaxQuantileRankError).
	ApproxCuts bool
	// Retry bounds transient chunk-read retries (see RetryPolicy). The zero
	// value disables retrying: every read error aborts the fit immediately.
	// Retried reads re-run before the chunk is folded, so a recovered fit
	// selects features bit-identical to a fault-free run.
	Retry RetryPolicy
	// Exec, when set, replaces the in-process executor (see Executor): the
	// fit reads only the source schema from src and every streaming pass runs
	// wherever the executor runs it. The fit loop is the same either way — it
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
	// MaxQuantileRankError is the worst tracked rank-error bound across all
	// quantile sketches — the "within quantile-sketch tolerance" of the
	// fit's equivalence to the in-memory path, in ranks of Rows.
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
// pass plus the resident binned matrices. The selected features and
// formulas match core.Fit on the same rows up to quantile-sketch tolerance
// (see package doc); the returned report mirrors core's per-iteration
// stage sizes, including the per-stage wall-clock timings, and
// cfg.Core.Events receives the same FitEvent protocol the in-memory engine
// emits. ctx is checked before every source chunk and every boosting
// round: a cancelled or expired context aborts the multi-pass coordinator
// promptly with ctx.Err() and leaks no goroutines.
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
	pool := parallel.Get(1)
	if norm.Parallel {
		pool = parallel.Get(norm.Workers)
	}
	f := &fitter{
		ctx:        ctx,
		cfg:        norm,
		pool:       pool,
		sketchSize: cfg.SketchSize,
		approxCuts: cfg.ApproxCuts,
		names:      src.Names(),
		ops:        ops,
		arities:    core.DistinctArities(ops),
		arena:      sketch.NewArena(),
		exec:       cfg.Exec,
	}
	if f.exec == nil {
		le := newLocalExec(ctx, src, cfg, pool, norm.Registry, f.arena)
		defer le.close()
		f.exec = le
	}
	p, rep, err := f.fit()
	if err != nil {
		return nil, nil, nil, err
	}
	return p, rep, &f.stats, nil
}

// liveFeat is one feature of the working set: its identity plus the merged
// sketches and resident codes standing in for the raw column.
type liveFeat struct {
	name string
	node *core.FeatureNode // nil for originals
	sk   *sketch.Quantile
	ref  *sketch.Refiner // exact-cut refinement (nil in approx mode)
	mom  *sketch.Moments
	iv   float64

	minerCuts []float64 // cuts behind codes (Miner.MaxBins binner cuts)
	codes     []uint8   // resident binned column for GBDT training
}

// candidate is one entry of a round's candidate set X̂, ordered exactly as
// the in-memory stream orders them: the live (base) features first, then
// generated features in enumeration order.
type candidate struct {
	name    string
	isBase  bool
	baseIdx int               // index into live for base entries
	applier operators.Applier // generated entries
	feats   []int             // applier inputs, as live indices
	node    *core.FeatureNode // generated entries
	sk      *sketch.Quantile
	ref     *sketch.Refiner
	mom     *sketch.Moments
	hist    sketch.CriterionHist
	iv      float64
	ivCuts  []float64
	rgCuts  []float64 // ranker binner cuts
	codes   []uint8   // ranker codes (aliases live codes for base entries)
	kept    bool      // survived ranking into the next live set
}

type fitter struct {
	ctx        context.Context
	cfg        core.Config
	sketchSize int
	approxCuts bool
	ops        []operators.Operator
	arities    []int
	arena      *sketch.Arena  // recycles candidate sketches (and the in-process executor's partials)
	pool       *parallel.Pool // the folds' and cut derivations' per-candidate loops run on it

	names      []string
	labels     []float64
	n          int
	passExpect int // expected rows of the current (possibly partial) pass; 0 = full
	live       []*liveFeat
	nodes      []core.FeatureNode // all generated nodes, for pipeline assembly
	gram       *sketch.Gram       // transient: current round's pairwise co-moments

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

func (f *fitter) fit() (*core.Pipeline, *core.Report, error) {
	cfg := f.cfg
	m := len(f.names)
	if m == 0 {
		return nil, nil, errors.New("shard: source has no feature columns")
	}
	seen := make(map[string]bool, m)
	for _, name := range f.names {
		if name == "" {
			return nil, nil, errors.New("shard: source has an empty column name")
		}
		if seen[name] {
			return nil, nil, fmt.Errorf("shard: duplicate column name %q", name)
		}
		seen[name] = true
	}
	// FitStart precedes the pre-iteration streaming passes, so a consumer
	// sees the fit open before the first (possibly long) pass over the
	// source; Rows on later events reflects cumulative source consumption.
	cfg.Emit(core.FitEvent{Kind: core.EventFitStart, Candidates: m})
	if err := f.exec.Open(f.ctx, f.names, cfg.Task, f.sketchSize); err != nil {
		return nil, nil, err
	}

	// Pass 1: labels plus per-feature quantile sketches and moments.
	f.live = make([]*liveFeat, m)
	for j, name := range f.names {
		f.live[j] = &liveFeat{name: name, sk: sketch.NewQuantile(f.sketchSize), mom: &sketch.Moments{}}
	}
	if err := f.passBaseSketch(); err != nil {
		return nil, nil, err
	}
	if f.n == 0 {
		return nil, nil, errors.New("shard: source has no rows")
	}
	if err := cfg.Task.ValidateLabels(f.labels); err != nil {
		return nil, nil, err
	}
	budget := cfg.MaxFeatures
	if budget <= 0 {
		budget = 2 * m
	}
	gamma := cfg.Gamma
	if gamma <= 0 {
		gamma = 2 * m
	}

	// Refine the live sketches' cut brackets to exact order statistics
	// (skipped in approx mode, and a no-op pass-wise when the sketches are
	// lossless), then build the resident miner codes for the original live
	// set.
	if err := f.refineLive(); err != nil {
		return nil, nil, err
	}
	if err := f.each(len(f.live), func(j int) error {
		lf := f.live[j]
		lf.minerCuts = sketch.ExactBinnerCuts(lf.sk, lf.ref, cfg.Miner.MaxBins)
		lf.codes = make([]uint8, f.n)
		return nil
	}); err != nil {
		return nil, nil, err
	}
	for _, lf := range f.live {
		f.trackSketch(lf.sk)
	}
	if err := f.syncLive(); err != nil {
		return nil, nil, err
	}
	if err := f.passLiveCodes(f.live); err != nil {
		return nil, nil, err
	}

	report := &core.Report{}
	start := time.Now()
	for round := 0; round < cfg.Iterations; round++ {
		if err := f.ctx.Err(); err != nil {
			return nil, nil, err
		}
		if cfg.TimeBudget > 0 && time.Since(start) > cfg.TimeBudget {
			break
		}
		iterStart := time.Now()
		ir := core.IterationReport{Round: round + 1}
		// The clock shares the streamed-rows counter runPass maintains,
		// so event Rows reflect actual source consumption per stage.
		sc := core.NewStageClock(&cfg, &ir, &f.stats.RowsStreamed)
		cfg.Emit(core.FitEvent{
			Kind: core.EventIterationStart, Round: ir.Round,
			Candidates: len(f.live), Rows: f.stats.RowsStreamed,
		})

		// (1) Mine combination relations from the binned miner model.
		sc.Begin(core.StageMine, len(f.live))
		minerCfg := cfg.Miner
		minerCfg.Seed = cfg.Seed + int64(round)*131
		pb := &gbdt.Prebinned{Codes: make([][]uint8, len(f.live)), Cuts: make([][]float64, len(f.live))}
		liveNames := make([]string, len(f.live))
		for i, lf := range f.live {
			pb.Codes[i] = lf.codes
			pb.Cuts[i] = lf.minerCuts
			liveNames[i] = lf.name
		}
		model, err := gbdt.TrainBinnedCtx(f.ctx, pb, f.labels, liveNames, minerCfg)
		if err != nil {
			return nil, nil, core.WrapUnlessCancelled(f.ctx, err, "shard: miner")
		}
		combos := core.MineCombos(model, f.arities)
		ir.CombosMined = len(combos)
		ir.SearchSpaceAll = core.ExhaustiveCandidateCount(len(f.live), f.ops)
		sc.End(len(combos))

		// (2) Score combinations. A combination's cells are a function of the
		// miner's bin codes, and those and the labels are resident: the scorer
		// the in-memory engine runs, on the fit's pool, with no rows streamed.
		sc.Begin(core.StageScore, len(combos))
		if err := core.ScoreCombos(f.ctx, combos, pb, f.labels, cfg.Task, f.pool); err != nil {
			return nil, nil, err
		}
		combos = core.SortCombos(combos, gamma)
		ir.CombosKept = len(combos)
		if len(combos) > 0 {
			ir.BestGainRatio = combos[0].GainRatio
		}
		sc.End(len(combos))

		// (3) Enumerate candidates: base features first, then generated, in
		// the in-memory stream's order with the same formula dedup; then
		// sketch and refine the generated columns — the sharded equivalent
		// of materialising them.
		sc.Begin(core.StageGenerate, len(combos))
		entries, generated, err := f.enumerate(combos)
		if err != nil {
			return nil, nil, err
		}
		ir.Generated = generated
		ir.Candidates = len(entries)

		// (4)+(5) Sketch the generated candidates, refine their cuts to
		// exact order statistics, then bin and count labels for every
		// candidate; Information Values follow from the merged histograms.
		if err := f.passCandidateSketches(entries); err != nil {
			return nil, nil, err
		}
		if err := f.refineCandidates(entries); err != nil {
			return nil, nil, err
		}
		sc.End(len(entries))

		sc.Begin(core.StageIVFilter, len(entries))
		if err := f.each(len(entries), func(i int) error {
			en := entries[i]
			en.ivCuts = sketch.ExactCuts(en.sk, en.ref, cfg.IVBins)
			if en.isBase && cfg.Ranker.MaxBins == cfg.Miner.MaxBins {
				en.rgCuts = f.live[en.baseIdx].minerCuts
				en.codes = f.live[en.baseIdx].codes
			} else {
				en.rgCuts = sketch.ExactBinnerCuts(en.sk, en.ref, cfg.Ranker.MaxBins)
			}
			return nil
		}); err != nil {
			return nil, nil, err
		}
		for _, en := range entries {
			f.trackSketch(en.sk)
		}
		if err := f.passCandidateCounts(entries); err != nil {
			return nil, nil, err
		}
		ivs := make([]float64, len(entries))
		for i, en := range entries {
			en.iv = en.hist.Criterion()
			ivs[i] = en.iv
		}

		keptA := core.IVFilter(ivs, cfg.IVThreshold, cfg.MinKeepIV)
		ir.AfterIV = len(keptA)
		sc.End(len(keptA))

		// (6) Redundancy removal from pairwise co-moments; the same pass
		// builds resident ranker codes for the surviving candidates.
		sc.Begin(core.StagePearson, len(keptA))
		keptB, err := f.pearsonDedup(entries, keptA, cfg.PearsonThreshold)
		if err != nil {
			return nil, nil, err
		}
		ir.AfterPearson = len(keptB)
		sc.End(len(keptB))

		// (7) Rank by binned-XGBoost gain, keep the budget.
		sc.Begin(core.StageRank, len(keptB))
		rankerCfg := cfg.Ranker
		rankerCfg.Seed = cfg.Seed + 7919 + int64(round)*131
		rpb := &gbdt.Prebinned{Codes: make([][]uint8, len(keptB)), Cuts: make([][]float64, len(keptB))}
		for i, idx := range keptB {
			rpb.Codes[i] = entries[idx].codes
			rpb.Cuts[i] = entries[idx].rgCuts
		}
		ranker, err := gbdt.TrainBinnedCtx(f.ctx, rpb, f.labels, nil, rankerCfg)
		if err != nil {
			return nil, nil, core.WrapUnlessCancelled(f.ctx, err, "shard: ranker")
		}
		ranked := core.OrderByGain(ranker.GainImportance(), ivs, keptB)
		if len(ranked) > budget {
			ranked = ranked[:budget]
		}
		ir.Selected = len(ranked)
		sc.End(len(ranked))

		// Record every generated node (pipeline pruning trims the unused
		// ones, as in the in-memory path) and carry the selection forward.
		for _, en := range entries {
			if !en.isBase {
				f.nodes = append(f.nodes, *en.node)
			}
		}
		next := make([]*liveFeat, 0, len(ranked))
		for _, idx := range ranked {
			en := entries[idx]
			en.kept = true
			lf := &liveFeat{
				name: en.name,
				sk:   en.sk,
				ref:  en.ref,
				mom:  en.mom,
				iv:   en.iv,
			}
			if en.isBase {
				lf.node = f.live[en.baseIdx].node
			} else {
				lf.node = en.node
			}
			// The selected candidates' ranker codes become the next round's
			// miner matrix when the bin counts agree; otherwise rebin.
			if cfg.Miner.MaxBins == cfg.Ranker.MaxBins {
				lf.minerCuts = en.rgCuts
				lf.codes = en.codes
			} else {
				lf.minerCuts = sketch.ExactBinnerCuts(en.sk, en.ref, cfg.Miner.MaxBins)
			}
			next = append(next, lf)
		}
		f.live = next
		if err := f.syncLive(); err != nil {
			return nil, nil, err
		}
		// Sketches of candidates that did not survive ranking recycle into
		// the arena — the next round's enumerate draws warm sketches instead
		// of allocating hundreds of fresh ones. Trim first: pooled sketches
		// should not pin their old cascade backings for the whole fit.
		for _, en := range entries {
			if !en.isBase && !en.kept {
				// Reset retires the levels into the free list; trim after so
				// the pooled sketch carries no backings at all.
				en.sk.Reset()
				en.sk.TrimScratch()
				f.arena.PutQuantile(en.sk)
			}
		}
		if cfg.Miner.MaxBins != cfg.Ranker.MaxBins && round+1 < cfg.Iterations {
			for _, lf := range f.live {
				lf.codes = make([]uint8, f.n)
			}
			if err := f.passLiveCodes(f.live); err != nil {
				return nil, nil, err
			}
		}

		ir.Elapsed = time.Since(iterStart)
		report.Iterations = append(report.Iterations, ir)
		cfg.Emit(core.FitEvent{
			Kind: core.EventIterationEnd, Round: ir.Round, Candidates: ir.Candidates,
			Survivors: ir.Selected, Rows: f.stats.RowsStreamed, Elapsed: ir.Elapsed,
		})
	}

	p := &core.Pipeline{OriginalNames: append([]string(nil), f.names...), Nodes: f.nodes, Task: cfg.Task}
	for _, lf := range f.live {
		p.Output = append(p.Output, lf.name)
	}
	p.Prune()
	report.Total = time.Since(start)
	cfg.Emit(core.FitEvent{
		Kind: core.EventFitEnd, Survivors: len(p.Output),
		Rows: f.stats.RowsStreamed, Elapsed: report.Total,
	})
	return p, report, nil
}

// enumerate builds the round's candidate entries: every live feature, then
// every operator application to the kept combinations (both argument orders
// for non-commutative binary operators), deduplicated by formula — the
// exact order and dedup of the in-memory candidate stream.
func (f *fitter) enumerate(combos []core.Combo) ([]*candidate, int, error) {
	existing := make(map[string]bool, 2*len(f.live))
	entries := make([]*candidate, 0, 2*len(f.live))
	for i, lf := range f.live {
		existing[lf.name] = true
		entries = append(entries, &candidate{
			name: lf.name, isBase: true, baseIdx: i, sk: lf.sk, ref: lf.ref, mom: lf.mom,
		})
	}
	generated := 0
	liveNames := make([]string, len(f.live))
	for i, lf := range f.live {
		liveNames[i] = lf.name
	}
	add := func(op operators.Operator, feats []int) error {
		in := make([][]float64, len(feats))
		names := make([]string, len(feats))
		for i, fi := range feats {
			names[i] = liveNames[fi]
		}
		applier, err := op.Fit(in)
		if err != nil {
			return fmt.Errorf("shard: generate %s: %w", op.Name(), err)
		}
		name := applier.Formula(names)
		if existing[name] {
			return nil
		}
		existing[name] = true
		generated++
		entries = append(entries, &candidate{
			name:    name,
			applier: applier,
			feats:   append([]int(nil), feats...),
			node:    &core.FeatureNode{Name: name, Inputs: names, Applier: applier},
			sk:      f.arena.Quantile(f.sketchSize),
			mom:     &sketch.Moments{},
		})
		return nil
	}
	for _, c := range combos {
		for _, op := range f.ops {
			if int(op.Arity()) != len(c.Features) {
				continue
			}
			if err := add(op, c.Features); err != nil {
				return nil, 0, err
			}
			if op.Arity() == operators.Binary && !operators.Commutative(op.Name()) {
				rev := []int{c.Features[1], c.Features[0]}
				if err := add(op, rev); err != nil {
					return nil, 0, err
				}
			}
		}
	}
	return entries, generated, nil
}

// pearsonDedup replicates core's greedy Pearson filter from one Gram pass:
// candidates scan in descending-IV order and survive unless their
// standardised dot product with an already-kept candidate exceeds theta.
// The same pass materialises ranker codes for the IV survivors.
func (f *fitter) pearsonDedup(entries []*candidate, keptA []int, theta float64) ([]int, error) {
	if err := f.passGramAndCodes(entries, keptA); err != nil {
		return nil, err
	}
	g := f.gram
	f.gram = nil

	order := append([]int(nil), keptA...)
	ivs := make([]float64, len(entries))
	for i, en := range entries {
		ivs[i] = en.iv
	}
	sortByIVDesc(order, ivs)

	pos := make(map[int]int, len(keptA)) // entry index -> gram column
	for gi, idx := range keptA {
		pos[idx] = gi
	}
	isConst := func(en *candidate) bool {
		return en.mom.N == 0 || en.mom.Std() < 1e-12
	}
	limit := theta * float64(f.n)
	kept := make([]int, 0, len(order))
	for _, j := range order {
		en := entries[j]
		if isConst(en) {
			// Constant columns correlate with nothing by convention; the
			// ranker buries them, exactly as in-memory.
			kept = append(kept, j)
			continue
		}
		redundant := false
		for _, k := range kept {
			ek := entries[k]
			if isConst(ek) {
				continue
			}
			dot := g.Dot(pos[j], pos[k],
				en.mom.Mean, en.mom.Std(), ek.mom.Mean, ek.mom.Std())
			if dot < 0 {
				dot = -dot
			}
			if dot > limit {
				redundant = true
				break
			}
		}
		if !redundant {
			kept = append(kept, j)
		}
	}
	sortInts(kept)
	return kept, nil
}
