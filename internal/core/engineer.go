package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/frame"
	"repro/internal/gbdt"
	"repro/internal/metrics"
	"repro/internal/operators"
	"repro/internal/parallel"
	"repro/internal/stats"
)

// Config configures the SAFE engineer. Zero values take the defaults the
// paper uses in Section V; the only hyper-parameters are complexity knobs
// (Section IV-E1).
type Config struct {
	// Task selects the prediction task the fit engineers features for:
	// binary classification (the default and the paper's setting), K-class
	// classification, or regression. It drives the miner/ranker objectives
	// and the selection criterion; see Task.
	Task Task

	// Operators names the generation operators (keys of the Registry).
	// Default: the paper's experimental set {add, sub, mul, div}.
	Operators []string
	// Registry resolves operator names; defaults to the built-in catalogue.
	Registry *operators.Registry

	// Gamma is γ of Algorithm 2: how many top combinations are kept for
	// generation. Default: 2 × number of original features.
	Gamma int
	// IVThreshold is α of Algorithm 3 (default 0.1, Table I).
	IVThreshold float64
	// IVBins is β of Algorithm 3 (default 10 equal-frequency bins).
	IVBins int
	// IVEqualWidth switches IV binning to equal-width (ablation; default
	// equal-frequency as in the paper).
	IVEqualWidth bool
	// PearsonThreshold is θ of Algorithm 4 (default 0.8, Table II).
	PearsonThreshold float64
	// MaxFeatures caps the final selected feature count per iteration.
	// Default: 2 × number of original features (the paper's experiment
	// budget "2M").
	MaxFeatures int

	// Iterations is nIter of Algorithm 1 (default 1, matching Section V-A).
	Iterations int
	// TimeBudget is tIter: Fit stops starting new iterations once exceeded.
	// Zero means no time limit.
	TimeBudget time.Duration

	// Miner configures the combination-mining XGBoost (Section IV-B1).
	// NumTrees/MaxDepth directly control the search space (Eq. 13). The
	// Objective and NumClass fields are owned by Task: normalisation
	// replaces any caller-set values with the task's objective.
	Miner gbdt.Config
	// Ranker configures the importance-ranking XGBoost (Section IV-C3).
	// Objective/NumClass are owned by Task, as for Miner.
	Ranker gbdt.Config

	// MinKeepIV is the robustness floor for the IV filter: when fewer
	// features pass α, the top-MinKeepIV by IV are kept instead.
	MinKeepIV int
	// Patience enables validation-based early stopping in
	// FitWithValidation: after Patience consecutive rounds without at least
	// MinDelta AUC improvement on the validation set, iteration stops and
	// the best round's selection is kept. 0 disables early stopping.
	Patience int
	// MinDelta is the minimum validation-AUC improvement that resets the
	// patience counter.
	MinDelta float64
	// Events, when non-nil, receives the fit's structured progress stream:
	// iteration and stage boundaries with candidate/survivor counts, rows
	// processed, and wall times. Both fit engines emit the same protocol;
	// see FitEvent for the delivery contract. The callback runs on the
	// fitting goroutine and must return quickly.
	Events EventFunc
	// Parallel enables worker-pool parallelism in mining, generation, IV
	// and Pearson computations.
	Parallel bool
	// Workers bounds the shared worker pool when Parallel is set; <= 0
	// selects GOMAXPROCS. Fit results are identical for any worker count.
	Workers int
	// Seed drives all stochastic components.
	Seed int64
}

// DefaultConfig returns the paper's experimental configuration.
func DefaultConfig() Config {
	miner := gbdt.DefaultConfig()
	miner.NumTrees = 20
	miner.MaxDepth = 4
	ranker := gbdt.DefaultConfig()
	ranker.NumTrees = 20
	ranker.MaxDepth = 4
	return Config{
		Operators:        operators.DefaultExperimentOperators(),
		Gamma:            0, // resolved to 2M at fit time
		IVThreshold:      stats.DefaultIVCutoff,
		IVBins:           10,
		PearsonThreshold: stats.DefaultPearsonCutoff,
		MaxFeatures:      0, // resolved to 2M at fit time
		Iterations:       1,
		Miner:            miner,
		Ranker:           ranker,
		MinKeepIV:        8,
		Parallel:         true,
	}
}

// IterationReport records the sizes at each stage of one SAFE iteration.
type IterationReport struct {
	Round          int
	CombosMined    int // unique combinations from paths
	CombosKept     int // after gain-ratio top-γ
	Generated      int // new features generated (X̃)
	Candidates     int // X̂ = base ∪ generated
	AfterIV        int // X̂A
	AfterPearson   int // X̂B
	Selected       int // X̂C carried to the next round
	Elapsed        time.Duration
	BestGainRatio  float64
	SearchSpaceAll int // exhaustive candidate count for this round (binary ops)
	// Per-stage wall-clock timings for the round, populated from the same
	// instrumentation that feeds the FitEvent stream: combination mining,
	// gain-ratio scoring, feature generation (operator application),
	// Information-Value scoring+filtering, Pearson redundancy removal, and
	// gain ranking. Their sum is slightly below Elapsed (bookkeeping
	// between stages is not attributed).
	MineTime     time.Duration
	ScoreTime    time.Duration
	GenerateTime time.Duration
	IVTime       time.Duration
	PearsonTime  time.Duration
	RankTime     time.Duration
	// ValidAUC is the validation score of the round's selection, only set by
	// FitWithValidation: AUC for the binary task, exact-match accuracy for
	// multiclass, negative RMSE for regression (higher is better for all).
	ValidAUC float64
}

// Report summarises a Fit run.
type Report struct {
	Iterations []IterationReport
	Total      time.Duration
}

// Engineer runs SAFE. Construct with New, then call Fit.
type Engineer struct {
	cfg  Config
	pool *parallel.Pool
}

// New validates the configuration and returns an Engineer.
func New(cfg Config) (*Engineer, error) {
	cfg, err := NormalizeConfig(cfg)
	if err != nil {
		return nil, err
	}
	pool := parallel.Get(1)
	if cfg.Parallel {
		pool = parallel.Get(cfg.Workers)
	}
	return &Engineer{cfg: cfg, pool: pool}, nil
}

// NormalizeConfig applies New's defaulting and validation and returns the
// effective configuration — including the derived miner/ranker seeds and
// parallelism settings. The sharded fit engine normalises through here so
// both fit paths run from identical effective configurations.
func NormalizeConfig(cfg Config) (Config, error) {
	if err := cfg.Task.Validate(); err != nil {
		return Config{}, err
	}
	if cfg.Registry == nil {
		cfg.Registry = operators.NewRegistry()
	}
	if len(cfg.Operators) == 0 {
		cfg.Operators = operators.DefaultExperimentOperators()
	}
	if cfg.Task.Kind != TaskBinary {
		if cfg.IVEqualWidth {
			return Config{}, fmt.Errorf("core: IVEqualWidth is a binary-IV ablation; not supported for the %s task", cfg.Task)
		}
		for _, op := range cfg.Operators {
			if op == "bin_chimerge" {
				return Config{}, fmt.Errorf("core: operator %q discretises against binary labels; not supported for the %s task", op, cfg.Task)
			}
		}
	}
	if cfg.IVBins <= 1 {
		cfg.IVBins = 10
	}
	if cfg.IVThreshold < 0 {
		return Config{}, errors.New("core: IVThreshold must be >= 0")
	}
	if cfg.PearsonThreshold <= 0 || cfg.PearsonThreshold > 1 {
		return Config{}, fmt.Errorf("core: PearsonThreshold must be in (0,1], got %g", cfg.PearsonThreshold)
	}
	if cfg.Iterations <= 0 {
		cfg.Iterations = 1
	}
	if cfg.MinKeepIV <= 0 {
		cfg.MinKeepIV = 8
	}
	if cfg.Miner.NumTrees == 0 {
		cfg.Miner = gbdt.DefaultConfig()
		cfg.Miner.NumTrees = 20
		cfg.Miner.MaxDepth = 4
	}
	if cfg.Ranker.NumTrees == 0 {
		cfg.Ranker = gbdt.DefaultConfig()
		cfg.Ranker.NumTrees = 20
		cfg.Ranker.MaxDepth = 4
	}
	cfg.Task.applyObjective(&cfg.Miner)
	cfg.Task.applyObjective(&cfg.Ranker)
	cfg.Miner.Parallel = cfg.Parallel
	cfg.Ranker.Parallel = cfg.Parallel
	cfg.Miner.Workers = cfg.Workers
	cfg.Ranker.Workers = cfg.Workers
	cfg.Miner.Seed = cfg.Seed
	cfg.Ranker.Seed = cfg.Seed + 1
	// Validate that every operator resolves.
	if _, err := cfg.Registry.GetAll(cfg.Operators); err != nil {
		return Config{}, err
	}
	return cfg, nil
}

// liveFeature is one feature of the current working set X_i: its training
// (and optionally validation) values plus the pipeline node that derives it
// (nil for originals). pooled marks columns owned by the fit arena, which
// may be recycled once the feature provably leaves the working set.
//
// codes and cuts are the feature's GBDT bin codes, made the first time a
// booster needs the column (binned) and kept while the feature lives: the
// miner's codes are what the combination scorer reads, a base candidate takes
// them into the ranker as they are, and a selected feature carries its ranker
// codes into the next round's miner and the validation evaluator. bins is the
// MaxBins they were cut at; a stage configured with another count rebins.
type liveFeature struct {
	name   string
	train  []float64
	valid  []float64 // nil when fitting without a validation frame
	node   *FeatureNode
	iv     float64
	pooled bool

	codes []uint8
	cuts  []float64
	bins  int
}

// binned returns the features' bin-code matrix at cfg.MaxBins — what
// gbdt.Train would quantise their columns to — binning only those that do
// not carry codes at that bin count yet.
func binned(feats []*liveFeature, cfg gbdt.Config) (*gbdt.Prebinned, error) {
	var fresh []*liveFeature
	var cols [][]float64
	for _, lf := range feats {
		if lf.codes == nil || lf.bins != cfg.MaxBins {
			fresh, cols = append(fresh, lf), append(cols, lf.train)
		}
	}
	if len(fresh) > 0 {
		pb, err := gbdt.BinColumns(cols, cfg)
		if err != nil {
			return nil, err
		}
		for i, lf := range fresh {
			lf.codes, lf.cuts, lf.bins = pb.Codes[i], pb.Cuts[i], cfg.MaxBins
		}
	}
	pb := &gbdt.Prebinned{Codes: make([][]uint8, len(feats)), Cuts: make([][]float64, len(feats))}
	for i, lf := range feats {
		pb.Codes[i], pb.Cuts[i] = lf.codes, lf.cuts
	}
	return pb, nil
}

// trainBinned is gbdt.Train over the features' columns, cancellable through
// ctx, by way of the codes they carry.
func trainBinned(ctx context.Context, feats []*liveFeature, labels []float64, names []string, cfg gbdt.Config) (*gbdt.Model, error) {
	pb, err := binned(feats, cfg)
	if err != nil {
		return nil, err
	}
	return gbdt.TrainBinnedCtx(ctx, pb, labels, names, cfg)
}

// Fit learns the feature generation function Ψ from a labelled training
// frame (Algorithm 1).
func (e *Engineer) Fit(train *frame.Frame) (*Pipeline, *Report, error) {
	return e.fit(context.Background(), train, nil)
}

// FitContext is Fit with cooperative cancellation: ctx is checked at every
// stage boundary, between generated candidates, per Pearson scan, and per
// boosting round inside the miner/ranker, so a cancelled or expired context
// aborts the fit promptly with ctx.Err(). The shared worker pool drains its
// in-flight chunks and stays reusable — no goroutines are leaked.
func (e *Engineer) FitContext(ctx context.Context, train *frame.Frame) (*Pipeline, *Report, error) {
	return e.fit(ctx, train, nil)
}

// FitWithValidation learns Ψ using a validation frame for per-round AUC
// tracking and (when Config.Patience > 0) early stopping: iteration halts
// after Patience rounds without MinDelta improvement, keeping the best
// round's selection — the "performance keeps unchanged after some rounds"
// behaviour of Fig. 4 without paying for the extra rounds.
func (e *Engineer) FitWithValidation(train, valid *frame.Frame) (*Pipeline, *Report, error) {
	return e.FitWithValidationContext(context.Background(), train, valid)
}

// FitWithValidationContext is FitWithValidation with the cancellation
// contract of FitContext.
func (e *Engineer) FitWithValidationContext(ctx context.Context, train, valid *frame.Frame) (*Pipeline, *Report, error) {
	if valid == nil {
		return nil, nil, errors.New("core: FitWithValidation requires a validation frame")
	}
	if err := valid.Validate(); err != nil {
		return nil, nil, err
	}
	if valid.Label == nil {
		return nil, nil, errors.New("core: validation frame has no label")
	}
	return e.fit(ctx, train, valid)
}

func (e *Engineer) fit(ctx context.Context, train, valid *frame.Frame) (*Pipeline, *Report, error) {
	if err := train.Validate(); err != nil {
		return nil, nil, err
	}
	if train.Label == nil {
		return nil, nil, errors.New("core: training frame has no label")
	}
	if train.NumCols() == 0 {
		return nil, nil, errors.New("core: training frame has no features")
	}
	cfg := e.cfg
	if err := cfg.Task.ValidateLabels(train.Label); err != nil {
		return nil, nil, err
	}
	if valid != nil {
		if err := cfg.Task.ValidateLabels(valid.Label); err != nil {
			return nil, nil, err
		}
	}
	m := train.NumCols()
	budget := cfg.MaxFeatures
	if budget <= 0 {
		budget = 2 * m
	}
	gamma := cfg.Gamma
	if gamma <= 0 {
		gamma = 2 * m
	}

	ops, err := cfg.Registry.GetAll(cfg.Operators)
	if err != nil {
		return nil, nil, err
	}
	arities := distinctArities(ops)

	labels := train.Label
	// Working set: start from the original columns.
	live := make([]*liveFeature, 0, m+budget)
	for j := 0; j < m; j++ {
		lf := &liveFeature{
			name:  train.Columns[j].Name,
			train: train.Columns[j].Values,
		}
		if valid != nil {
			vcol, ok := valid.ColByName(lf.name)
			if !ok {
				return nil, nil, fmt.Errorf("core: validation frame lacks column %q", lf.name)
			}
			lf.valid = vcol
		}
		live = append(live, lf)
	}

	report := &Report{}
	start := time.Now()
	var allNodes []FeatureNode
	// Validation scores are only comparable within a task; regression's
	// (negative RMSE) is always <= 0, so the best-so-far must start at -Inf
	// or no round could ever be accepted.
	bestAUC := math.Inf(-1)
	bestLive := live
	patienceLeft := cfg.Patience
	arena := operators.NewArena(train.NumRows())
	pool := e.pool
	rows := int64(train.NumRows())
	var rowsProcessed int64

	cfg.Emit(FitEvent{Kind: EventFitStart, Candidates: m})

	for round := 0; round < cfg.Iterations; round++ {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		if cfg.TimeBudget > 0 && time.Since(start) > cfg.TimeBudget {
			break
		}
		iterStart := time.Now()
		ir := IterationReport{Round: round + 1}
		sc := NewStageClock(&cfg, &ir, &rowsProcessed)
		cfg.Emit(FitEvent{Kind: EventIterationStart, Round: ir.Round, Candidates: len(live), Rows: rowsProcessed})

		names := make([]string, len(live))
		for i, lf := range live {
			names[i] = lf.name
		}

		// (1) Mine combination relations (Algorithm 1 lines 3-4).
		sc.Begin(StageMine, len(live))
		minerCfg := cfg.Miner
		minerCfg.Seed = cfg.Seed + int64(round)*131
		minerBins, err := binned(live, minerCfg)
		if err != nil {
			return nil, nil, WrapUnlessCancelled(ctx, err, "core: miner")
		}
		model, err := gbdt.TrainBinnedCtx(ctx, minerBins, labels, names, minerCfg)
		if err != nil {
			return nil, nil, WrapUnlessCancelled(ctx, err, "core: miner")
		}
		combos := mineCombos(model, arities)
		ir.CombosMined = len(combos)
		ir.SearchSpaceAll = exhaustiveBinaryCount(len(live), ops)
		sc.AddRows(rows)
		sc.End(len(combos))

		// (2) Sort and filter combinations by gain ratio (Algorithm 2).
		sc.Begin(StageScore, len(combos))
		if err := ScoreCombos(ctx, combos, minerBins, labels, cfg.Task, pool); err != nil {
			return nil, nil, err
		}
		combos = topCombos(combos, gamma)
		ir.CombosKept = len(combos)
		if len(combos) > 0 {
			ir.BestGainRatio = combos[0].GainRatio
		}
		sc.AddRows(rows)
		sc.End(len(combos))

		// (3)-(5) Generate features and filter uninformative ones
		// (Algorithm 1 lines 6-7, Algorithm 3), streamed: candidates are
		// IV-scored chunk by chunk and rejected columns recycle through the
		// arena instead of materialising the full candidate set X̂.
		sc.Begin(StageGenerate, len(combos))
		stream := newCandidateStream(ctx, &cfg, pool, arena, live, labels)
		stream.addBase()
		if err := e.enumerate(stream, combos, ops); err != nil {
			return nil, nil, err
		}
		entries, err := stream.finish()
		if err != nil {
			return nil, nil, err
		}
		ir.Generated = stream.generated
		ir.Candidates = len(entries)
		sc.AddRows(rows)
		sc.End(len(entries))
		// The stream interleaves IV scoring with generation; attribute its
		// criterion time to the IV stage so the report's split is honest.
		ir.GenerateTime -= stream.ivTime
		ir.IVTime += stream.ivTime

		sc.Begin(StageIVFilter, len(entries))
		keptA := stream.keptAfterIV(entries, cfg.MinKeepIV)
		ir.AfterIV = len(keptA)
		sc.End(len(keptA))

		candCols := make([][]float64, len(entries))
		ivs := make([]float64, len(entries))
		for i, en := range entries {
			candCols[i] = en.lf.train // nil for recycled IV rejects, which no later stage touches
			ivs[i] = en.iv
		}

		// (6) Remove redundant features (Algorithm 4).
		sc.Begin(StagePearson, len(keptA))
		keptB, err := pearsonDedup(ctx, candCols, ivs, keptA, cfg.PearsonThreshold, pool)
		if err != nil {
			return nil, nil, err
		}
		ir.AfterPearson = len(keptB)
		sc.AddRows(rows)
		sc.End(len(keptB))

		// (7) Rank by XGBoost gain, keep top budget (line 10).
		sc.Begin(StageRank, len(keptB))
		rankerCfg := cfg.Ranker
		rankerCfg.Seed = cfg.Seed + 7919 + int64(round)*131
		survivors := make([]*liveFeature, len(keptB))
		for i, idx := range keptB {
			survivors[i] = entries[idx].lf
		}
		ranked, err := rankByGain(ctx, survivors, labels, ivs, keptB, rankerCfg)
		if err != nil {
			return nil, nil, WrapUnlessCancelled(ctx, err, "core: ranker")
		}
		if len(ranked) > budget {
			ranked = ranked[:budget]
		}
		ir.Selected = len(ranked)
		sc.AddRows(rows)
		sc.End(len(ranked))

		// Carry the selection to the next round and record new nodes.
		next := make([]*liveFeature, 0, len(ranked))
		selected := make(map[*liveFeature]bool, len(ranked))
		for _, idx := range ranked {
			lf := entries[idx].lf
			next = append(next, lf)
			selected[lf] = true
		}
		for _, en := range entries {
			if en.spec.op != nil {
				allNodes = append(allNodes, *en.lf.node)
			}
		}
		// Selected generated features need validation columns (computed
		// lazily here instead of for every candidate at generation time).
		if valid != nil {
			for _, en := range entries {
				if en.spec.op == nil || !selected[en.lf] {
					continue
				}
				vin := make([][]float64, len(en.spec.feats))
				for i, f := range en.spec.feats {
					vin[i] = live[f].valid
				}
				vvals := en.applier.Transform(vin)
				sanitize(vvals)
				en.lf.valid = vvals
			}
		}
		// Recycle arena columns that provably left the working set: rejects
		// generated this round always; prior-round features only when no
		// validation snapshot (bestLive) may still reference them.
		for _, en := range entries {
			lf := en.lf
			if selected[lf] || !lf.pooled || lf.train == nil {
				continue
			}
			if en.spec.op != nil || valid == nil {
				arena.Put(lf.train)
				lf.train = nil
			}
		}
		live = next

		// Validation tracking and early stopping.
		if valid != nil {
			auc, verr := e.validationScore(ctx, live, labels, valid.Label, cfg, round)
			if verr != nil {
				return nil, nil, verr
			}
			ir.ValidAUC = auc
			if auc > bestAUC+cfg.MinDelta {
				bestAUC = auc
				bestLive = live
				patienceLeft = cfg.Patience
			} else if cfg.Patience > 0 {
				patienceLeft--
			}
		} else {
			bestLive = live
		}

		ir.Elapsed = time.Since(iterStart)
		report.Iterations = append(report.Iterations, ir)
		cfg.Emit(FitEvent{
			Kind: EventIterationEnd, Round: ir.Round, Candidates: ir.Candidates,
			Survivors: ir.Selected, Rows: rowsProcessed, Elapsed: ir.Elapsed,
		})

		if valid != nil && cfg.Patience > 0 && patienceLeft <= 0 {
			break
		}
	}
	if valid == nil {
		bestLive = live
	}

	// Assemble Ψ from the final (or best-validated) selection
	// (Algorithm 1 line 14).
	p := &Pipeline{
		OriginalNames: train.Names(),
		Nodes:         allNodes,
		Task:          cfg.Task,
	}
	for _, lf := range bestLive {
		p.Output = append(p.Output, lf.name)
	}
	p.prune()
	report.Total = time.Since(start)
	cfg.Emit(FitEvent{
		Kind: EventFitEnd, Survivors: len(p.Output),
		Rows: rowsProcessed, Elapsed: report.Total,
	})
	return p, report, nil
}

// WrapUnlessCancelled wraps an engine error with a "<prefix>: " unless the
// context was cancelled, in which case the bare ctx.Err() is returned:
// callers and tests match cancelled fits with errors.Is against
// context.Canceled/DeadlineExceeded, and the cancellation must not be
// buried under stage-specific wrapping. Shared by both fit engines.
func WrapUnlessCancelled(ctx context.Context, err error, prefix string) error {
	if ctx.Err() != nil {
		return ctx.Err()
	}
	return fmt.Errorf("%s: %w", prefix, err)
}

// enumerate applies the operator set to the selected combinations
// (Section IV-B3), feeding each application into the candidate stream.
// Non-commutative binary operators are applied in both argument orders
// (the paper counts such orders as distinct operators).
func (e *Engineer) enumerate(stream *candidateStream, combos []Combo, ops []operators.Operator) error {
	for _, c := range combos {
		for _, op := range ops {
			if int(op.Arity()) != len(c.Features) {
				continue
			}
			if err := stream.generate(op, c.Features); err != nil {
				return err
			}
			if op.Arity() == operators.Binary && !operators.Commutative(op.Name()) {
				rev := []int{c.Features[1], c.Features[0]}
				if err := stream.generate(op, rev); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// validationScore trains a small gradient-boosted evaluator on the selected
// training columns and scores the selected validation columns with the
// task's validation metric: AUC for binary, exact-match accuracy for
// multiclass, negative RMSE for regression (all higher-is-better, so the
// early-stopping comparison is task-agnostic).
func (e *Engineer) validationScore(ctx context.Context, live []*liveFeature, trainLabels, validLabels []float64, cfg Config, round int) (float64, error) {
	vcols := make([][]float64, len(live))
	for i, lf := range live {
		vcols[i] = lf.valid
	}
	evalCfg := cfg.Ranker
	evalCfg.Seed = cfg.Seed + 40009 + int64(round)
	model, err := trainBinned(ctx, live, trainLabels, nil, evalCfg) // on the selection's ranker codes
	if err != nil {
		return 0, WrapUnlessCancelled(ctx, err, "core: validation evaluator")
	}
	preds := model.Predict(vcols)
	switch cfg.Task.Kind {
	case TaskMulticlass:
		return metrics.ClassAccuracy(preds, validLabels), nil
	case TaskRegression:
		return -metrics.RMSE(preds, validLabels), nil
	default:
		return metrics.AUC(preds, validLabels), nil
	}
}

func distinctArities(ops []operators.Operator) []int {
	seen := make(map[int]bool)
	var out []int
	for _, op := range ops {
		a := int(op.Arity())
		if !seen[a] {
			seen[a] = true
			out = append(out, a)
		}
	}
	return out
}

// exhaustiveBinaryCount is |S| of Eq. 3 restricted to binary operators with
// 4 operators (the experimental set): the size of the search space an
// exhaustive generate-then-select method would face this round. Used by the
// search-space experiment.
func exhaustiveBinaryCount(m int, ops []operators.Operator) int {
	nBinary := 0
	for _, op := range ops {
		if op.Arity() == operators.Binary {
			nBinary++
			if !operators.Commutative(op.Name()) {
				nBinary++
			}
		}
	}
	return m * (m - 1) / 2 * nBinary
}
