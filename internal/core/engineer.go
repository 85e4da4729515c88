package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/frame"
	"repro/internal/gbdt"
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
	// processed, and wall times. Every fit engine emits the same protocol;
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
	return &Engineer{cfg: cfg, pool: cfg.Pool()}, nil
}

// Pool returns the shared worker pool the configuration selects: Workers wide
// when Parallel is set, otherwise the inline one.
func (c *Config) Pool() *parallel.Pool {
	if c.Parallel {
		return parallel.Get(c.Workers)
	}
	return parallel.Get(1)
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
	m, err := newMemorySet(ctx, &cfg, e.pool, train, valid)
	if err != nil {
		return nil, nil, err
	}
	var validate ValidationFunc
	if valid != nil {
		validate = m.validationScore
	}
	return RunRounds(ctx, cfg, train.Names(), m, validate)
}
