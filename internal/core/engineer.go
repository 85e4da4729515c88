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
	// Pairs chooses each round's combinations (see PairSource). Nil is
	// SAFE's source; the RAND and IMP baselines (internal/baselines) set
	// theirs and share everything after the pairs.
	Pairs PairSource
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
	// Patience enables validation-based early stopping in a fit with a
	// validation frame: after Patience consecutive rounds without at least
	// MinDelta improvement of the validation score (AUC for binary,
	// accuracy for multiclass, −RMSE for regression), iteration stops and
	// the best round's selection is kept. 0 disables early stopping.
	Patience int
	// MinDelta is the minimum validation-score improvement that resets the
	// patience counter.
	MinDelta float64
	// Events, when non-nil, receives the fit's structured progress stream:
	// iteration and stage boundaries with candidate/survivor counts, rows
	// processed, and wall times. Every fit engine emits the same protocol;
	// see FitEvent for the delivery contract. The callback runs on the
	// fitting goroutine and must return quickly.
	Events EventFunc
	// Workers bounds the shared worker pool that mining, generation, IV,
	// Pearson and both boosters run on: 1 runs serial, <= 0 selects
	// GOMAXPROCS. Fit results are identical for any worker count.
	Workers int
	// Seed does not affect a fit: no stage of the loop draws a random
	// number, so a fit is a function of its data and configuration (a Pairs
	// source that draws is built with its own seed). It is accepted, and
	// ignored, so that configurations which set it keep working.
	Seed int64
}

// PaperBooster returns the booster shape the paper runs its miner and ranker
// with (Section V): gbdt.DefaultConfig with 20 trees of depth 4.
func PaperBooster() gbdt.Config {
	cfg := gbdt.DefaultConfig()
	cfg.NumTrees = 20
	cfg.MaxDepth = 4
	return cfg
}

// DefaultConfig returns the paper's experimental configuration.
func DefaultConfig() Config {
	return Config{
		Operators:        operators.DefaultExperimentOperators(),
		Gamma:            0, // resolved to 2M at fit time
		IVThreshold:      stats.DefaultIVCutoff,
		IVBins:           10,
		PearsonThreshold: stats.DefaultPearsonCutoff,
		MaxFeatures:      0, // resolved to 2M at fit time
		Iterations:       1,
		Miner:            PaperBooster(),
		Ranker:           PaperBooster(),
		MinKeepIV:        8,
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
	// a fit with a validation frame: AUC for the binary task, exact-match
	// accuracy for multiclass, negative RMSE for regression (higher is better
	// for all).
	ValidAUC float64
}

// Report summarises a Fit run.
type Report struct {
	Iterations []IterationReport
	Total      time.Duration
}

// Pool returns the shared worker pool the configuration selects: Workers
// wide, inline when Workers is 1.
func (c *Config) Pool() *parallel.Pool { return parallel.Get(c.Workers) }

// NormalizeConfig applies Fit's defaulting and validation and returns the
// effective configuration — including the miner's and ranker's objectives,
// which the task owns, and their worker counts, which Workers sets. The
// sharded fit engine normalises through here so both fit paths run from
// identical effective configurations.
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
	if err := checkThresholds(cfg.IVThreshold, cfg.PearsonThreshold); err != nil {
		return Config{}, err
	}
	if cfg.Iterations <= 0 {
		cfg.Iterations = 1
	}
	if cfg.MinKeepIV <= 0 {
		cfg.MinKeepIV = 8
	}
	if cfg.Miner.NumTrees == 0 {
		cfg.Miner = PaperBooster()
	}
	if cfg.Ranker.NumTrees == 0 {
		cfg.Ranker = PaperBooster()
	}
	cfg.Task.applyObjective(&cfg.Miner)
	cfg.Task.applyObjective(&cfg.Ranker)
	cfg.Miner.Workers = cfg.Workers
	cfg.Ranker.Workers = cfg.Workers
	// Validate that every operator resolves.
	if _, err := cfg.Registry.GetAll(cfg.Operators); err != nil {
		return Config{}, err
	}
	return cfg, nil
}

// checkThresholds refuses an α or a θ no fit or selection can run with: α
// below 0, θ outside (0,1].
func checkThresholds(iv, pearson float64) error {
	if iv < 0 {
		return errors.New("core: IVThreshold must be >= 0")
	}
	if pearson <= 0 || pearson > 1 {
		return fmt.Errorf("core: PearsonThreshold must be in (0,1], got %g", pearson)
	}
	return nil
}

// Fit learns the feature generation function Ψ from a labelled training
// frame (Algorithm 1) over its resident columns: the in-memory engine's one
// entry point. A nil valid is an untracked fit; otherwise each round's
// selection is scored on valid (IterationReport.ValidAUC), which must be
// labelled and name every training column, and cfg.Patience stops the
// rounds early (Fig. 4's plateau) keeping the best one. A cancelled ctx
// aborts the fit promptly with ctx.Err() — it is checked per stage,
// candidate, Pearson scan and boosting round — and leaks no goroutine.
func Fit(ctx context.Context, train, valid *frame.Frame, cfg Config) (*Pipeline, *Report, error) {
	cfg, err := NormalizeConfig(cfg)
	if err != nil {
		return nil, nil, err
	}
	if err := train.Validate(); err != nil {
		return nil, nil, err
	}
	if train.Label == nil {
		return nil, nil, errors.New("core: training frame has no label")
	}
	if train.NumCols() == 0 {
		return nil, nil, errors.New("core: training frame has no features")
	}
	if err := cfg.Task.ValidateLabels(train.Label); err != nil {
		return nil, nil, err
	}
	if valid != nil {
		if err := valid.Validate(); err != nil {
			return nil, nil, err
		}
		if valid.Label == nil {
			return nil, nil, errors.New("core: validation frame has no label")
		}
		if err := cfg.Task.ValidateLabels(valid.Label); err != nil {
			return nil, nil, err
		}
	}
	m, err := newMemorySet(ctx, &cfg, train, valid)
	if err != nil {
		return nil, nil, err
	}
	var validate ValidationFunc
	if valid != nil {
		validate = m.validationScore
	}
	return RunRounds(ctx, cfg, train.Names(), m, validate)
}
