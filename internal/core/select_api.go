package core

import (
	"context"
	"errors"

	"repro/internal/gbdt"
	"repro/internal/parallel"
	"repro/internal/stats"
)

// SelectionConfig configures the standalone three-stage selection pipeline
// (Algorithms 3 and 4 plus gain ranking) over caller-supplied columns: the
// kernels a fit's selection runs, behind the public safe.Select. No fit calls
// it; the RAND and IMP baselines "follow the same feature selection process
// as SAFE" by running the fit's own loop with their own PairSource.
type SelectionConfig struct {
	// Task selects the criterion and ranker objective; the zero value is the
	// binary task.
	Task             Task
	IVThreshold      float64
	IVBins           int
	PearsonThreshold float64
	MaxFeatures      int
	MinKeepIV        int
	Ranker           gbdt.Config
	// Workers bounds the shared worker pool the criteria, the Pearson scan
	// and the ranker run on: 1 runs serial, <= 0 selects GOMAXPROCS. Results
	// are identical for any worker count.
	Workers int
}

// DefaultSelectionConfig mirrors the paper's thresholds (α=0.1, β=10,
// θ=0.8).
func DefaultSelectionConfig() SelectionConfig {
	return SelectionConfig{
		IVThreshold:      stats.DefaultIVCutoff,
		IVBins:           10,
		PearsonThreshold: stats.DefaultPearsonCutoff,
		MinKeepIV:        8,
		Ranker:           PaperBooster(),
	}
}

// Select runs the SAFE selection pipeline over candidate columns and returns
// the indices of the selected columns in importance order (best first),
// capped at cfg.MaxFeatures when positive.
func Select(cols [][]float64, labels []float64, cfg SelectionConfig) ([]int, error) {
	if len(cols) == 0 {
		return nil, errors.New("core: select: no candidate columns")
	}
	if len(labels) == 0 {
		return nil, errors.New("core: select: no labels")
	}
	if cfg.IVBins <= 1 {
		cfg.IVBins = 10
	}
	if cfg.MinKeepIV <= 0 {
		cfg.MinKeepIV = 8
	}
	if cfg.PearsonThreshold == 0 {
		cfg.PearsonThreshold = stats.DefaultPearsonCutoff
	}
	if err := checkThresholds(cfg.IVThreshold, cfg.PearsonThreshold); err != nil {
		return nil, err
	}
	if err := cfg.Task.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Task.ValidateLabels(labels); err != nil {
		return nil, err
	}
	if cfg.Ranker.NumTrees == 0 {
		cfg.Ranker = PaperBooster()
	}
	cfg.Task.applyObjective(&cfg.Ranker)
	cfg.Ranker.Workers = cfg.Workers
	pool := parallel.Get(cfg.Workers)

	ivs := computeCriteria(cols, labels, codeTarget(labels, cfg.Task), cfg.Task, cfg.IVBins, false, pool, new(scratchList))
	keptA := ivFilter(ivs, cfg.IVThreshold, cfg.MinKeepIV)
	keptB, err := pearsonDedup(context.Background(), cols, ivs, keptA, cfg.PearsonThreshold, pool)
	if err != nil {
		return nil, err
	}

	keptCols := make([][]float64, len(keptB))
	for i, j := range keptB {
		keptCols[i] = cols[j]
	}
	ranker, err := gbdt.Train(keptCols, labels, nil, cfg.Ranker)
	if err != nil {
		return nil, err
	}
	ranked := orderByGain(ranker.GainImportance(), ivs, keptB)
	if cfg.MaxFeatures > 0 && len(ranked) > cfg.MaxFeatures {
		ranked = ranked[:cfg.MaxFeatures]
	}
	return ranked, nil
}
