package core

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/gbdt"
	"repro/internal/parallel"
	"repro/internal/stats"
)

// SelectionConfig configures the standalone three-stage selection pipeline
// (Algorithms 3 and 4 plus gain ranking). The RAND and IMP baselines of
// Section V-A1 "follow the same feature selection process as SAFE", which
// they do by calling Select with this config.
type SelectionConfig struct {
	// Task selects the criterion and ranker objective; the zero value is the
	// binary task.
	Task             Task
	IVThreshold      float64
	IVBins           int
	IVEqualWidth     bool
	PearsonThreshold float64
	MaxFeatures      int
	MinKeepIV        int
	Ranker           gbdt.Config
	Parallel         bool
	// Workers bounds the shared worker pool when Parallel is set; <= 0
	// selects GOMAXPROCS. Results are identical for any worker count.
	Workers int
	// SkipIV and SkipPearson disable individual stages (selection ablation).
	SkipIV      bool
	SkipPearson bool
}

// DefaultSelectionConfig mirrors the paper's thresholds (α=0.1, β=10,
// θ=0.8).
func DefaultSelectionConfig() SelectionConfig {
	ranker := gbdt.DefaultConfig()
	ranker.NumTrees = 20
	ranker.MaxDepth = 4
	return SelectionConfig{
		IVThreshold:      stats.DefaultIVCutoff,
		IVBins:           10,
		PearsonThreshold: stats.DefaultPearsonCutoff,
		MinKeepIV:        8,
		Ranker:           ranker,
		Parallel:         true,
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
	if cfg.PearsonThreshold <= 0 {
		cfg.PearsonThreshold = stats.DefaultPearsonCutoff
	}
	if err := cfg.Task.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Task.ValidateLabels(labels); err != nil {
		return nil, err
	}
	if cfg.Task.Kind != TaskBinary && cfg.IVEqualWidth {
		return nil, fmt.Errorf("core: IVEqualWidth is a binary-IV ablation; not supported for the %s task", cfg.Task)
	}
	if cfg.Ranker.NumTrees == 0 {
		cfg.Ranker = gbdt.DefaultConfig()
		cfg.Ranker.NumTrees = 20
		cfg.Ranker.MaxDepth = 4
	}
	cfg.Task.applyObjective(&cfg.Ranker)
	cfg.Ranker.Parallel = cfg.Parallel
	cfg.Ranker.Workers = cfg.Workers
	pool := parallel.Get(1)
	if cfg.Parallel {
		pool = parallel.Get(cfg.Workers)
	}

	ivs := computeCriteria(cols, labels, cfg.Task, cfg.IVBins, cfg.IVEqualWidth, pool, new(scratchList))

	var keptA []int
	if cfg.SkipIV {
		keptA = make([]int, len(cols))
		for j := range keptA {
			keptA[j] = j
		}
	} else {
		keptA = ivFilter(ivs, cfg.IVThreshold, cfg.MinKeepIV)
	}

	keptB := keptA
	if !cfg.SkipPearson {
		var err error
		keptB, err = pearsonDedup(context.Background(), cols, ivs, keptA, cfg.PearsonThreshold, pool)
		if err != nil {
			return nil, err
		}
	}

	keptCols := make([][]float64, len(keptB))
	for i, j := range keptB {
		keptCols[i] = cols[j]
	}
	pb, err := gbdt.BinColumns(keptCols, cfg.Ranker)
	if err != nil {
		return nil, err
	}
	ranker, err := gbdt.TrainBinned(pb, labels, nil, cfg.Ranker)
	if err != nil {
		return nil, err
	}
	ranked := orderByGain(ranker.GainImportance(), ivs, keptB)
	if cfg.MaxFeatures > 0 && len(ranked) > cfg.MaxFeatures {
		ranked = ranked[:cfg.MaxFeatures]
	}
	return ranked, nil
}
