package core

import (
	"context"
	"errors"
	"strconv"

	"repro/internal/frame"
	"repro/internal/gbdt"
	"repro/internal/stats"
)

// SelectionConfig configures the standalone three-stage selection pipeline
// (Algorithms 3 and 4 plus gain ranking) over caller-supplied columns, behind
// the public safe.Select. Its fields are the Config fields of the same names.
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
// capped at cfg.MaxFeatures when positive. It is one round of the fit's own
// loop over the caller's columns, named "0"…"n-1", under a PairSource that
// chooses no combination: the candidates are the columns themselves, and the
// IV filter, the Pearson scan and the gain ranking are the fit's.
func Select(cols [][]float64, labels []float64, cfg SelectionConfig) ([]int, error) {
	if len(cols) == 0 {
		return nil, errors.New("core: select: no candidate columns")
	}
	if len(labels) == 0 {
		return nil, errors.New("core: select: no labels")
	}
	if cfg.PearsonThreshold == 0 {
		cfg.PearsonThreshold = stats.DefaultPearsonCutoff
	}
	train := &frame.Frame{Columns: make([]frame.Column, len(cols)), Label: labels}
	for j, col := range cols {
		train.Columns[j] = frame.Column{Name: strconv.Itoa(j), Values: col}
	}
	p, _, err := Fit(context.Background(), train, nil, Config{
		Task:             cfg.Task,
		Pairs:            func(*PairRound) ([]Combo, error) { return nil, nil },
		IVThreshold:      cfg.IVThreshold,
		IVBins:           cfg.IVBins,
		PearsonThreshold: cfg.PearsonThreshold,
		MaxFeatures:      cfg.MaxFeatures,
		Ranker:           cfg.Ranker,
		MinKeepIV:        cfg.MinKeepIV,
		Workers:          cfg.Workers,
	})
	if err != nil {
		return nil, err
	}
	ranked := make([]int, len(p.Output))
	for i, name := range p.Output {
		ranked[i], _ = strconv.Atoi(name)
	}
	return ranked, nil
}
