package experiments

import (
	"context"
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/datagen"
)

// AblationResult records test AUC (XGB evaluator) for one configuration
// variant on one dataset.
type AblationResult struct {
	Dataset string
	Variant string
	AUC     float64
	Width   int // output feature count
}

// RunAblation exercises the design choices of the selection stages
// README.md's "What SAFE does" describes, on each selected dataset:
//
//   - selection stages: full pipeline vs no-IV vs no-Pearson vs rank-only
//   - IV binning: equal-frequency (paper) vs equal-width
//   - γ sensitivity: 0.5x, 1x (default 2M), 2x
//
// Each variant's output representation is evaluated with XGBoost on the
// test set.
func RunAblation(opts Options, w io.Writer) ([]AblationResult, error) {
	opts = opts.normalise()
	var out []AblationResult
	tb := newTable("Dataset", "Variant", "width", "100xAUC")

	for _, spec := range opts.benchmarkSpecs() {
		spec.Seed += opts.Seed
		ds, err := datagen.Generate(spec)
		if err != nil {
			return nil, err
		}
		m := ds.Train.NumCols()

		variants := []struct {
			name string
			cfg  func() core.Config
		}{
			{"default", func() core.Config { return core.DefaultConfig() }},
			{"no-iv-filter", func() core.Config {
				c := core.DefaultConfig()
				c.IVThreshold = 0 // keep everything with any signal
				return c
			}},
			{"pearson-off", func() core.Config {
				c := core.DefaultConfig()
				c.PearsonThreshold = 1.0 // nothing correlates above 1
				return c
			}},
			{"iv-equal-width", func() core.Config {
				c := core.DefaultConfig()
				c.IVEqualWidth = true
				return c
			}},
			{"gamma-half", func() core.Config {
				c := core.DefaultConfig()
				c.Gamma = m // default is 2M
				return c
			}},
			{"gamma-double", func() core.Config {
				c := core.DefaultConfig()
				c.Gamma = 4 * m
				return c
			}},
			{"deep-miner", func() core.Config {
				c := core.DefaultConfig()
				c.Miner.MaxDepth = 6
				return c
			}},
		}

		for _, v := range variants {
			cfg := v.cfg()
			cfg.Seed = opts.Seed + 5
			p, _, err := core.Fit(context.Background(), ds.Train, nil, cfg)
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", spec.Name, v.name, err)
			}
			auc, err := EvaluateAUC(p, "XGB", ds.Train, ds.Test, opts.Seed+5)
			if err != nil {
				return nil, err
			}
			out = append(out, AblationResult{
				Dataset: spec.Name, Variant: v.name, AUC: auc, Width: p.NumFeatures(),
			})
			tb.addRow(spec.Name, v.name, fmt.Sprintf("%d", p.NumFeatures()),
				fmt.Sprintf("%.2f", 100*auc))
		}
	}
	if w != nil {
		tb.render(w, "Ablation (selection design choices, see README.md; XGB test AUC):")
	}
	return out, nil
}
