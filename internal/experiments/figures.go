package experiments

import (
	"context"
	"fmt"
	"io"
	"sort"

	"repro/internal/clf"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/frame"
)

// Fig3Row reports random-forest importance mass of generated vs original
// features on one dataset (the paper's Fig. 3 bar charts, reduced to their
// headline statistic: generated features dominate the importance ranking).
type Fig3Row struct {
	Dataset string
	// OriginalShare and GeneratedShare are the summed RF importances of
	// each group (they sum to ~1).
	OriginalShare  float64
	GeneratedShare float64
	// TopK lists the names of the top-10 most important features, for
	// qualitative inspection.
	TopK []string
}

// RunFig3 reproduces Fig. 3: combine the M original features with the
// top-ranked SAFE-generated features (up to M) and score importance with a
// random forest. The paper's observation — generated features (orange) are
// relatively more important than originals (blue) — corresponds here to
// GeneratedShare exceeding its feature-count share.
func RunFig3(opts Options, w io.Writer) ([]Fig3Row, error) {
	opts = opts.normalise()
	var out []Fig3Row
	tb := newTable("Dataset", "#orig", "#gen", "orig share", "gen share", "top feature")
	for _, spec := range opts.benchmarkSpecs() {
		spec.Seed += opts.Seed
		ds, err := datagen.Generate(spec)
		if err != nil {
			return nil, err
		}
		p, _, err := BuildPipeline(SAFE, ds.Train, opts.Seed+3)
		if err != nil {
			return nil, err
		}
		row, err := fig3ForDataset(spec.Name, ds.Train, p, opts.Seed)
		if err != nil {
			return nil, err
		}
		out = append(out, *row)
		top := ""
		if len(row.TopK) > 0 {
			top = row.TopK[0]
		}
		nGen := p.NumDerived()
		if nGen > ds.Train.NumCols() {
			nGen = ds.Train.NumCols()
		}
		tb.addRow(spec.Name,
			fmt.Sprintf("%d", ds.Train.NumCols()),
			fmt.Sprintf("%d", nGen),
			fmt.Sprintf("%.3f", row.OriginalShare),
			fmt.Sprintf("%.3f", row.GeneratedShare),
			top)
	}
	if w != nil {
		tb.render(w, "Fig. 3 (random-forest importance share: original vs SAFE-generated features):")
	}
	return out, nil
}

func fig3ForDataset(name string, train *frame.Frame, p *core.Pipeline, seed int64) (*Fig3Row, error) {
	orig := make(map[string]bool, len(p.OriginalNames))
	for _, n := range p.OriginalNames {
		orig[n] = true
	}
	// Combined frame: all originals + generated outputs (up to M of them).
	transformed, err := p.Transform(train)
	if err != nil {
		return nil, err
	}
	combined := &frame.Frame{Label: train.Label}
	for _, c := range train.Columns {
		combined.AddColumn(c.Name, c.Values)
	}
	m := train.NumCols()
	added := 0
	for _, c := range transformed.Columns {
		if orig[c.Name] || added >= m {
			continue
		}
		combined.AddColumn(c.Name, c.Values)
		added++
	}

	cfg := clf.DefaultForestConfig()
	cfg.Seed = seed
	f, err := clf.TrainForest(colsOf(combined), combined.Label, cfg)
	if err != nil {
		return nil, err
	}
	imp := f.FeatureImportance()

	row := &Fig3Row{Dataset: name}
	type ni struct {
		name string
		imp  float64
	}
	var all []ni
	for j, c := range combined.Columns {
		all = append(all, ni{c.Name, imp[j]})
		if orig[c.Name] {
			row.OriginalShare += imp[j]
		} else {
			row.GeneratedShare += imp[j]
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].imp > all[j].imp })
	for i := 0; i < 10 && i < len(all); i++ {
		row.TopK = append(row.TopK, all[i].name)
	}
	return row, nil
}

// Fig4Series is test AUC per iteration round for one dataset.
type Fig4Series struct {
	Dataset string
	AUC     []float64 // index = round-1
}

// RunFig4 reproduces Fig. 4: SAFE run with nIter = rounds; after each round
// the selected representation is evaluated with XGBoost on the test set.
// The paper's observation: AUC improves over the first rounds, then goes
// stable.
func RunFig4(opts Options, rounds int, w io.Writer) ([]Fig4Series, error) {
	opts = opts.normalise()
	if rounds <= 0 {
		rounds = 5
	}
	var out []Fig4Series
	tb := newTable(append([]string{"Dataset"}, roundHeaders(rounds)...)...)
	for _, spec := range opts.benchmarkSpecs() {
		spec.Seed += opts.Seed
		ds, err := datagen.Generate(spec)
		if err != nil {
			return nil, err
		}
		series := Fig4Series{Dataset: spec.Name}
		for r := 1; r <= rounds; r++ {
			cfg := core.DefaultConfig()
			cfg.Iterations = r
			cfg.Seed = opts.Seed + 17
			p, _, err := core.Fit(context.Background(), ds.Train, nil, cfg)
			if err != nil {
				return nil, err
			}
			auc, err := EvaluateAUC(p, "XGB", ds.Train, ds.Test, opts.Seed+17)
			if err != nil {
				return nil, err
			}
			series.AUC = append(series.AUC, auc)
		}
		out = append(out, series)
		cells := []string{spec.Name}
		for _, a := range series.AUC {
			cells = append(cells, fmt.Sprintf("%.2f", 100*a))
		}
		tb.addRow(cells...)
	}
	if w != nil {
		tb.render(w, fmt.Sprintf("Fig. 4 (XGB test 100xAUC after k SAFE iterations, k=1..%d):", rounds))
	}
	return out, nil
}

func roundHeaders(rounds int) []string {
	out := make([]string, rounds)
	for i := range out {
		out[i] = fmt.Sprintf("iter%d", i+1)
	}
	return out
}
