// Package ensemble implements the tree-ensemble evaluators of Table III:
// RandomForest, ExtraTrees and AdaBoost (SAMME.R on shallow trees). Each
// exposes Fit / Predict over column-major data plus feature importances
// (random-forest importance is the scoring device of Fig. 3).
package ensemble

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/parallel"
	"repro/internal/tree"
)

// ForestConfig configures RandomForest and ExtraTrees.
type ForestConfig struct {
	NumTrees    int
	MaxDepth    int
	MaxFeatures int // candidate features per split; <=0 means sqrt(M)
	MinLeaf     int
	Bootstrap   bool // sample rows with replacement per tree
	ExtraTrees  bool // random thresholds instead of exact scan
	Seed        int64
	// Workers bounds the shared worker pool the trees grow on: 1 runs
	// serial, <= 0 selects GOMAXPROCS. Each tree is pre-seeded, so the
	// forest is identical for any worker count.
	Workers int
}

// DefaultForestConfig mirrors scikit-learn's RandomForestClassifier defaults
// scaled for this repository's benchmark sizes.
func DefaultForestConfig() ForestConfig {
	return ForestConfig{
		NumTrees:  50,
		MaxDepth:  12,
		MinLeaf:   1,
		Bootstrap: true,
	}
}

// Forest is a trained bagged ensemble.
type Forest struct {
	Trees   []*tree.Tree
	NumFeat int
	cfg     ForestConfig
}

// TrainForest fits a random forest (or ExtraTrees when cfg.ExtraTrees) on
// column-major data with binary labels.
func TrainForest(cols [][]float64, labels []float64, cfg ForestConfig) (*Forest, error) {
	if cfg.NumTrees <= 0 {
		return nil, errors.New("ensemble: NumTrees must be positive")
	}
	m := len(cols)
	if m == 0 {
		return nil, errors.New("ensemble: no features")
	}
	n := len(labels)
	if n == 0 {
		return nil, errors.New("ensemble: no rows")
	}
	maxFeat := cfg.MaxFeatures
	if maxFeat <= 0 {
		maxFeat = int(math.Sqrt(float64(m)))
		if maxFeat < 1 {
			maxFeat = 1
		}
	}

	f := &Forest{Trees: make([]*tree.Tree, cfg.NumTrees), NumFeat: m, cfg: cfg}
	seeds := make([]int64, cfg.NumTrees)
	rng := rand.New(rand.NewSource(cfg.Seed))
	for i := range seeds {
		seeds[i] = rng.Int63()
	}

	buildOne := func(t int) error {
		treeRng := rand.New(rand.NewSource(seeds[t]))
		tCols := cols
		tLabels := labels
		if cfg.Bootstrap {
			idx := make([]int, n)
			for i := range idx {
				idx[i] = treeRng.Intn(n)
			}
			tCols = make([][]float64, m)
			for j := 0; j < m; j++ {
				c := make([]float64, n)
				src := cols[j]
				for i, r := range idx {
					c[i] = src[r]
				}
				tCols[j] = c
			}
			tLabels = make([]float64, n)
			for i, r := range idx {
				tLabels[i] = labels[r]
			}
		}
		tc := tree.Config{
			MaxDepth:       cfg.MaxDepth,
			MinSamplesLeaf: cfg.MinLeaf,
			MaxFeatures:    maxFeat,
			RandomSplits:   cfg.ExtraTrees,
			Criterion:      tree.Gini,
			Seed:           seeds[t],
		}
		tr, err := tree.Train(tCols, tLabels, nil, tc)
		if err != nil {
			return err
		}
		f.Trees[t] = tr
		return nil
	}

	errs := make([]error, cfg.NumTrees)
	parallel.Get(cfg.Workers).ForChunks(cfg.NumTrees, 1, func(lo, hi int) {
		for t := lo; t < hi; t++ {
			errs[t] = buildOne(t)
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("ensemble: %w", err)
		}
	}
	return f, nil
}

// PredictRow averages member-tree probabilities for one row.
func (f *Forest) PredictRow(row []float64) float64 {
	s := 0.0
	for _, t := range f.Trees {
		s += t.PredictRow(row)
	}
	return s / float64(len(f.Trees))
}

// Predict scores column-major data.
func (f *Forest) Predict(cols [][]float64) []float64 {
	if len(cols) == 0 {
		return nil
	}
	n := len(cols[0])
	out := make([]float64, n)
	row := make([]float64, len(cols))
	for i := 0; i < n; i++ {
		for j := range cols {
			row[j] = cols[j][i]
		}
		out[i] = f.PredictRow(row)
	}
	return out
}

// FeatureImportance averages normalised per-tree gain importances — the
// random-forest feature importance used to score features in Fig. 3.
func (f *Forest) FeatureImportance() []float64 {
	imp := make([]float64, f.NumFeat)
	for _, t := range f.Trees {
		ti := t.FeatureImportance()
		for j := range imp {
			imp[j] += ti[j]
		}
	}
	for j := range imp {
		imp[j] /= float64(len(f.Trees))
	}
	return imp
}

// AdaBoostConfig configures the AdaBoost (SAMME.R) classifier.
type AdaBoostConfig struct {
	NumRounds int
	MaxDepth  int // base-learner depth (stumps by default)
	Seed      int64
}

// DefaultAdaBoostConfig mirrors sklearn's AdaBoostClassifier defaults
// (50 depth-1 stumps).
func DefaultAdaBoostConfig() AdaBoostConfig {
	return AdaBoostConfig{NumRounds: 50, MaxDepth: 1}
}

// AdaBoost is a trained SAMME.R boosted-stump classifier.
type AdaBoost struct {
	Trees   []*tree.Tree
	NumFeat int
}

// TrainAdaBoost fits AdaBoost with the real-valued SAMME.R update: each round
// trains a weighted tree, then reweights rows by exp(-y * 0.5 ln(p/(1-p))).
func TrainAdaBoost(cols [][]float64, labels []float64, cfg AdaBoostConfig) (*AdaBoost, error) {
	if cfg.NumRounds <= 0 {
		return nil, errors.New("ensemble: NumRounds must be positive")
	}
	if cfg.MaxDepth <= 0 {
		cfg.MaxDepth = 1
	}
	n := len(labels)
	if n == 0 {
		return nil, errors.New("ensemble: no rows")
	}
	w := make([]float64, n)
	for i := range w {
		w[i] = 1 / float64(n)
	}
	ab := &AdaBoost{NumFeat: len(cols)}
	const eps = 1e-7
	for r := 0; r < cfg.NumRounds; r++ {
		tc := tree.Config{
			MaxDepth:  cfg.MaxDepth,
			Criterion: tree.Gini,
			Seed:      cfg.Seed + int64(r),
		}
		tr, err := tree.Train(cols, labels, w, tc)
		if err != nil {
			return nil, err
		}
		ab.Trees = append(ab.Trees, tr)

		// Reweight: h = 0.5 ln(p/(1-p)); w *= exp(-y* h), y* in {-1,+1}.
		sum := 0.0
		row := make([]float64, len(cols))
		for i := 0; i < n; i++ {
			for j := range cols {
				row[j] = cols[j][i]
			}
			p := tr.PredictRow(row)
			if p < eps {
				p = eps
			}
			if p > 1-eps {
				p = 1 - eps
			}
			h := 0.5 * math.Log(p/(1-p))
			ystar := -1.0
			if labels[i] > 0.5 {
				ystar = 1
			}
			w[i] *= math.Exp(-ystar * h)
			sum += w[i]
		}
		if sum <= 0 {
			break
		}
		for i := range w {
			w[i] /= sum
		}
	}
	return ab, nil
}

// PredictRow returns the positive-class probability via the summed SAMME.R
// half-log-odds passed through a sigmoid.
func (ab *AdaBoost) PredictRow(row []float64) float64 {
	const eps = 1e-7
	s := 0.0
	for _, t := range ab.Trees {
		p := t.PredictRow(row)
		if p < eps {
			p = eps
		}
		if p > 1-eps {
			p = 1 - eps
		}
		s += 0.5 * math.Log(p/(1-p))
	}
	return 1 / (1 + math.Exp(-2*s/float64(len(ab.Trees))))
}

// Predict scores column-major data.
func (ab *AdaBoost) Predict(cols [][]float64) []float64 {
	if len(cols) == 0 {
		return nil
	}
	n := len(cols[0])
	out := make([]float64, n)
	row := make([]float64, len(cols))
	for i := 0; i < n; i++ {
		for j := range cols {
			row[j] = cols[j][i]
		}
		out[i] = ab.PredictRow(row)
	}
	return out
}
