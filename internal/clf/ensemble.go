package clf

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/parallel"
)

// The tree-ensemble evaluators: RandomForest, ExtraTrees and AdaBoost
// (SAMME.R on shallow trees). Random-forest importance is the scoring
// device of Fig. 3.

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
	trees   []*tree
	numFeat int
}

// TrainForest fits a random forest (or ExtraTrees when cfg.ExtraTrees) on
// column-major data with binary labels.
func TrainForest(cols [][]float64, labels []float64, cfg ForestConfig) (*Forest, error) {
	if cfg.NumTrees <= 0 {
		return nil, errors.New("ensemble: NumTrees must be positive")
	}
	if err := checkXY("ensemble", cols, labels); err != nil {
		return nil, err
	}
	m := len(cols)
	n := len(labels)
	maxFeat := cfg.MaxFeatures
	if maxFeat <= 0 {
		maxFeat = int(math.Sqrt(float64(m)))
		if maxFeat < 1 {
			maxFeat = 1
		}
	}

	f := &Forest{trees: make([]*tree, cfg.NumTrees), numFeat: m}
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
		tc := treeConfig{
			maxDepth:       cfg.MaxDepth,
			minSamplesLeaf: cfg.MinLeaf,
			maxFeatures:    maxFeat,
			randomSplits:   cfg.ExtraTrees,
			criterion:      gini,
			seed:           seeds[t],
		}
		tr, err := trainTree(tCols, tLabels, nil, tc)
		if err != nil {
			return err
		}
		f.trees[t] = tr
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

// predictRow averages member-tree probabilities for one row.
func (f *Forest) predictRow(row []float64) float64 {
	s := 0.0
	for _, t := range f.trees {
		s += t.predictRow(row)
	}
	return s / float64(len(f.trees))
}

// Predict scores column-major data.
func (f *Forest) Predict(cols [][]float64) []float64 { return predictRows(cols, f.predictRow) }

// FeatureImportance averages normalised per-tree gain importances — the
// random-forest feature importance used to score features in Fig. 3.
func (f *Forest) FeatureImportance() []float64 {
	imp := make([]float64, f.numFeat)
	for _, t := range f.trees {
		ti := t.featureImportance()
		for j := range imp {
			imp[j] += ti[j]
		}
	}
	for j := range imp {
		imp[j] /= float64(len(f.trees))
	}
	return imp
}

// adaBoostConfig configures the AdaBoost (SAMME.R) classifier.
type adaBoostConfig struct {
	numRounds int
	maxDepth  int // base-learner depth (stumps by default)
	seed      int64
}

// defaultAdaBoostConfig mirrors sklearn's AdaBoostClassifier defaults
// (50 depth-1 stumps).
func defaultAdaBoostConfig() adaBoostConfig {
	return adaBoostConfig{numRounds: 50, maxDepth: 1}
}

// adaBoost is a trained SAMME.R boosted-stump classifier.
type adaBoost struct {
	trees []*tree
}

// clampProb keeps a member tree's probability inside [eps, 1-eps] so its
// half-log-odds stay finite.
func clampProb(p float64) float64 {
	const eps = 1e-7
	if p < eps {
		p = eps
	}
	if p > 1-eps {
		p = 1 - eps
	}
	return p
}

// trainAdaBoost fits AdaBoost with the real-valued SAMME.R update: each
// round trains a weighted tree, then reweights rows by
// exp(-y * 0.5 ln(p/(1-p))).
func trainAdaBoost(cols [][]float64, labels []float64, cfg adaBoostConfig) (*adaBoost, error) {
	if cfg.numRounds <= 0 {
		return nil, errors.New("ensemble: NumRounds must be positive")
	}
	if err := checkXY("ensemble", cols, labels); err != nil {
		return nil, err
	}
	n := len(labels)
	w := make([]float64, n)
	for i := range w {
		w[i] = 1 / float64(n)
	}
	ab := &adaBoost{}
	for r := 0; r < cfg.numRounds; r++ {
		tc := treeConfig{
			maxDepth:  cfg.maxDepth,
			criterion: gini,
			seed:      cfg.seed + int64(r),
		}
		tr, err := trainTree(cols, labels, w, tc)
		if err != nil {
			return nil, err
		}
		ab.trees = append(ab.trees, tr)

		// Reweight: h = 0.5 ln(p/(1-p)); w *= exp(-y* h), y* in {-1,+1}.
		sum := 0.0
		for i, p := range tr.Predict(cols) {
			p = clampProb(p)
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

// predictRow returns the positive-class probability via the summed SAMME.R
// half-log-odds passed through a sigmoid.
func (ab *adaBoost) predictRow(row []float64) float64 {
	s := 0.0
	for _, t := range ab.trees {
		p := clampProb(t.predictRow(row))
		s += 0.5 * math.Log(p/(1-p))
	}
	return sigmoid(2 * s / float64(len(ab.trees)))
}

// Predict scores column-major data.
func (ab *adaBoost) Predict(cols [][]float64) []float64 { return predictRows(cols, ab.predictRow) }
