// Package clf holds the nine evaluation classifiers of Table III —
// AdaBoost (AB), Decision Tree (DT), Extremely randomized Trees (ET),
// k-nearest neighbours (kNN), Logistic Regression (LR), Multi-Layered
// Perceptron (MLP), Random Forest (RF), linear SVM (SVM) and XGBoost (XGB) —
// behind one name-indexed constructor, all with fixed default parameters
// (the paper uses scikit-learn/XGBoost defaults; these are the equivalent
// defaults of this repository's from-scratch implementations).
//
// The evaluators share one scaffold: checkXY validates the training input,
// a scaler standardises columns for the distance- and gradient-based
// models, and predictRows turns a model's row scorer into its column-major
// Predict.
package clf

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/gbdt"
	"repro/internal/stats"
)

// Model scores column-major data with positive-class probabilities.
type Model interface {
	Predict(cols [][]float64) []float64
}

// Names lists the classifier keys in the order Table III reports them.
func Names() []string {
	return []string{"AB", "DT", "ET", "kNN", "LR", "MLP", "RF", "SVM", "XGB"}
}

// FastNames lists the classifiers used for the business-scale Table VIII
// (LR, RF, XGB — the only ones the paper runs at that scale).
func FastNames() []string { return []string{"LR", "RF", "XGB"} }

// Train fits the named classifier on column-major data with binary labels.
func Train(name string, cols [][]float64, labels []float64, seed int64) (Model, error) {
	switch name {
	case "AB":
		cfg := defaultAdaBoostConfig()
		cfg.seed = seed
		return trainAdaBoost(cols, labels, cfg)
	case "DT":
		return trainTree(cols, labels, nil, treeConfig{maxDepth: 12, criterion: gini, seed: seed})
	case "ET":
		cfg := DefaultForestConfig()
		cfg.ExtraTrees = true
		cfg.Bootstrap = false
		cfg.Seed = seed
		return TrainForest(cols, labels, cfg)
	case "kNN":
		cfg := defaultKNNConfig()
		cfg.seed = seed
		return trainKNN(cols, labels, cfg)
	case "LR":
		cfg := defaultLogisticConfig()
		cfg.seed = seed
		return trainLogistic(cols, labels, cfg)
	case "MLP":
		cfg := defaultMLPConfig()
		cfg.seed = seed
		return trainMLP(cols, labels, cfg)
	case "RF":
		cfg := DefaultForestConfig()
		cfg.Seed = seed
		return TrainForest(cols, labels, cfg)
	case "SVM":
		cfg := defaultSVMConfig()
		cfg.seed = seed
		return trainSVM(cols, labels, cfg)
	case "XGB":
		return gbdt.Train(cols, labels, nil, gbdt.DefaultConfig())
	default:
		return nil, fmt.Errorf("clf: unknown classifier %q (want one of %v)", name, Names())
	}
}

// checkXY refuses training input with no feature, no row, or a column whose
// length is not the label count; what prefixes the error.
func checkXY(what string, cols [][]float64, labels []float64) error {
	if len(cols) == 0 {
		return errors.New(what + ": no features")
	}
	n := len(labels)
	if n == 0 {
		return errors.New(what + ": no rows")
	}
	for j := range cols {
		if len(cols[j]) != n {
			return fmt.Errorf("%s: column %d has %d rows, want %d", what, j, len(cols[j]), n)
		}
	}
	return nil
}

// scaler standardises columns to zero mean and unit variance with the
// training columns' stats.MeanStd; a column with no value, or one whose
// deviation is under 1e-12, is divided by 1.
type scaler struct {
	mean []float64
	std  []float64
}

func fitScaler(cols [][]float64) scaler {
	s := scaler{mean: make([]float64, len(cols)), std: make([]float64, len(cols))}
	for j, col := range cols {
		mean, std, _ := stats.MeanStd(col)
		if std < 1e-12 {
			std = 1
		}
		s.mean[j], s.std[j] = mean, std
	}
	return s
}

// value standardises v as a value of column j, a NaN as 0.
func (s scaler) value(j int, v float64) float64 {
	if math.IsNaN(v) {
		return 0
	}
	return (v - s.mean[j]) / s.std[j]
}

// apply standardises row in place.
func (s scaler) apply(row []float64) {
	for j, v := range row {
		row[j] = s.value(j, v)
	}
}

// row returns row i of column-major data, standardised.
func (s scaler) row(cols [][]float64, i int) []float64 {
	x := make([]float64, len(cols))
	for j, col := range cols {
		x[j] = s.value(j, col[i])
	}
	return x
}

// rows returns the standardised row-major copy of column-major data.
func (s scaler) rows(cols [][]float64) [][]float64 {
	x := make([][]float64, len(cols[0]))
	for i := range x {
		x[i] = s.row(cols, i)
	}
	return x
}

// predictRows scores column-major data one row at a time with f.
func predictRows(cols [][]float64, f func(row []float64) float64) []float64 {
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
		out[i] = f(row)
	}
	return out
}

func sigmoid(x float64) float64 { return 1 / (1 + math.Exp(-x)) }

// shuffleInts is a Fisher-Yates shuffle drawing rng.Intn.
func shuffleInts(xs []int, rng *rand.Rand) {
	for i := len(xs) - 1; i > 0; i-- {
		k := rng.Intn(i + 1)
		xs[i], xs[k] = xs[k], xs[i]
	}
}
