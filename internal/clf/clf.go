// Package clf aggregates the nine evaluation classifiers of Table III —
// AdaBoost (AB), Decision Tree (DT), Extremely randomized Trees (ET),
// k-nearest neighbours (kNN), Logistic Regression (LR), Multi-Layered
// Perceptron (MLP), Random Forest (RF), linear SVM (SVM) and XGBoost (XGB) —
// behind one name-indexed constructor, all with fixed default parameters
// (the paper uses scikit-learn/XGBoost defaults; these are the equivalent
// defaults of this repository's from-scratch implementations).
package clf

import (
	"fmt"

	"repro/internal/ensemble"
	"repro/internal/gbdt"
	"repro/internal/knn"
	"repro/internal/linear"
	"repro/internal/mlp"
	"repro/internal/tree"
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
		cfg := ensemble.DefaultAdaBoostConfig()
		cfg.Seed = seed
		return ensemble.TrainAdaBoost(cols, labels, cfg)
	case "DT":
		tc := tree.Config{MaxDepth: 12, Criterion: tree.Gini, Seed: seed}
		return treeModel{inner: nil}.train(cols, labels, tc)
	case "ET":
		cfg := ensemble.DefaultForestConfig()
		cfg.ExtraTrees = true
		cfg.Bootstrap = false
		cfg.Seed = seed
		return ensemble.TrainForest(cols, labels, cfg)
	case "kNN":
		cfg := knn.DefaultConfig()
		cfg.Seed = seed
		return knn.Train(cols, labels, cfg)
	case "LR":
		cfg := linear.DefaultLogisticConfig()
		cfg.Seed = seed
		return linear.TrainLogistic(cols, labels, cfg)
	case "MLP":
		cfg := mlp.DefaultConfig()
		cfg.Seed = seed
		return mlp.Train(cols, labels, cfg)
	case "RF":
		cfg := ensemble.DefaultForestConfig()
		cfg.Seed = seed
		return ensemble.TrainForest(cols, labels, cfg)
	case "SVM":
		cfg := linear.DefaultSVMConfig()
		cfg.Seed = seed
		return linear.TrainSVM(cols, labels, cfg)
	case "XGB":
		return gbdt.Train(cols, labels, nil, gbdt.DefaultConfig())
	default:
		return nil, fmt.Errorf("clf: unknown classifier %q (want one of %v)", name, Names())
	}
}

// treeModel adapts tree.Tree to the Model interface via its train helper.
type treeModel struct{ inner *tree.Tree }

func (tm treeModel) train(cols [][]float64, labels []float64, cfg tree.Config) (Model, error) {
	tr, err := tree.Train(cols, labels, nil, cfg)
	if err != nil {
		return nil, err
	}
	return treeModel{inner: tr}, nil
}

// Predict implements Model.
func (tm treeModel) Predict(cols [][]float64) []float64 { return tm.inner.Predict(cols) }
