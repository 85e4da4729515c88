package clf

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/metrics"
)

func thresholdData(n int, seed int64) ([][]float64, []float64) {
	rng := rand.New(rand.NewSource(seed))
	cols := [][]float64{make([]float64, n), make([]float64, n)}
	labels := make([]float64, n)
	for i := 0; i < n; i++ {
		cols[0][i] = rng.Float64() * 10
		cols[1][i] = rng.NormFloat64()
		if cols[0][i] > 5 {
			labels[i] = 1
		}
	}
	return cols, labels
}

func TestTreeValidation(t *testing.T) {
	cols, labels := thresholdData(20, 1)
	if _, err := trainTree(nil, labels, nil, treeConfig{}); err == nil {
		t.Error("accepted no features")
	}
	if _, err := trainTree(cols, nil, nil, treeConfig{}); err == nil {
		t.Error("accepted no rows")
	}
	if _, err := trainTree(cols, labels, []float64{1}, treeConfig{}); err == nil {
		t.Error("accepted weight length mismatch")
	}
	if _, err := trainTree([][]float64{{1}, {1, 2}}, []float64{0}, nil, treeConfig{}); err == nil {
		t.Error("accepted ragged columns")
	}
}

func TestLearnsThreshold(t *testing.T) {
	cols, labels := thresholdData(1000, 2)
	tr, err := trainTree(cols, labels, nil, treeConfig{maxDepth: 3})
	if err != nil {
		t.Fatal(err)
	}
	auc := metrics.AUC(tr.Predict(cols), labels)
	if auc < 0.99 {
		t.Errorf("AUC on a simple threshold = %v, want >= 0.99", auc)
	}
	// The root split should be on feature 0 near 5.
	root := tr.nodes[0]
	if root.feature != 0 {
		t.Errorf("root split feature = %d, want 0", root.feature)
	}
	if math.Abs(root.threshold-5) > 0.5 {
		t.Errorf("root threshold = %v, want near 5", root.threshold)
	}
}

func TestEntropyCriterion(t *testing.T) {
	cols, labels := thresholdData(500, 3)
	tr, err := trainTree(cols, labels, nil, treeConfig{maxDepth: 3, criterion: entropy})
	if err != nil {
		t.Fatal(err)
	}
	if auc := metrics.AUC(tr.Predict(cols), labels); auc < 0.99 {
		t.Errorf("entropy-criterion AUC = %v, want >= 0.99", auc)
	}
}

func TestMaxDepthRespected(t *testing.T) {
	cols, labels := thresholdData(500, 4)
	tr, err := trainTree(cols, labels, nil, treeConfig{maxDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Depth-1 tree has at most 3 nodes.
	if len(tr.nodes) > 3 {
		t.Errorf("depth-1 tree has %d nodes", len(tr.nodes))
	}
}

func TestMinSamplesLeaf(t *testing.T) {
	cols, labels := thresholdData(100, 5)
	tr, err := trainTree(cols, labels, nil, treeConfig{maxDepth: 10, minSamplesLeaf: 30})
	if err != nil {
		t.Fatal(err)
	}
	for i := range tr.nodes {
		if tr.nodes[i].isLeaf() && tr.nodes[i].count < 30 {
			t.Errorf("leaf with %d rows violates MinSamplesLeaf=30", tr.nodes[i].count)
		}
	}
}

func TestWeightedTraining(t *testing.T) {
	// Rows with zero weight must not influence the tree: give weight only
	// to rows where x1 determines the label, zero elsewhere.
	rng := rand.New(rand.NewSource(6))
	n := 600
	cols := [][]float64{make([]float64, n), make([]float64, n)}
	labels := make([]float64, n)
	weights := make([]float64, n)
	for i := 0; i < n; i++ {
		cols[0][i] = rng.NormFloat64()
		cols[1][i] = rng.NormFloat64()
		if i < n/2 {
			// Weighted half: label follows x1.
			weights[i] = 1
			if cols[1][i] > 0 {
				labels[i] = 1
			}
		} else {
			// Unweighted half: label follows x0 (a decoy).
			weights[i] = 0
			if cols[0][i] > 0 {
				labels[i] = 1
			}
		}
	}
	tr, err := trainTree(cols, labels, weights, treeConfig{maxDepth: 2})
	if err != nil {
		t.Fatal(err)
	}
	if tr.nodes[0].feature != 1 {
		t.Errorf("root split on feature %d; weighted rows dictate feature 1", tr.nodes[0].feature)
	}
}

func TestExtraTreesRandomSplits(t *testing.T) {
	cols, labels := thresholdData(800, 7)
	tr, err := trainTree(cols, labels, nil, treeConfig{maxDepth: 6, randomSplits: true, seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if auc := metrics.AUC(tr.Predict(cols), labels); auc < 0.9 {
		t.Errorf("ExtraTrees-mode AUC = %v, want >= 0.9", auc)
	}
}

func TestFeatureImportanceNormalised(t *testing.T) {
	cols, labels := thresholdData(500, 8)
	tr, err := trainTree(cols, labels, nil, treeConfig{maxDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	imp := tr.featureImportance()
	sum := 0.0
	for _, v := range imp {
		if v < 0 {
			t.Errorf("negative importance %v", v)
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("importances sum to %v, want 1", sum)
	}
	if imp[0] < imp[1] {
		t.Errorf("signal feature importance %v below noise %v", imp[0], imp[1])
	}
}

func TestPureNodeStops(t *testing.T) {
	cols := [][]float64{{1, 2, 3, 4}}
	labels := []float64{1, 1, 1, 1}
	tr, err := trainTree(cols, labels, nil, treeConfig{maxDepth: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.nodes) != 1 {
		t.Errorf("pure data grew %d nodes, want 1", len(tr.nodes))
	}
	if p := tr.predictRow([]float64{2}); p != 1 {
		t.Errorf("pure leaf prob = %v, want 1", p)
	}
}

func TestNaNRowsGoLeft(t *testing.T) {
	cols, labels := thresholdData(300, 10)
	tr, err := trainTree(cols, labels, nil, treeConfig{maxDepth: 3})
	if err != nil {
		t.Fatal(err)
	}
	p := tr.predictRow([]float64{math.NaN(), math.NaN()})
	if math.IsNaN(p) || p < 0 || p > 1 {
		t.Errorf("NaN prediction = %v, want a probability", p)
	}
}
