package clf

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/metrics"
)

func clusters(n int, seed int64) ([][]float64, []float64) {
	rng := rand.New(rand.NewSource(seed))
	cols := [][]float64{make([]float64, n), make([]float64, n)}
	labels := make([]float64, n)
	for i := 0; i < n; i++ {
		labels[i] = float64(rng.Intn(2))
		shift := labels[i]*4 - 2
		cols[0][i] = rng.NormFloat64() + shift
		cols[1][i] = rng.NormFloat64()
	}
	return cols, labels
}

func TestKNNValidation(t *testing.T) {
	if _, err := trainKNN(nil, []float64{1}, defaultKNNConfig()); err == nil {
		t.Error("accepted no features")
	}
	if _, err := trainKNN([][]float64{{1}}, nil, defaultKNNConfig()); err == nil {
		t.Error("accepted no labels")
	}
	if _, err := trainKNN([][]float64{{1, 2}, {1}}, []float64{0, 1}, defaultKNNConfig()); err == nil {
		t.Error("accepted ragged columns")
	}
}

func TestLearnsClusters(t *testing.T) {
	cols, labels := clusters(1000, 1)
	m, err := trainKNN(cols, labels, defaultKNNConfig())
	if err != nil {
		t.Fatal(err)
	}
	testCols, testLabels := clusters(300, 42)
	if auc := metrics.AUC(m.Predict(testCols), testLabels); auc < 0.95 {
		t.Errorf("kNN AUC = %v, want >= 0.95", auc)
	}
}

func TestExactNeighbourVote(t *testing.T) {
	// 3 points of class 1 at x=1, 2 of class 0 at x=-1; query at x=0.9 with
	// k=3 must see all three positives.
	cols := [][]float64{{1, 1.01, 0.99, -1, -1.01}}
	labels := []float64{1, 1, 1, 0, 0}
	m, err := trainKNN(cols, labels, knnConfig{k: 3})
	if err != nil {
		t.Fatal(err)
	}
	if p := m.predictRow([]float64{0.9}, make(distHeap, 0, m.k)); p != 1 {
		t.Errorf("vote = %v, want 1", p)
	}
	if p := m.predictRow([]float64{-0.9}, make(distHeap, 0, m.k)); p > 0.5 {
		t.Errorf("vote near negatives = %v, want <= 0.5", p)
	}
}

func TestSubsampleCap(t *testing.T) {
	cols, labels := clusters(5000, 2)
	m, err := trainKNN(cols, labels, knnConfig{k: 5, maxTrain: 500, seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.x) != 500 {
		t.Errorf("memorised %d rows, want 500", len(m.x))
	}
	// Should still classify well.
	testCols, testLabels := clusters(300, 43)
	if auc := metrics.AUC(m.Predict(testCols), testLabels); auc < 0.9 {
		t.Errorf("capped kNN AUC = %v, want >= 0.9", auc)
	}
}

func TestProbabilityGranularity(t *testing.T) {
	cols, labels := clusters(200, 3)
	m, err := trainKNN(cols, labels, knnConfig{k: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range m.Predict(cols) {
		// With k=5 probabilities are multiples of 0.2.
		scaled := p * 5
		if math.Abs(scaled-math.Round(scaled)) > 1e-9 {
			t.Fatalf("probability %v is not a multiple of 1/5", p)
		}
	}
}

func TestNaNHandling(t *testing.T) {
	cols, labels := clusters(200, 4)
	cols[0][0] = math.NaN()
	m, err := trainKNN(cols, labels, defaultKNNConfig())
	if err != nil {
		t.Fatal(err)
	}
	if p := m.predictRow([]float64{math.NaN(), 0}, make(distHeap, 0, m.k)); math.IsNaN(p) {
		t.Error("NaN query produced NaN")
	}
}
