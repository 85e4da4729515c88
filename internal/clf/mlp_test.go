package clf

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/metrics"
)

func circles(n int, seed int64) ([][]float64, []float64) {
	// Inner circle positive, outer ring negative: requires a non-linear
	// boundary.
	rng := rand.New(rand.NewSource(seed))
	cols := [][]float64{make([]float64, n), make([]float64, n)}
	labels := make([]float64, n)
	for i := 0; i < n; i++ {
		angle := rng.Float64() * 2 * math.Pi
		r := 0.5
		if i%2 == 0 {
			r = 2.0
		} else {
			labels[i] = 1
		}
		r += rng.NormFloat64() * 0.2
		cols[0][i] = r * math.Cos(angle)
		cols[1][i] = r * math.Sin(angle)
	}
	return cols, labels
}

func TestMLPValidation(t *testing.T) {
	if _, err := trainMLP(nil, []float64{1}, defaultMLPConfig()); err == nil {
		t.Error("accepted no features")
	}
	if _, err := trainMLP([][]float64{{1}}, nil, defaultMLPConfig()); err == nil {
		t.Error("accepted no labels")
	}
	if _, err := trainMLP([][]float64{{1, 2}, {1}}, []float64{0, 1}, defaultMLPConfig()); err == nil {
		t.Error("accepted ragged columns")
	}
}

func TestLearnsNonLinearBoundary(t *testing.T) {
	cols, labels := circles(2000, 1)
	cfg := defaultMLPConfig()
	cfg.epochs = 60
	m, err := trainMLP(cols, labels, cfg)
	if err != nil {
		t.Fatal(err)
	}
	testCols, testLabels := circles(500, 42)
	if auc := metrics.AUC(m.Predict(testCols), testLabels); auc < 0.95 {
		t.Errorf("MLP AUC on circles = %v, want >= 0.95 (linear models cannot exceed ~0.5 here)", auc)
	}
}

func TestOutputsProbabilities(t *testing.T) {
	cols, labels := circles(300, 2)
	m, err := trainMLP(cols, labels, defaultMLPConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range m.Predict(cols) {
		if p <= 0 || p >= 1 || math.IsNaN(p) {
			t.Fatalf("prediction %v outside (0,1)", p)
		}
	}
}

func TestPredictRowMatchesBatch(t *testing.T) {
	cols, labels := circles(300, 3)
	m, err := trainMLP(cols, labels, defaultMLPConfig())
	if err != nil {
		t.Fatal(err)
	}
	batch := m.Predict(cols)
	row := make([]float64, 2)
	for i := 0; i < 10; i++ {
		row[0], row[1] = cols[0][i], cols[1][i]
		if got := m.predictRow(row); math.Abs(got-batch[i]) > 1e-12 {
			t.Fatalf("row %d mismatch: %v vs %v", i, got, batch[i])
		}
	}
}

func TestMLPDeterminism(t *testing.T) {
	cols, labels := circles(300, 4)
	cfg := defaultMLPConfig()
	cfg.seed = 9
	m1, err := trainMLP(cols, labels, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := trainMLP(cols, labels, cfg)
	if err != nil {
		t.Fatal(err)
	}
	p1 := m1.Predict(cols)
	p2 := m2.Predict(cols)
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatalf("same seed diverged at row %d", i)
		}
	}
}

func TestNaNInputs(t *testing.T) {
	cols, labels := circles(300, 5)
	cols[0][0] = math.NaN()
	m, err := trainMLP(cols, labels, defaultMLPConfig())
	if err != nil {
		t.Fatal(err)
	}
	if p := m.predictRow([]float64{math.NaN(), 0.3}); math.IsNaN(p) {
		t.Error("NaN input produced NaN prediction")
	}
}
