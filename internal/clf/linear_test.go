package clf

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/metrics"
)

func separable(n int, seed int64) ([][]float64, []float64) {
	rng := rand.New(rand.NewSource(seed))
	cols := [][]float64{make([]float64, n), make([]float64, n)}
	labels := make([]float64, n)
	for i := 0; i < n; i++ {
		cols[0][i] = rng.NormFloat64()
		cols[1][i] = rng.NormFloat64()
		if 2*cols[0][i]-cols[1][i] > 0 {
			labels[i] = 1
		}
	}
	return cols, labels
}

func TestLogisticValidation(t *testing.T) {
	if _, err := trainLogistic(nil, []float64{1}, defaultLogisticConfig()); err == nil {
		t.Error("accepted no features")
	}
	if _, err := trainLogistic([][]float64{{1}}, nil, defaultLogisticConfig()); err == nil {
		t.Error("accepted no labels")
	}
	if _, err := trainLogistic([][]float64{{1, 2}, {1}}, []float64{0, 1}, defaultLogisticConfig()); err == nil {
		t.Error("accepted ragged columns")
	}
}

func TestLogisticLearnsSeparable(t *testing.T) {
	cols, labels := separable(2000, 1)
	lm, err := trainLogistic(cols, labels, defaultLogisticConfig())
	if err != nil {
		t.Fatal(err)
	}
	testCols, testLabels := separable(500, 42)
	if auc := metrics.AUC(lm.Predict(testCols), testLabels); auc < 0.97 {
		t.Errorf("logistic test AUC = %v, want >= 0.97", auc)
	}
}

func TestLogisticSignOfWeights(t *testing.T) {
	cols, labels := separable(2000, 2)
	lm, err := trainLogistic(cols, labels, defaultLogisticConfig())
	if err != nil {
		t.Fatal(err)
	}
	if lm.w[0] <= 0 {
		t.Errorf("weight on positively-correlated feature = %v, want > 0", lm.w[0])
	}
	if lm.w[1] >= 0 {
		t.Errorf("weight on negatively-correlated feature = %v, want < 0", lm.w[1])
	}
}

func TestLogisticProbabilities(t *testing.T) {
	cols, labels := separable(300, 3)
	lm, err := trainLogistic(cols, labels, defaultLogisticConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range lm.Predict(cols) {
		if p <= 0 || p >= 1 || math.IsNaN(p) {
			t.Fatalf("prediction %v outside (0,1)", p)
		}
	}
}

func TestLogisticHandlesNaN(t *testing.T) {
	cols, labels := separable(300, 4)
	cols[0][0] = math.NaN()
	lm, err := trainLogistic(cols, labels, defaultLogisticConfig())
	if err != nil {
		t.Fatal(err)
	}
	p := lm.predictRow([]float64{math.NaN(), 1})
	if math.IsNaN(p) {
		t.Error("NaN input produced NaN prediction")
	}
}

func TestSVMLearnsSeparable(t *testing.T) {
	cols, labels := separable(2000, 5)
	svm, err := trainSVM(cols, labels, defaultSVMConfig())
	if err != nil {
		t.Fatal(err)
	}
	testCols, testLabels := separable(500, 43)
	if auc := metrics.AUC(svm.Predict(testCols), testLabels); auc < 0.95 {
		t.Errorf("SVM test AUC = %v, want >= 0.95", auc)
	}
}

func TestSVMValidation(t *testing.T) {
	if _, err := trainSVM(nil, []float64{1}, defaultSVMConfig()); err == nil {
		t.Error("accepted no features")
	}
}
