package clf

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/metrics"
)

func blobs(n int, seed int64) ([][]float64, []float64) {
	rng := rand.New(rand.NewSource(seed))
	cols := [][]float64{make([]float64, n), make([]float64, n), make([]float64, n)}
	labels := make([]float64, n)
	for i := 0; i < n; i++ {
		labels[i] = float64(rng.Intn(2))
		shift := labels[i]*2 - 1
		cols[0][i] = rng.NormFloat64() + shift
		cols[1][i] = rng.NormFloat64() - shift
		cols[2][i] = rng.NormFloat64() // noise
	}
	return cols, labels
}

func TestForestValidation(t *testing.T) {
	cols, labels := blobs(50, 1)
	if _, err := TrainForest(cols, labels, ForestConfig{NumTrees: 0}); err == nil {
		t.Error("accepted zero trees")
	}
	if _, err := TrainForest(nil, labels, DefaultForestConfig()); err == nil {
		t.Error("accepted no features")
	}
	if _, err := TrainForest(cols, nil, DefaultForestConfig()); err == nil {
		t.Error("accepted no rows")
	}
}

func TestRandomForestLearns(t *testing.T) {
	cols, labels := blobs(1500, 2)
	f, err := TrainForest(cols, labels, DefaultForestConfig())
	if err != nil {
		t.Fatal(err)
	}
	testCols, testLabels := blobs(500, 77)
	if auc := metrics.AUC(f.Predict(testCols), testLabels); auc < 0.85 {
		t.Errorf("forest test AUC = %v, want >= 0.85", auc)
	}
}

func TestExtraTreesLearns(t *testing.T) {
	cols, labels := blobs(1500, 3)
	cfg := DefaultForestConfig()
	cfg.ExtraTrees = true
	cfg.Bootstrap = false
	f, err := TrainForest(cols, labels, cfg)
	if err != nil {
		t.Fatal(err)
	}
	testCols, testLabels := blobs(500, 78)
	if auc := metrics.AUC(f.Predict(testCols), testLabels); auc < 0.82 {
		t.Errorf("extra-trees test AUC = %v, want >= 0.82", auc)
	}
}

func TestForestImportanceFavoursSignal(t *testing.T) {
	cols, labels := blobs(1500, 4)
	cfg := DefaultForestConfig()
	cfg.MaxFeatures = 3 // consider all features at each split for a clean signal
	f, err := TrainForest(cols, labels, cfg)
	if err != nil {
		t.Fatal(err)
	}
	imp := f.FeatureImportance()
	if imp[2] > imp[0] || imp[2] > imp[1] {
		t.Errorf("noise importance %v exceeds signal (%v, %v)", imp[2], imp[0], imp[1])
	}
	sum := imp[0] + imp[1] + imp[2]
	if math.Abs(sum-1) > 1e-6 {
		t.Errorf("importances sum to %v, want ~1", sum)
	}
}

func TestForestDeterminism(t *testing.T) {
	cols, labels := blobs(400, 5)
	cfg := DefaultForestConfig()
	cfg.NumTrees = 10
	cfg.Seed = 3
	f1, err := TrainForest(cols, labels, cfg)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := TrainForest(cols, labels, cfg)
	if err != nil {
		t.Fatal(err)
	}
	p1 := f1.Predict(cols)
	p2 := f2.Predict(cols)
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatalf("parallel forest not deterministic at row %d: %v vs %v", i, p1[i], p2[i])
		}
	}
}

// TestForestSerialMatchesParallel: the forest one worker grows is the forest
// two workers and GOMAXPROCS workers grow.
func TestForestSerialMatchesParallel(t *testing.T) {
	cols, labels := blobs(400, 6)
	cfg := DefaultForestConfig()
	cfg.NumTrees = 8
	cfg.Seed = 4
	cfg.Workers = 1
	fs, err := TrainForest(cols, labels, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ps := fs.Predict(cols)
	for _, workers := range []int{2, 0} {
		cfg.Workers = workers
		fp, err := TrainForest(cols, labels, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range fp.Predict(cols) {
			if p != ps[i] {
				t.Fatalf("workers=%d: row %d scores %v, one worker %v", workers, i, p, ps[i])
			}
		}
	}
}

func TestAdaBoostValidation(t *testing.T) {
	cols, labels := blobs(50, 7)
	if _, err := trainAdaBoost(cols, labels, adaBoostConfig{numRounds: 0}); err == nil {
		t.Error("accepted zero rounds")
	}
	if _, err := trainAdaBoost(cols, nil, defaultAdaBoostConfig()); err == nil {
		t.Error("accepted no rows")
	}
}

func TestAdaBoostLearns(t *testing.T) {
	cols, labels := blobs(1500, 8)
	ab, err := trainAdaBoost(cols, labels, defaultAdaBoostConfig())
	if err != nil {
		t.Fatal(err)
	}
	testCols, testLabels := blobs(500, 79)
	if auc := metrics.AUC(ab.Predict(testCols), testLabels); auc < 0.85 {
		t.Errorf("AdaBoost test AUC = %v, want >= 0.85", auc)
	}
}

func TestAdaBoostOutputsProbabilities(t *testing.T) {
	cols, labels := blobs(300, 9)
	ab, err := trainAdaBoost(cols, labels, defaultAdaBoostConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range ab.Predict(cols) {
		if p < 0 || p > 1 || math.IsNaN(p) {
			t.Fatalf("prediction %v outside [0,1]", p)
		}
	}
}

func TestAdaBoostBeatsSingleStump(t *testing.T) {
	// On a diagonal boundary a single stump is weak; boosting should improve.
	rng := rand.New(rand.NewSource(10))
	n := 2000
	cols := [][]float64{make([]float64, n), make([]float64, n)}
	labels := make([]float64, n)
	for i := 0; i < n; i++ {
		cols[0][i] = rng.NormFloat64()
		cols[1][i] = rng.NormFloat64()
		if cols[0][i]+cols[1][i] > 0 {
			labels[i] = 1
		}
	}
	one, err := trainAdaBoost(cols, labels, adaBoostConfig{numRounds: 1, maxDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	fifty, err := trainAdaBoost(cols, labels, adaBoostConfig{numRounds: 50, maxDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	auc1 := metrics.AUC(one.Predict(cols), labels)
	auc50 := metrics.AUC(fifty.Predict(cols), labels)
	if auc50 <= auc1 {
		t.Errorf("boosting did not improve: 1 round %v vs 50 rounds %v", auc1, auc50)
	}
}
