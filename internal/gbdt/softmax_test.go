package gbdt

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
)

// threeClassData generates a separable 3-class problem: class = argmax of
// three noisy linear scores of two features.
func threeClassData(n int, seed int64) (cols [][]float64, labels []float64) {
	rng := rand.New(rand.NewSource(seed))
	cols = [][]float64{make([]float64, n), make([]float64, n), make([]float64, n)}
	labels = make([]float64, n)
	for i := 0; i < n; i++ {
		x, y := rng.NormFloat64(), rng.NormFloat64()
		cols[0][i], cols[1][i] = x, y
		cols[2][i] = rng.NormFloat64() // noise
		scores := []float64{x + 0.1*rng.NormFloat64(), y + 0.1*rng.NormFloat64(), -(x + y) / 2}
		best := 0
		for c := 1; c < 3; c++ {
			if scores[c] > scores[best] {
				best = c
			}
		}
		labels[i] = float64(best)
	}
	return cols, labels
}

func TestSoftmaxTrainLearnsClasses(t *testing.T) {
	cols, labels := threeClassData(2000, 1)
	cfg := DefaultConfig()
	cfg.Objective = Softmax
	cfg.NumClass = 3
	cfg.NumTrees = 30
	model, err := Train(cols, labels, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := model.NumGroups(); got != 3 {
		t.Fatalf("NumGroups: got %d want 3", got)
	}
	if len(model.Trees) != cfg.NumTrees*3 {
		t.Fatalf("trees: got %d want %d", len(model.Trees), cfg.NumTrees*3)
	}
	ok := 0
	row := make([]float64, 3)
	for i := range labels {
		for j := range cols {
			row[j] = cols[j][i]
		}
		probs := model.PredictRowVector(row)
		if len(probs) != 3 {
			t.Fatalf("prob vector length %d", len(probs))
		}
		var sum float64
		for _, p := range probs {
			if p < 0 || p > 1 {
				t.Fatalf("probability %g out of range", p)
			}
			sum += p
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("probabilities sum to %g", sum)
		}
		if model.PredictRow(row) == labels[i] {
			ok++
		}
	}
	if acc := float64(ok) / float64(len(labels)); acc < 0.85 {
		t.Fatalf("training accuracy %.3f, want >= 0.85", acc)
	}
}

// TestSoftmaxTrainBinnedEquivalence: TrainBinned on the internal binner's
// own codes must reproduce Train bit-for-bit for Softmax, exactly as for
// the other objectives — the property the sharded engine relies on.
func TestSoftmaxTrainBinnedEquivalence(t *testing.T) {
	cols, labels := threeClassData(800, 3)
	cfg := DefaultConfig()
	cfg.Objective = Softmax
	cfg.NumClass = 3
	cfg.NumTrees = 10

	want, err := Train(cols, labels, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b := newBinner(cols, cfg.MaxBins, cfg.pool())
	got, err := TrainBinned(&Prebinned{Codes: b.codes, Cuts: b.cuts}, labels, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Trees) != len(want.Trees) {
		t.Fatalf("tree count: got %d want %d", len(got.Trees), len(want.Trees))
	}
	for ti := range want.Trees {
		a, bnodes := want.Trees[ti].Nodes, got.Trees[ti].Nodes
		if len(a) != len(bnodes) {
			t.Fatalf("tree %d: node count %d vs %d", ti, len(a), len(bnodes))
		}
		for ni := range a {
			if a[ni] != bnodes[ni] {
				t.Fatalf("tree %d node %d differs: %+v vs %+v", ti, ni, a[ni], bnodes[ni])
			}
		}
	}
}

func TestSoftmaxPersistRoundTrip(t *testing.T) {
	cols, labels := threeClassData(500, 5)
	cfg := DefaultConfig()
	cfg.Objective = Softmax
	cfg.NumClass = 3
	cfg.NumTrees = 5
	model, err := Train(cols, labels, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := model.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.NumGroups() != 3 {
		t.Fatalf("loaded NumGroups %d", loaded.NumGroups())
	}
	row := []float64{0.3, -1.2, 0.5}
	a, b := model.PredictRowVector(row), loaded.PredictRowVector(row)
	for c := range a {
		if a[c] != b[c] {
			t.Fatalf("class %d: %g vs %g after round trip", c, a[c], b[c])
		}
	}
}

func TestSoftmaxValidation(t *testing.T) {
	cols, labels := threeClassData(200, 7)
	cfg := DefaultConfig()
	cfg.Objective = Softmax
	cfg.NumClass = 3
	cfg.NumTrees = 3
	// Bad class labels must be rejected.
	bad := append([]float64(nil), labels...)
	bad[10] = 7
	if _, err := Train(cols, bad, nil, cfg); err == nil {
		t.Error("out-of-range class label accepted")
	}
	// NumClass < 2 must be rejected.
	cfg.NumClass = 1
	if _, err := Train(cols, labels, nil, cfg); err == nil {
		t.Error("NumClass=1 accepted")
	}
}
