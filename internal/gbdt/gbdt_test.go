package gbdt

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/metrics"
)

// linearData builds a dataset where y = 1[x0 + x1 > 0] with noise features.
func linearData(n, noise int, seed int64) ([][]float64, []float64) {
	rng := rand.New(rand.NewSource(seed))
	cols := make([][]float64, 2+noise)
	for j := range cols {
		cols[j] = make([]float64, n)
		for i := range cols[j] {
			cols[j][i] = rng.NormFloat64()
		}
	}
	labels := make([]float64, n)
	for i := 0; i < n; i++ {
		if cols[0][i]+cols[1][i] > 0 {
			labels[i] = 1
		}
	}
	return cols, labels
}

// xorData builds a dataset where y = 1[x0*x1 > 0]: a pure pairwise
// interaction with no single-feature signal.
func xorData(n int, seed int64) ([][]float64, []float64) {
	rng := rand.New(rand.NewSource(seed))
	cols := [][]float64{make([]float64, n), make([]float64, n)}
	labels := make([]float64, n)
	for i := 0; i < n; i++ {
		cols[0][i] = rng.NormFloat64()
		cols[1][i] = rng.NormFloat64()
		if cols[0][i]*cols[1][i] > 0 {
			labels[i] = 1
		}
	}
	return cols, labels
}

func TestTrainValidatesConfig(t *testing.T) {
	cols, labels := linearData(50, 0, 1)
	bad := []Config{
		{},
		{NumTrees: -1, MaxDepth: 3, LearningRate: 0.1, MaxBins: 32},
		{NumTrees: 5, MaxDepth: 0, LearningRate: 0.1, MaxBins: 32},
		{NumTrees: 5, MaxDepth: 3, LearningRate: 0, MaxBins: 32},
		{NumTrees: 5, MaxDepth: 3, LearningRate: 0.1, MaxBins: 1},
		{NumTrees: 5, MaxDepth: 3, LearningRate: 0.1, MaxBins: 32, Objective: 9},
		{NumTrees: 5, MaxDepth: 3, LearningRate: 0.1, MaxBins: 32, Objective: -1},
		{NumTrees: 5, MaxDepth: 3, LearningRate: 0.1, MaxBins: 32, Objective: 3},
	}
	for i, cfg := range bad {
		if _, err := Train(cols, labels, nil, cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
	if _, err := Train(nil, labels, nil, DefaultConfig()); err == nil {
		t.Error("accepted empty columns")
	}
	if _, err := Train(cols, nil, nil, DefaultConfig()); err == nil {
		t.Error("accepted empty labels")
	}
	ragged := [][]float64{{1, 2}, {1}}
	if _, err := Train(ragged, []float64{0, 1}, nil, DefaultConfig()); err == nil {
		t.Error("accepted ragged columns")
	}
}

func TestLearnsLinearBoundary(t *testing.T) {
	cols, labels := linearData(2000, 3, 2)
	model, err := Train(cols, labels, nil, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	testCols, testLabels := linearData(500, 3, 99)
	auc := metrics.AUC(model.Predict(testCols), testLabels)
	if auc < 0.93 {
		t.Errorf("AUC on linear boundary = %v, want >= 0.93", auc)
	}
}

func TestLearnsXOR(t *testing.T) {
	cols, labels := xorData(3000, 3)
	cfg := DefaultConfig()
	cfg.MaxDepth = 4
	cfg.NumTrees = 80
	model, err := Train(cols, labels, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	testCols, testLabels := xorData(800, 77)
	auc := metrics.AUC(model.Predict(testCols), testLabels)
	if auc < 0.9 {
		t.Errorf("AUC on XOR interaction = %v, want >= 0.9 (depth-2 interactions must be learnable)", auc)
	}
}

func TestXORPathsPairBothFeatures(t *testing.T) {
	// The key property SAFE depends on: features interacting in the label
	// co-occur on tree paths.
	cols, labels := xorData(3000, 4)
	// Add noise features.
	rng := rand.New(rand.NewSource(5))
	for j := 0; j < 4; j++ {
		c := make([]float64, len(labels))
		for i := range c {
			c[i] = rng.NormFloat64()
		}
		cols = append(cols, c)
	}
	cfg := DefaultConfig()
	cfg.NumTrees = 30
	model, err := Train(cols, labels, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	paths := model.Paths()
	if len(paths) == 0 {
		t.Fatal("no paths extracted")
	}
	together := 0
	for _, p := range paths {
		has0, has1 := false, false
		for _, f := range p.Features {
			if f == 0 {
				has0 = true
			}
			if f == 1 {
				has1 = true
			}
		}
		if has0 && has1 {
			together++
		}
	}
	if together == 0 {
		t.Error("features 0 and 1 never co-occur on any path despite their interaction")
	}
}

func TestPathsStructure(t *testing.T) {
	cols, labels := linearData(500, 2, 6)
	cfg := DefaultConfig()
	cfg.NumTrees = 10
	model, err := Train(cols, labels, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range model.Paths() {
		if len(p.Features) == 0 {
			t.Fatal("empty path")
		}
		seen := map[int]bool{}
		for _, f := range p.Features {
			if seen[f] {
				t.Fatalf("path lists feature %d twice", f)
			}
			seen[f] = true
			vs := p.Values[f]
			if len(vs) == 0 {
				t.Fatalf("feature %d has no split values", f)
			}
			for i := 1; i < len(vs); i++ {
				if vs[i] <= vs[i-1] {
					t.Fatalf("split values not strictly ascending: %v", vs)
				}
			}
		}
	}
}

func TestGainImportanceConcentrates(t *testing.T) {
	cols, labels := linearData(2000, 6, 7)
	model, err := Train(cols, labels, nil, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	imp := model.GainImportance()
	if len(imp) != 8 {
		t.Fatalf("importance length = %d, want 8", len(imp))
	}
	signal := math.Max(imp[0], imp[1])
	for j := 2; j < len(imp); j++ {
		if imp[j] > signal {
			t.Errorf("noise feature %d importance %v exceeds signal features (%v)", j, imp[j], signal)
		}
	}
	if imp[0] <= 0 || imp[1] <= 0 {
		t.Error("signal features have zero gain")
	}
}

func TestSplitFeaturesSubset(t *testing.T) {
	cols, labels := linearData(1000, 5, 8)
	model, err := Train(cols, labels, nil, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range model.SplitFeatures() {
		if f < 0 || f >= len(cols) {
			t.Fatalf("split feature %d out of range", f)
		}
	}
}

func TestPredictRowMatchesBatch(t *testing.T) {
	cols, labels := linearData(800, 2, 9)
	model, err := Train(cols, labels, nil, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	batch := model.Predict(cols)
	row := make([]float64, len(cols))
	for i := 0; i < 20; i++ {
		for j := range cols {
			row[j] = cols[j][i]
		}
		if got := model.PredictRow(row); math.Abs(got-batch[i]) > 1e-12 {
			t.Fatalf("row %d: PredictRow %v != batch %v", i, got, batch[i])
		}
	}
}

func TestLogisticOutputsProbabilities(t *testing.T) {
	cols, labels := linearData(500, 1, 10)
	model, err := Train(cols, labels, nil, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range model.Predict(cols) {
		if p <= 0 || p >= 1 || math.IsNaN(p) {
			t.Fatalf("prediction %v outside (0,1)", p)
		}
	}
}

func TestSquaredObjective(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	n := 1500
	cols := [][]float64{make([]float64, n)}
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		cols[0][i] = rng.Float64() * 10
		y[i] = 3*cols[0][i] + rng.NormFloat64()*0.1
	}
	cfg := DefaultConfig()
	cfg.Objective = Squared
	cfg.NumTrees = 100
	cfg.LearningRate = 0.2
	model, err := Train(cols, y, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	preds := model.Predict(cols)
	mse := 0.0
	for i := range preds {
		d := preds[i] - y[i]
		mse += d * d
	}
	mse /= float64(n)
	if mse > 1.0 {
		t.Errorf("regression MSE = %v, want <= 1.0 (target range [0,30])", mse)
	}
}

func TestDeterminism(t *testing.T) {
	cols, labels := linearData(500, 2, 13)
	cfg := DefaultConfig()
	cfg.NumTrees = 10
	cfg.Workers = 4
	m1, err := Train(cols, labels, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Train(cols, labels, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	p1 := m1.Predict(cols)
	p2 := m2.Predict(cols)
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatalf("row %d differs across identical runs: %v vs %v", i, p1[i], p2[i])
		}
	}
}

func TestNaNGoesLeft(t *testing.T) {
	cols, labels := linearData(500, 0, 14)
	model, err := Train(cols, labels, nil, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	row := []float64{math.NaN(), math.NaN()}
	p := model.PredictRow(row)
	if math.IsNaN(p) || p < 0 || p > 1 {
		t.Errorf("NaN row prediction = %v, want a probability", p)
	}
}

func TestConstantColumnsHandled(t *testing.T) {
	n := 200
	cols := [][]float64{make([]float64, n), make([]float64, n)}
	labels := make([]float64, n)
	rng := rand.New(rand.NewSource(15))
	for i := 0; i < n; i++ {
		cols[0][i] = 5 // constant
		cols[1][i] = rng.NormFloat64()
		if cols[1][i] > 0 {
			labels[i] = 1
		}
	}
	model, err := Train(cols, labels, nil, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if auc := metrics.AUC(model.Predict(cols), labels); auc < 0.95 {
		t.Errorf("AUC with a constant column = %v, want >= 0.95", auc)
	}
}

func TestSparsityAwareDefaultDirection(t *testing.T) {
	// Feature 0 is missing whenever the label is 1 and present (negative
	// values) otherwise: the learned default direction must route NaNs to
	// the positive side, which the old always-left rule cannot do when the
	// present values sort below the threshold.
	rng := rand.New(rand.NewSource(41))
	n := 2000
	cols := [][]float64{make([]float64, n)}
	labels := make([]float64, n)
	for i := 0; i < n; i++ {
		if rng.Intn(2) == 0 {
			labels[i] = 1
			cols[0][i] = math.NaN()
		} else {
			cols[0][i] = rng.Float64() // present, label 0
		}
	}
	cfg := DefaultConfig()
	cfg.NumTrees = 10
	model, err := Train(cols, labels, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	pNaN := model.PredictRow([]float64{math.NaN()})
	pVal := model.PredictRow([]float64{0.5})
	if pNaN <= pVal {
		t.Errorf("missing-value prediction %v not above present-value %v; default direction not learned", pNaN, pVal)
	}
	if pNaN < 0.9 || pVal > 0.1 {
		t.Errorf("separation too weak: NaN=%v present=%v", pNaN, pVal)
	}
	// At least one node must have learned a non-default direction.
	foundRight := false
	for _, tr := range model.Trees {
		for i := range tr.Nodes {
			if tr.Nodes[i].DefaultRight {
				foundRight = true
			}
		}
	}
	if !foundRight {
		t.Error("no node learned DefaultRight despite informative missingness")
	}
}

func TestSparsityAwareNoMissingUnchanged(t *testing.T) {
	// Without missing values the two scan directions are identical, so no
	// node should carry DefaultRight.
	cols, labels := linearData(800, 2, 42)
	model, err := Train(cols, labels, nil, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range model.Trees {
		for i := range tr.Nodes {
			if tr.Nodes[i].DefaultRight {
				t.Fatal("DefaultRight set on a dataset without missing values")
			}
		}
	}
}
