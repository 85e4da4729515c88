package safe_test

import (
	"context"
	"math"
	"strings"
	"testing"

	"repro"
)

func quickDataset(t *testing.T) *safe.Dataset {
	t.Helper()
	ds, err := safe.GenerateDataset(safe.DatasetSpec{
		Name: "api-test", Train: 2000, Test: 600, Dim: 8,
		Informative: 1, Interactions: 3, SignalScale: 2.5, Seed: 13,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestPublicAPIEndToEnd(t *testing.T) {
	ds := quickDataset(t)
	res, err := safe.Fit(context.Background(), safe.FromFrame(ds.Train), safe.WithConfig(safe.DefaultConfig()))
	if err != nil {
		t.Fatal(err)
	}
	pipeline, report := res.Pipeline, res.Report
	if report.Total <= 0 {
		t.Error("report has no elapsed time")
	}
	trNew, err := pipeline.Transform(ds.Train)
	if err != nil {
		t.Fatal(err)
	}
	teNew, err := pipeline.Transform(ds.Test)
	if err != nil {
		t.Fatal(err)
	}
	model, err := safe.TrainClassifier("XGB", trNew, 1)
	if err != nil {
		t.Fatal(err)
	}
	auc := safe.AUC(model.Predict(teNew), teNew.Label)
	if auc < 0.55 {
		t.Errorf("engineered-features AUC = %v, want well above chance", auc)
	}
}

func TestClassifierNamesCoverTableIII(t *testing.T) {
	names := safe.ClassifierNames()
	want := []string{"AB", "DT", "ET", "kNN", "LR", "MLP", "RF", "SVM", "XGB"}
	if len(names) != len(want) {
		t.Fatalf("got %v", names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Errorf("names[%d] = %q, want %q", i, names[i], want[i])
		}
	}
}

func TestAllNineClassifiersTrain(t *testing.T) {
	ds := quickDataset(t)
	for _, name := range safe.ClassifierNames() {
		model, err := safe.TrainClassifier(name, ds.Train, 1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		scores := model.Predict(ds.Test)
		if len(scores) != ds.Test.NumRows() {
			t.Fatalf("%s: %d scores for %d rows", name, len(scores), ds.Test.NumRows())
		}
		auc := safe.AUC(scores, ds.Test.Label)
		if auc < 0.5 {
			t.Errorf("%s: AUC = %v below chance (direction bug?)", name, auc)
		}
	}
}

func TestTrainClassifierUnknown(t *testing.T) {
	ds := quickDataset(t)
	if _, err := safe.TrainClassifier("GPT", ds.Train, 1); err == nil {
		t.Error("unknown classifier accepted")
	}
}

func TestReadCSVPublic(t *testing.T) {
	f, err := safe.ReadCSV(strings.NewReader("a,b,label\n1,2,0\n3,4,1\n"), "label")
	if err != nil {
		t.Fatal(err)
	}
	if f.NumRows() != 2 || f.NumCols() != 2 || f.Label[1] != 1 {
		t.Errorf("parsed frame wrong: %+v", f)
	}
}

func TestSelectPublic(t *testing.T) {
	ds := quickDataset(t)
	cols := make([][]float64, ds.Train.NumCols())
	for j := range cols {
		cols[j] = ds.Train.Columns[j].Values
	}
	cfg := safe.DefaultSelectionConfig()
	cfg.MaxFeatures = 3
	sel, err := safe.Select(cols, ds.Train.Label, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(sel) > 3 {
		t.Errorf("selected %d > 3", len(sel))
	}
}

// TestSelectLeavesColumnsUntouched: Select standardises its Pearson
// candidates in place, so it must work on copies — the caller's columns,
// NaNs and a constant column among them, come back bit for bit.
func TestSelectLeavesColumnsUntouched(t *testing.T) {
	ds := quickDataset(t)
	cols := make([][]float64, ds.Train.NumCols())
	want := make([][]uint64, len(cols))
	for j := range cols {
		cols[j] = append([]float64(nil), ds.Train.Columns[j].Values...)
		if j == 1 {
			for i := 0; i < len(cols[j]); i += 7 {
				cols[j][i] = math.NaN()
			}
		}
		if j == 2 {
			for i := range cols[j] {
				cols[j][i] = 4
			}
		}
		want[j] = make([]uint64, len(cols[j]))
		for i, v := range cols[j] {
			want[j][i] = math.Float64bits(v)
		}
	}
	if _, err := safe.Select(cols, ds.Train.Label, safe.DefaultSelectionConfig()); err != nil {
		t.Fatal(err)
	}
	for j := range cols {
		for i, v := range cols[j] {
			if math.Float64bits(v) != want[j][i] {
				t.Fatalf("column %d, row %d: Select left %v, the caller passed %v", j, i, v, math.Float64frombits(want[j][i]))
			}
		}
	}
}

func TestBenchmarkSpecsExposed(t *testing.T) {
	if got := len(safe.BenchmarkDatasetSpecs(1)); got != 12 {
		t.Errorf("benchmark specs = %d, want 12", got)
	}
	if got := len(safe.BusinessDatasetSpecs(0.005)); got != 3 {
		t.Errorf("business specs = %d, want 3", got)
	}
	if safe.FraudDatasetSpec().PosRate != 0.02 {
		t.Error("fraud spec not imbalanced")
	}
}

func TestCustomOperatorThroughPublicAPI(t *testing.T) {
	ds := quickDataset(t)
	reg := safe.NewRegistry()
	cfg := safe.DefaultConfig()
	cfg.Registry = reg
	cfg.Operators = []string{"mul", "div", "groupby_avg", "log"}
	res, err := safe.Fit(context.Background(), safe.FromFrame(ds.Train), safe.WithConfig(cfg))
	if err != nil {
		t.Fatal(err)
	}
	pipeline := res.Pipeline
	if pipeline.NumFeatures() == 0 {
		t.Error("empty pipeline")
	}
}
