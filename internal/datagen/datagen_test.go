package datagen

import (
	"math"
	"testing"

	"repro/internal/metrics"
	"repro/internal/stats"
)

func TestGenerateShapes(t *testing.T) {
	ds, err := Generate(Spec{Name: "t", Train: 500, Valid: 100, Test: 200, Dim: 12, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if ds.Train.NumRows() != 500 || ds.Valid.NumRows() != 100 || ds.Test.NumRows() != 200 {
		t.Errorf("rows = %d/%d/%d", ds.Train.NumRows(), ds.Valid.NumRows(), ds.Test.NumRows())
	}
	if ds.Train.NumCols() != 12 || ds.Test.NumCols() != 12 {
		t.Errorf("cols = %d/%d, want 12", ds.Train.NumCols(), ds.Test.NumCols())
	}
	if err := ds.Train.Validate(); err != nil {
		t.Error(err)
	}
}

func TestGenerateValidation(t *testing.T) {
	if _, err := Generate(Spec{Train: 0, Test: 10, Dim: 5}); err == nil {
		t.Error("accepted zero train rows")
	}
	if _, err := Generate(Spec{Train: 10, Test: 10, Dim: 1}); err == nil {
		t.Error("accepted dim 1")
	}
}

func TestDeterminism(t *testing.T) {
	a, err := Generate(Spec{Name: "t", Train: 100, Test: 50, Dim: 6, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(Spec{Name: "t", Train: 100, Test: 50, Dim: 6, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < 6; j++ {
		for i := 0; i < 100; i++ {
			if a.Train.Columns[j].Values[i] != b.Train.Columns[j].Values[i] {
				t.Fatalf("same seed diverged at (%d,%d)", i, j)
			}
		}
	}
	c, err := Generate(Spec{Name: "t", Train: 100, Test: 50, Dim: 6, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := 0; i < 100 && same; i++ {
		if a.Train.Columns[0].Values[i] != c.Train.Columns[0].Values[i] {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical data")
	}
}

func TestPosRateRespected(t *testing.T) {
	ds, err := Generate(Spec{Name: "t", Train: 20000, Test: 1000, Dim: 10, PosRate: 0.02, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	rate := ds.Train.PositiveRate()
	if rate < 0.01 || rate > 0.04 {
		t.Errorf("positive rate = %v, want ~0.02", rate)
	}
}

func TestBalancedByDefault(t *testing.T) {
	ds, err := Generate(Spec{Name: "t", Train: 10000, Test: 1000, Dim: 10, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	rate := ds.Train.PositiveRate()
	if rate < 0.42 || rate > 0.58 {
		t.Errorf("positive rate = %v, want ~0.5", rate)
	}
}

func TestPlantedInteractionCarriesSignal(t *testing.T) {
	// The defining property of the substrate: the planted interaction value
	// must predict the label better than either constituent alone.
	ds, err := Generate(Spec{
		Name: "t", Train: 8000, Test: 1000, Dim: 8,
		Informative: 1, Interactions: 3, SignalScale: 3, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, it := range ds.Interactions {
		a := ds.Train.Columns[it.A].Values
		b := ds.Train.Columns[it.B].Values
		term := make([]float64, len(a))
		for i := range term {
			term[i] = interact(it.Kind, a[i], b[i])
		}
		aucTerm := metrics.AUC(term, ds.Train.Label)
		aucA := metrics.AUC(a, ds.Train.Label)
		aucB := metrics.AUC(b, ds.Train.Label)
		// AUC is direction-sensitive; fold around 0.5.
		fold := func(x float64) float64 { return math.Abs(x - 0.5) }
		if fold(aucTerm) > fold(aucA)+0.03 && fold(aucTerm) > fold(aucB)+0.03 {
			found = true
			break
		}
	}
	if !found {
		t.Error("no planted interaction is more predictive than its constituents")
	}
}

func TestInformativeFeaturesHaveIV(t *testing.T) {
	ds, err := Generate(Spec{
		Name: "t", Train: 6000, Test: 500, Dim: 20,
		Informative: 3, Interactions: 2, SignalScale: 3, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	best := 0.0
	for _, j := range ds.Informative {
		iv := stats.InformationValue(ds.Train.Columns[j].Values, ds.Train.Label, 10)
		if iv > best {
			best = iv
		}
	}
	if best < stats.IVUseless {
		t.Errorf("max informative-feature IV = %v, want >= %v", best, stats.IVUseless)
	}
}

func TestBenchmarkSpecsMatchTableIV(t *testing.T) {
	specs := BenchmarkSpecs(1)
	if len(specs) != 12 {
		t.Fatalf("got %d specs, want 12", len(specs))
	}
	want := map[string][4]int{
		"valley":   {900, 0, 312, 100},
		"banknote": {1000, 0, 372, 4},
		"gina":     {2800, 0, 668, 970},
		"spambase": {3800, 0, 801, 57},
		"phoneme":  {4500, 0, 904, 5},
		"wind":     {5000, 0, 1574, 14},
		"ailerons": {9000, 2000, 2750, 40},
		"eeg-eye":  {10000, 2000, 2980, 14},
		"magic":    {13000, 3000, 3020, 10},
		"nomao":    {22000, 6000, 6000, 118},
		"bank":     {35211, 4000, 6000, 51},
		"vehicle":  {60000, 18528, 20000, 100},
	}
	for _, s := range specs {
		w, ok := want[s.Name]
		if !ok {
			t.Errorf("unexpected spec %q", s.Name)
			continue
		}
		if s.Train != w[0] || s.Valid != w[1] || s.Test != w[2] || s.Dim != w[3] {
			t.Errorf("%s = %d/%d/%d/%d, want %v", s.Name, s.Train, s.Valid, s.Test, s.Dim, w)
		}
	}
}

func TestBenchmarkSpecScaling(t *testing.T) {
	specs := BenchmarkSpecs(0.1)
	for _, s := range specs {
		if s.Train < 200 {
			t.Errorf("%s scaled train = %d, below floor", s.Name, s.Train)
		}
	}
}

func TestBusinessSpecsImbalanced(t *testing.T) {
	specs := BusinessSpecs(0.005)
	if len(specs) != 3 {
		t.Fatalf("got %d business specs, want 3", len(specs))
	}
	dims := map[string]int{"Data1": 81, "Data2": 44, "Data3": 73}
	for _, s := range specs {
		if s.PosRate != 0.02 {
			t.Errorf("%s PosRate = %v, want 0.02", s.Name, s.PosRate)
		}
		if dims[s.Name] != s.Dim {
			t.Errorf("%s Dim = %d, want %d", s.Name, s.Dim, dims[s.Name])
		}
	}
}

func TestFraudSpecGenerates(t *testing.T) {
	ds, err := Generate(FraudSpec())
	if err != nil {
		t.Fatal(err)
	}
	rate := ds.Train.PositiveRate()
	if rate < 0.005 || rate > 0.06 {
		t.Errorf("fraud rate = %v, want ~0.02", rate)
	}
}
