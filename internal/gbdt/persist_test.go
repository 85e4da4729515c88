package gbdt

import (
	"bytes"
	"path/filepath"
	"testing"
)

func TestModelRoundTrip(t *testing.T) {
	cols, labels := linearData(1000, 2, 21)
	model, err := Train(cols, labels, []string{"a", "b", "c", "d"}, DefaultConfig())
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
	orig := model.Predict(cols)
	rt := loaded.Predict(cols)
	for i := range orig {
		if orig[i] != rt[i] {
			t.Fatalf("row %d: %v vs %v", i, orig[i], rt[i])
		}
	}
	if loaded.NumFeat != model.NumFeat {
		t.Errorf("NumFeat = %d, want %d", loaded.NumFeat, model.NumFeat)
	}
	if len(loaded.Names) != 4 || loaded.Names[0] != "a" {
		t.Errorf("names = %v", loaded.Names)
	}
}

func TestModelRoundTripPathsAndImportance(t *testing.T) {
	cols, labels := linearData(1000, 2, 22)
	model, err := Train(cols, labels, nil, DefaultConfig())
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
	if len(loaded.Paths()) != len(model.Paths()) {
		t.Errorf("paths differ: %d vs %d", len(loaded.Paths()), len(model.Paths()))
	}
	impA := model.GainImportance()
	impB := loaded.GainImportance()
	for j := range impA {
		if impA[j] != impB[j] {
			t.Fatalf("importance %d: %v vs %v", j, impA[j], impB[j])
		}
	}
}

func TestModelRoundTripRegression(t *testing.T) {
	cols, labels := linearData(500, 0, 23)
	cfg := DefaultConfig()
	cfg.Objective = Squared
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
	if loaded.Config.Objective != Squared {
		t.Error("objective not preserved")
	}
	if a, b := model.PredictRow([]float64{0.5, -0.5}), loaded.PredictRow([]float64{0.5, -0.5}); a != b {
		t.Errorf("prediction %v vs %v", a, b)
	}
}

func TestModelSaveFile(t *testing.T) {
	cols, labels := linearData(300, 0, 24)
	model, err := Train(cols, labels, nil, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "model.json")
	if err := model.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFile(path); err != nil {
		t.Fatal(err)
	}
}

func TestLoadRejectsCorruptModels(t *testing.T) {
	cases := []string{
		"not json",
		`{"version":99,"num_feat":2,"trees":[]}`,
		`{"version":1,"num_feat":0,"trees":[]}`,
		// Node splits on out-of-range feature.
		`{"version":1,"num_feat":2,"trees":[[{"Feature":5,"Left":1,"Right":2},{"Feature":-1},{"Feature":-1}]]}`,
		// Child index points backwards (cycle).
		`{"version":1,"num_feat":2,"trees":[[{"Feature":0,"Left":0,"Right":0}]]}`,
		// Empty tree.
		`{"version":1,"num_feat":2,"trees":[[]]}`,
		// Objectives outside {Logistic, Squared, Softmax}: loaded, they would
		// predict a raw sum with no link function.
		`{"version":1,"objective":9,"base_score":0.5,"num_feat":1,"trees":[[{"Feature":-1,"Value":2}]]}`,
		`{"version":1,"objective":-1,"base_score":0.5,"num_feat":1,"trees":[[{"Feature":-1,"Value":2}]]}`,
		`{"version":1,"objective":3,"base_score":0.5,"num_feat":1,"trees":[[{"Feature":-1,"Value":2}]]}`,
	}
	for i, c := range cases {
		if _, err := Load(bytes.NewReader([]byte(c))); err == nil {
			t.Errorf("case %d accepted: %s", i, c)
		}
	}
}
