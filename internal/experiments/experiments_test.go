package experiments

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/datagen"
)

// tinyOptions keeps harness tests fast: one small dataset, two classifiers,
// one repeat.
func tinyOptions() Options {
	return Options{
		Scale:         0.03,
		BusinessScale: 0.002,
		Repeats:       1,
		Datasets:      []string{"banknote"},
		Classifiers:   []string{"LR", "XGB"},
		Seed:          1,
	}
}

func TestBuildPipelineAllMethods(t *testing.T) {
	ds, err := datagen.Generate(datagen.Spec{
		Name: "tiny", Train: 800, Test: 300, Dim: 8,
		Interactions: 3, SignalScale: 2.5, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range AllMethods() {
		p, elapsed, err := BuildPipeline(m, ds.Train, 1)
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		if p.NumFeatures() == 0 {
			t.Errorf("%s: empty pipeline", m)
		}
		if m == ORIG && elapsed.Seconds() > 1 {
			t.Errorf("ORIG took %v", elapsed)
		}
		auc, err := EvaluateAUC(p, "XGB", ds.Train, ds.Test, 1)
		if err != nil {
			t.Fatalf("%s eval: %v", m, err)
		}
		if auc < 0.5 {
			t.Errorf("%s: XGB AUC = %v, want >= 0.5", m, auc)
		}
	}
}

func TestBuildPipelineUnknownMethod(t *testing.T) {
	ds, _ := datagen.Generate(datagen.Spec{Name: "t", Train: 200, Test: 100, Dim: 4, Seed: 1})
	if _, _, err := BuildPipeline(Method("nope"), ds.Train, 1); err == nil {
		t.Error("unknown method accepted")
	}
}

func TestRunTable3Smoke(t *testing.T) {
	var buf bytes.Buffer
	res, err := RunTable3(tinyOptions(), &buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 2 { // 1 dataset x 2 classifiers
		t.Fatalf("got %d cells, want 2", len(res.Cells))
	}
	for _, c := range res.Cells {
		for m, auc := range c.AUC {
			if auc < 0 || auc > 1 {
				t.Errorf("%s/%s/%s AUC = %v", c.Dataset, c.Classifier, m, auc)
			}
		}
	}
	out := buf.String()
	if !strings.Contains(out, "Table III") || !strings.Contains(out, "SAFE") {
		t.Errorf("output missing headers:\n%s", out)
	}
}

func TestRunTable5Smoke(t *testing.T) {
	var buf bytes.Buffer
	res, err := RunTable5(tinyOptions(), &buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("got %d rows, want 1", len(res.Rows))
	}
	for m, s := range res.Rows[0].Seconds {
		if s < 0 {
			t.Errorf("%s negative time %v", m, s)
		}
	}
	if _, ok := res.Rows[0].Seconds[ORIG]; ok {
		t.Error("ORIG should be excluded from Table V")
	}
}

func TestRunTable6Smoke(t *testing.T) {
	opts := tinyOptions()
	opts.Methods = []Method{RAND, IMP, SAFE} // skip FCT for speed
	var buf bytes.Buffer
	res, err := RunTable6(opts, 3, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if res.Trials != 3 {
		t.Errorf("trials = %d, want 3", res.Trials)
	}
	// Every trial fits its own row subsample, so no method selects the same
	// features in every trial, SAFE included.
	for _, row := range res.Rows {
		for _, m := range opts.Methods {
			if jsd, ok := row.JSD[m]; !ok || !(jsd > 0) {
				t.Errorf("%s: %s JSD = %v, want > 0", row.Dataset, m, jsd)
			}
		}
	}
}

func TestRunTable8Smoke(t *testing.T) {
	var buf bytes.Buffer
	res, err := RunTable8(tinyOptions(), &buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 6 { // 3 datasets x {LR, XGB}
		t.Fatalf("got %d cells, want 6", len(res.Cells))
	}
	if !strings.Contains(buf.String(), "Data1") {
		t.Error("output missing Data1")
	}
}

func TestRunFig3Smoke(t *testing.T) {
	var buf bytes.Buffer
	rows, err := RunFig3(tinyOptions(), &buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("got %d rows, want 1", len(rows))
	}
	r := rows[0]
	total := r.OriginalShare + r.GeneratedShare
	if total < 0.9 || total > 1.1 {
		t.Errorf("importance shares sum to %v, want ~1", total)
	}
}

func TestRunFig4Smoke(t *testing.T) {
	var buf bytes.Buffer
	series, err := RunFig4(tinyOptions(), 2, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 1 || len(series[0].AUC) != 2 {
		t.Fatalf("series shape wrong: %+v", series)
	}
}

func TestRunSearchSpaceSmoke(t *testing.T) {
	var buf bytes.Buffer
	rows, err := RunSearchSpace(tinyOptions(), &buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.PathBound > r.Exhaust {
			t.Errorf("%s: T* (%d) exceeds T (%d)", r.Dataset, r.PathBound, r.Exhaust)
		}
	}
}

func TestRunAssumptionsSmoke(t *testing.T) {
	opts := tinyOptions()
	opts.Datasets = []string{"wind"} // needs enough features for 3 buckets
	var buf bytes.Buffer
	rows, err := RunAssumptions(opts, 5, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("got %d rows", len(rows))
	}
	r := rows[0]
	if r.SamePathAUC < 0.5 && r.SamePathAUC != 0 {
		t.Errorf("same-path folded AUC = %v, want >= 0.5", r.SamePathAUC)
	}
}

func TestRunAblationSmoke(t *testing.T) {
	var buf bytes.Buffer
	rows, err := RunAblation(tinyOptions(), &buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 7 { // 1 dataset x 7 variants
		t.Fatalf("got %d ablation rows, want 7", len(rows))
	}
	variants := map[string]bool{}
	for _, r := range rows {
		variants[r.Variant] = true
		if r.AUC < 0 || r.AUC > 1 {
			t.Errorf("%s AUC = %v", r.Variant, r.AUC)
		}
		if r.Width == 0 {
			t.Errorf("%s produced no features", r.Variant)
		}
	}
	if !variants["default"] || !variants["gamma-double"] {
		t.Errorf("missing variants: %v", variants)
	}
}
