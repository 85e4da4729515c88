package core

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/datagen"
	"repro/internal/frame"
	"repro/internal/gbdt"
	"repro/internal/metrics"
	"repro/internal/operators"
	"repro/internal/parallel"
	"repro/internal/stats"
)

// testDataset returns a mid-size dataset with planted interactions.
func testDataset(t *testing.T) *datagen.Dataset {
	t.Helper()
	ds, err := datagen.Generate(datagen.Spec{
		Name: "core-test", Train: 4000, Valid: 0, Test: 1200, Dim: 12,
		Informative: 2, Interactions: 4, SignalScale: 2.5, Seed: 99,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func evalGBDT(t *testing.T, train, test *frame.Frame) float64 {
	t.Helper()
	cfg := gbdt.DefaultConfig()
	cfg.NumTrees = 40
	cols := make([][]float64, train.NumCols())
	for j := range cols {
		cols[j] = train.Columns[j].Values
	}
	model, err := gbdt.Train(cols, train.Label, train.Names(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	testCols := make([][]float64, test.NumCols())
	for j := range testCols {
		testCols[j] = test.Columns[j].Values
	}
	return metrics.AUC(model.Predict(testCols), test.Label)
}

func TestFitValidatesConfig(t *testing.T) {
	train := testDataset(t).Train
	bad := DefaultConfig()
	bad.PearsonThreshold = 2
	if _, _, err := Fit(context.Background(), train, nil, bad); err == nil {
		t.Error("accepted PearsonThreshold > 1")
	}
	bad = DefaultConfig()
	bad.IVThreshold = -1
	if _, _, err := Fit(context.Background(), train, nil, bad); err == nil {
		t.Error("accepted negative IVThreshold")
	}
	bad = DefaultConfig()
	bad.Operators = []string{"no-such-op"}
	if _, _, err := Fit(context.Background(), train, nil, bad); err == nil {
		t.Error("accepted unknown operator")
	}
}

func TestFitValidatesInput(t *testing.T) {
	if _, _, err := Fit(context.Background(), &frame.Frame{}, nil, DefaultConfig()); err == nil {
		t.Error("accepted empty frame")
	}
	unlabelled := frame.NewWithShape(10, 2)
	unlabelled.Label = nil
	if _, _, err := Fit(context.Background(), unlabelled, nil, DefaultConfig()); err == nil {
		t.Error("accepted unlabelled frame")
	}
}

func TestSAFEImprovesAUC(t *testing.T) {
	ds := testDataset(t)
	pipeline, report, err := Fit(context.Background(), ds.Train, nil, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Iterations) != 1 {
		t.Fatalf("ran %d iterations, want 1", len(report.Iterations))
	}

	trainNew, err := pipeline.Transform(ds.Train)
	if err != nil {
		t.Fatal(err)
	}
	testNew, err := pipeline.Transform(ds.Test)
	if err != nil {
		t.Fatal(err)
	}
	aucOrig := evalGBDT(t, ds.Train, ds.Test)
	aucSafe := evalGBDT(t, trainNew, testNew)
	t.Logf("AUC orig=%.4f safe=%.4f", aucOrig, aucSafe)
	if aucSafe < aucOrig-0.01 {
		t.Errorf("SAFE features degraded AUC: %v -> %v", aucOrig, aucSafe)
	}
}

func TestSAFERecoversPlantedInteraction(t *testing.T) {
	// With planted products/ratios, at least one generated feature should
	// combine the two constituents of some planted interaction.
	ds := testDataset(t)
	pipeline, _, err := Fit(context.Background(), ds.Train, nil, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	names := ds.Train.Names()
	recovered := false
	for _, out := range pipeline.Output {
		for _, it := range ds.Interactions {
			a, b := names[it.A], names[it.B]
			if containsToken(out, a) && containsToken(out, b) {
				recovered = true
			}
		}
	}
	if !recovered {
		t.Errorf("no generated feature pairs any planted interaction; outputs: %v", pipeline.Output)
	}
}

// containsToken reports whether formula references the column name as a
// whole token (x1 should not match x12).
func containsToken(formula, name string) bool {
	idx := 0
	for {
		k := strings.Index(formula[idx:], name)
		if k < 0 {
			return false
		}
		k += idx
		end := k + len(name)
		beforeOK := k == 0 || !isWord(formula[k-1])
		afterOK := end == len(formula) || !isWord(formula[end])
		if beforeOK && afterOK {
			return true
		}
		idx = k + 1
	}
}

func isWord(b byte) bool {
	return b == '_' || (b >= '0' && b <= '9') || (b >= 'a' && b <= 'z') || (b >= 'A' && b <= 'Z')
}

func TestPipelineBudgetRespected(t *testing.T) {
	ds := testDataset(t)
	cfg := DefaultConfig()
	cfg.MaxFeatures = 10
	pipeline, _, err := Fit(context.Background(), ds.Train, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := pipeline.NumFeatures(); got > 10 {
		t.Errorf("pipeline emits %d features, budget 10", got)
	}
}

func TestTransformRowMatchesBatch(t *testing.T) {
	ds := testDataset(t)
	pipeline, _, err := Fit(context.Background(), ds.Train, nil, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	batch, err := pipeline.Transform(ds.Test)
	if err != nil {
		t.Fatal(err)
	}
	row := make([]float64, ds.Test.NumCols())
	for i := 0; i < 25; i++ {
		ds.Test.Row(i, row)
		got, err := pipeline.TransformRow(row)
		if err != nil {
			t.Fatal(err)
		}
		for j := range got {
			want := batch.Columns[j].Values[i]
			same := got[j] == want || (math.IsNaN(got[j]) && math.IsNaN(want))
			if !same {
				t.Fatalf("row %d feature %q: row-wise %v != batch %v",
					i, batch.Columns[j].Name, got[j], want)
			}
		}
	}
}

func TestTransformRowRejectsWrongWidth(t *testing.T) {
	ds := testDataset(t)
	pipeline, _, err := Fit(context.Background(), ds.Train, nil, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pipeline.TransformRow([]float64{1, 2}); err == nil {
		t.Error("accepted wrong-width row")
	}
}

func TestMultipleIterations(t *testing.T) {
	ds := testDataset(t)
	cfg := DefaultConfig()
	cfg.Iterations = 3
	pipeline, report, err := Fit(context.Background(), ds.Train, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Iterations) != 3 {
		t.Fatalf("ran %d iterations, want 3", len(report.Iterations))
	}
	// Later iterations can compose earlier features: the pipeline must
	// still evaluate consistently.
	out, err := pipeline.Transform(ds.Test)
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRows() != ds.Test.NumRows() {
		t.Errorf("transform rows = %d, want %d", out.NumRows(), ds.Test.NumRows())
	}
}

func TestTimeBudgetStopsIterations(t *testing.T) {
	ds := testDataset(t)
	cfg := DefaultConfig()
	cfg.Iterations = 100
	cfg.TimeBudget = time.Millisecond // expires after the first round check
	start := time.Now()
	_, report, err := Fit(context.Background(), ds.Train, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Iterations) >= 100 {
		t.Errorf("time budget ignored: ran %d iterations", len(report.Iterations))
	}
	if time.Since(start) > 2*time.Minute {
		t.Error("fit ran far past its budget")
	}
}

func TestReportStagesMonotone(t *testing.T) {
	ds := testDataset(t)
	_, report, err := Fit(context.Background(), ds.Train, nil, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	ir := report.Iterations[0]
	if ir.CombosKept > ir.CombosMined {
		t.Errorf("kept %d combos > mined %d", ir.CombosKept, ir.CombosMined)
	}
	if ir.AfterIV > ir.Candidates {
		t.Errorf("IV stage grew the set: %d > %d", ir.AfterIV, ir.Candidates)
	}
	if ir.AfterPearson > ir.AfterIV {
		t.Errorf("Pearson stage grew the set: %d > %d", ir.AfterPearson, ir.AfterIV)
	}
	if ir.Selected > ir.AfterPearson {
		t.Errorf("ranking grew the set: %d > %d", ir.Selected, ir.AfterPearson)
	}
	if ir.CombosMined >= ir.SearchSpaceAll {
		t.Errorf("path mining did not shrink the search space: %d >= %d (T* << T violated)",
			ir.CombosMined, ir.SearchSpaceAll)
	}
}

func TestDeterministicFit(t *testing.T) {
	ds := testDataset(t)
	run := func() []string {
		p, _, err := Fit(context.Background(), ds.Train, nil, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		return p.Output
	}
	a := run()
	b := run()
	if len(a) != len(b) {
		t.Fatalf("output widths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("output %d differs: %q vs %q", i, a[i], b[i])
		}
	}
}

func TestFormulasInterpretable(t *testing.T) {
	ds := testDataset(t)
	pipeline, _, err := Fit(context.Background(), ds.Train, nil, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if pipeline.NumDerived() == 0 {
		t.Skip("no derived features selected on this seed")
	}
	for _, f := range pipeline.Formulas() {
		if f == "" {
			t.Error("empty formula")
		}
	}
}

func TestSelectStandalone(t *testing.T) {
	ds := testDataset(t)
	cols := make([][]float64, ds.Train.NumCols())
	for j := range cols {
		cols[j] = ds.Train.Columns[j].Values
	}
	cfg := DefaultSelectionConfig()
	cfg.MaxFeatures = 5
	sel, err := Select(cols, ds.Train.Label, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(sel) > 5 {
		t.Errorf("selected %d > budget 5", len(sel))
	}
	seen := map[int]bool{}
	for _, j := range sel {
		if j < 0 || j >= len(cols) {
			t.Fatalf("index %d out of range", j)
		}
		if seen[j] {
			t.Fatalf("duplicate selection %d", j)
		}
		seen[j] = true
	}
}

func TestSelectErrors(t *testing.T) {
	if _, err := Select(nil, []float64{1}, DefaultSelectionConfig()); err == nil {
		t.Error("accepted no columns")
	}
	if _, err := Select([][]float64{{1}}, nil, DefaultSelectionConfig()); err == nil {
		t.Error("accepted no labels")
	}
	// A column of any other length than the labels is refused, by name,
	// before any criterion reads it.
	labels := []float64{0, 1, 0, 1}
	good := []float64{1, 2, 3, 4}
	for name, col := range map[string][]float64{
		"longer":  {1, 2, 3, 4, 5},
		"shorter": {1, 2, 3},
		"nil":     nil,
	} {
		_, err := Select([][]float64{good, col, good}, labels, DefaultSelectionConfig())
		if err == nil || !strings.Contains(err.Error(), `column "1"`) {
			t.Errorf("%s column: err = %v, want an error naming column \"1\"", name, err)
		}
		_, err = Select([][]float64{col, good}, labels, DefaultSelectionConfig())
		if err == nil || !strings.Contains(err.Error(), `column "0"`) {
			t.Errorf("%s first column: err = %v, want an error naming column \"0\"", name, err)
		}
	}
	// The thresholds Fit refuses, Select refuses too.
	for name, set := range map[string]func(*SelectionConfig){
		"PearsonThreshold > 1": func(c *SelectionConfig) { c.PearsonThreshold = 1.5 },
		"IVThreshold < 0":      func(c *SelectionConfig) { c.IVThreshold = -0.1 },
	} {
		cfg := DefaultSelectionConfig()
		set(&cfg)
		if _, err := Select([][]float64{{1, 2}}, []float64{0, 1}, cfg); err == nil || !strings.Contains(err.Error(), "Threshold") {
			t.Errorf("%s: err = %v, want a threshold error", name, err)
		}
	}
}

// selectPinColumns returns twelve columns over 600 rows and the labels of
// task: x0..x4 are independent normals, x5 = 2·x0+1 (exactly collinear with
// x0), x6 is x1+x2 with every seventh value NaN, and x7..x11 are pure noise.
func selectPinColumns(task Task) ([][]float64, []float64) {
	const n = 600
	rng := rand.New(rand.NewSource(41))
	cols := make([][]float64, 12)
	for j := range cols {
		cols[j] = make([]float64, n)
	}
	labels := make([]float64, n)
	for i := 0; i < n; i++ {
		for j := 0; j < 5; j++ {
			cols[j][i] = rng.NormFloat64()
		}
		cols[5][i] = 2*cols[0][i] + 1
		cols[6][i] = cols[1][i] + cols[2][i]
		if i%7 == 0 {
			cols[6][i] = math.NaN()
		}
		for j := 7; j < len(cols); j++ {
			cols[j][i] = rng.NormFloat64()
		}
		score := cols[0][i] + 0.8*cols[1][i]*cols[2][i] - 0.5*cols[3][i] + 0.3*rng.NormFloat64()
		switch {
		case task.Kind == TaskRegression:
			labels[i] = score
		case task.Kind == TaskMulticlass && score >= 0.5:
			labels[i] = 2
		case task.Kind == TaskMulticlass && score >= -0.5, score > 0:
			labels[i] = 1
		}
	}
	return cols, labels
}

// TestSelectPinned pins Select's answers, recorded from the standalone
// criteria → IV filter → Pearson scan → gain ranking sequence Select ran
// before it became one round of the fit's loop, at MaxFeatures 0 and 3 (its
// first three) and on one and four workers. MinKeepIV is 4 so that α binds;
// the collinear x5 never survives the Pearson scan.
func TestSelectPinned(t *testing.T) {
	for _, tc := range []struct {
		task  string
		alpha float64
		want  []int
	}{
		{"binary", 0.1, []int{0, 6, 3}},
		{"binary", 0, []int{0, 3, 6, 1, 2, 8, 7, 11, 9, 4, 10}},
		{"multiclass:3", 0.1, []int{0, 3, 6, 2}},
		{"multiclass:3", 0, []int{0, 3, 1, 2, 6, 9, 11, 10, 7, 4, 8}},
		{"regression", 0.1, []int{0, 3, 6}},
		{"regression", 0, []int{0, 3, 6, 2, 1, 7, 4, 9, 8, 10, 11}},
	} {
		task, err := ParseTask(tc.task)
		if err != nil {
			t.Fatal(err)
		}
		cols, labels := selectPinColumns(task)
		for _, maxFeatures := range []int{0, 3} {
			want := tc.want
			if maxFeatures > 0 && len(want) > maxFeatures {
				want = want[:maxFeatures]
			}
			for _, workers := range []int{1, 4} {
				cfg := DefaultSelectionConfig()
				cfg.Task, cfg.IVThreshold, cfg.MaxFeatures, cfg.Workers, cfg.MinKeepIV = task, tc.alpha, maxFeatures, workers, 4
				got, err := Select(cols, labels, cfg)
				if err != nil || !reflect.DeepEqual(got, want) {
					t.Errorf("%s α=%g max=%d workers=%d: selected %v, %v; want %v", tc.task, tc.alpha, maxFeatures, workers, got, err, want)
				}
			}
		}
	}
}

func TestPearsonDedupKeepsHigherIV(t *testing.T) {
	// Two perfectly correlated columns; the one with higher IV must survive.
	n := 1000
	a := make([]float64, n)
	b := make([]float64, n)
	labels := make([]float64, n)
	for i := 0; i < n; i++ {
		a[i] = float64(i % 100)
		b[i] = 2 * a[i] // corr 1 with a
		if i%2 == 0 {
			labels[i] = 1
		}
	}
	cols := []*liveFeature{{train: a}, {train: b}}
	ivs := []float64{0.5, 0.2}
	ctx := context.Background()
	arena := operators.NewArena(n)
	scan := newPearsonScan(cols, ivs, []int{0, 1}, 0.8, parallel.Get(1), arena)
	kept, err := greedyDedup(ctx, ivs, []int{0, 1}, scan.correlated)
	if err != nil {
		t.Fatal(err)
	}
	if len(kept) != 1 || kept[0] != 0 {
		t.Errorf("kept %v, want [0]", kept)
	}
	// The rejected column's buffer is back in the arena; the kept one holds
	// its standardised values.
	if cols[1].std != nil || cols[0].std == nil {
		t.Errorf("after the scan: kept std nil=%v, rejected std nil=%v", cols[0].std == nil, cols[1].std == nil)
	}
	if a[1] != 1 || b[1] != 2 {
		t.Error("the scan standardised a frame column in place")
	}
}

// TestPearsonScanMatchesUpFrontStandardising holds the windowed scan to the
// test it replaced — every candidate standardised up front (the copying
// refStandardize), then one dot product per pair — on columns with
// correlated groups, NaNs, constant and all-NaN columns and tied IVs, on 1,
// 2 and 4 workers, in greedyDedup's order and in the reverse order (where
// every test standardises on demand). After each test the scan holds at most
// the kept candidates' buffers and one window: a rejected or constant
// candidate's buffer is back in the arena before the next test.
func TestPearsonScanMatchesUpFrontStandardising(t *testing.T) {
	const n, k, theta = 400, 48, 0.8
	rng := rand.New(rand.NewSource(46))
	raw := make([][]float64, k)
	ivs := make([]float64, k)
	for j := range raw {
		raw[j] = make([]float64, n)
		ivs[j] = float64(rng.Intn(6)) / 5
	}
	for i := 0; i < n; i++ {
		base := [4]float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		for j := range raw {
			switch {
			case j%11 == 10:
				raw[j][i] = 3 // constant
			case j == 21:
				raw[j][i] = math.NaN()
			default:
				raw[j][i] = base[j%4]*float64(1+j%3) + 0.3*rng.NormFloat64()*float64(j%5)
				if rng.Intn(40) == 0 {
					raw[j][i] = math.NaN()
				}
			}
		}
	}
	var candidates []int
	for j := range raw {
		if j%7 != 3 {
			candidates = append(candidates, j)
		}
	}
	ref := make([][]float64, k)
	for j, col := range raw {
		ref[j] = refStandardize(col)
	}
	refKeep := func(order []int) []int {
		var kept []int
		for _, j := range order {
			hit := false
			for _, o := range kept {
				if ref[j] != nil && ref[o] != nil && math.Abs(stats.Dot(ref[j], ref[o])) > theta*n {
					hit = true
					break
				}
			}
			if !hit {
				kept = append(kept, j)
			}
		}
		sort.Ints(kept)
		return kept
	}
	ivOrder := append([]int(nil), candidates...)
	sortByIVDesc(ivOrder, ivs)
	reversed := make([]int, len(ivOrder))
	for i, j := range ivOrder {
		reversed[len(ivOrder)-1-i] = j
	}
	for _, workers := range []int{1, 2, 4} {
		pool := parallel.Get(workers)
		window := 2 * pool.Workers()
		for name, order := range map[string][]int{"iv-order": ivOrder, "reversed": reversed} {
			cols := make([]*liveFeature, k)
			for j := range cols {
				cols[j] = &liveFeature{train: raw[j]}
			}
			scan := newPearsonScan(cols, ivs, candidates, theta, pool, operators.NewArena(n))
			var kept []int
			for _, j := range order {
				if !scan.correlated(j, kept) {
					kept = append(kept, j)
				}
				held := 0
				for _, lf := range cols {
					if lf.std != nil {
						held++
					}
				}
				if held > len(kept)+window {
					t.Fatalf("w%d %s: %d buffers held after testing %d, over %d kept + a window of %d", workers, name, held, j, len(kept), window)
				}
			}
			sort.Ints(kept)
			if want := refKeep(order); !reflect.DeepEqual(kept, want) {
				t.Errorf("w%d %s: kept %v, want %v", workers, name, kept, want)
			}
			for _, j := range kept {
				if (cols[j].std == nil) != (ref[j] == nil) {
					t.Errorf("w%d %s: kept candidate %d holds std=%v, constant=%v", workers, name, j, cols[j].std != nil, ref[j] == nil)
				}
			}
		}
	}
}

func TestIVFilterFallback(t *testing.T) {
	ivs := []float64{0.001, 0.002, 0.003, 0.004}
	kept := ivFilter(ivs, 0.1, 2)
	if len(kept) != 2 {
		t.Fatalf("fallback kept %d, want 2", len(kept))
	}
	// Top-2 by IV are indices 2 and 3.
	if kept[0] != 2 || kept[1] != 3 {
		t.Errorf("fallback kept %v, want [2 3]", kept)
	}
}
