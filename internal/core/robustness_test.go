package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/datagen"
	"repro/internal/frame"
)

// Failure-injection tests: SAFE must degrade gracefully, never panic, on
// pathological inputs an industrial pipeline will inevitably see.

func makeFrame(cols map[string][]float64, labels []float64) *frame.Frame {
	f := &frame.Frame{Label: labels}
	// Deterministic column order.
	names := make([]string, 0, len(cols))
	for n := range cols {
		names = append(names, n)
	}
	sortStrings(names)
	for _, n := range names {
		f.AddColumn(n, cols[n])
	}
	return f
}

func sortStrings(xs []string) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

func randCol(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]float64, n)
	for i := range out {
		out[i] = rng.NormFloat64()
	}
	return out
}

func TestFitAllConstantColumns(t *testing.T) {
	n := 500
	konst := make([]float64, n)
	for i := range konst {
		konst[i] = 7
	}
	labels := make([]float64, n)
	for i := range labels {
		labels[i] = float64(i % 2)
	}
	f := makeFrame(map[string][]float64{
		"c1": konst,
		"c2": append([]float64(nil), konst...),
		"c3": randCol(n, 1),
	}, labels)
	eng, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	p, _, err := eng.Fit(f)
	if err != nil {
		t.Fatalf("constant columns broke Fit: %v", err)
	}
	if p.NumFeatures() == 0 {
		t.Error("empty pipeline on constant-heavy frame")
	}
}

func TestFitSingleClassLabels(t *testing.T) {
	n := 300
	labels := make([]float64, n) // all zero
	f := makeFrame(map[string][]float64{
		"a": randCol(n, 2),
		"b": randCol(n, 3),
	}, labels)
	eng, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	p, _, err := eng.Fit(f)
	if err != nil {
		t.Fatalf("single-class labels broke Fit: %v", err)
	}
	if _, err := p.Transform(f); err != nil {
		t.Fatal(err)
	}
}

func TestFitWithNaNColumns(t *testing.T) {
	n := 800
	half := randCol(n, 4)
	for i := 0; i < n; i += 3 {
		half[i] = math.NaN()
	}
	allNaN := make([]float64, n)
	for i := range allNaN {
		allNaN[i] = math.NaN()
	}
	labels := make([]float64, n)
	sig := randCol(n, 5)
	for i := range labels {
		if sig[i] > 0 {
			labels[i] = 1
		}
	}
	f := makeFrame(map[string][]float64{
		"partial": half,
		"allnan":  allNaN,
		"signal":  sig,
		"noise":   randCol(n, 6),
	}, labels)
	eng, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	p, _, err := eng.Fit(f)
	if err != nil {
		t.Fatalf("NaN columns broke Fit: %v", err)
	}
	out, err := p.Transform(f)
	if err != nil {
		t.Fatal(err)
	}
	// Engineered (derived) outputs must be sanitised to finite values;
	// original passthrough columns may retain their NaNs.
	orig := map[string]bool{"partial": true, "allnan": true, "signal": true, "noise": true}
	for _, c := range out.Columns {
		if orig[c.Name] {
			continue
		}
		for i, v := range c.Values {
			if math.IsInf(v, 0) {
				t.Fatalf("derived column %q row %d is Inf", c.Name, i)
			}
		}
	}
}

func TestFitTwoRows(t *testing.T) {
	f := makeFrame(map[string][]float64{
		"a": {1, 2},
		"b": {3, 4},
	}, []float64{0, 1})
	eng, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := eng.Fit(f); err != nil {
		t.Fatalf("two-row frame broke Fit: %v", err)
	}
}

func TestFitDuplicateColumns(t *testing.T) {
	// Identical columns under different names: Pearson dedup should keep
	// one; Fit must not error.
	n := 600
	base := randCol(n, 7)
	labels := make([]float64, n)
	for i := range labels {
		if base[i] > 0 {
			labels[i] = 1
		}
	}
	f := makeFrame(map[string][]float64{
		"dup1": base,
		"dup2": append([]float64(nil), base...),
		"dup3": append([]float64(nil), base...),
	}, labels)
	eng, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	p, _, err := eng.Fit(f)
	if err != nil {
		t.Fatal(err)
	}
	// At most one copy of the duplicated original should survive selection.
	seen := 0
	for _, name := range p.Output {
		if name == "dup1" || name == "dup2" || name == "dup3" {
			seen++
		}
	}
	if seen > 1 {
		t.Errorf("%d identical originals survived Pearson dedup", seen)
	}
}

func TestFitWithTernaryOperator(t *testing.T) {
	ds, err := datagen.Generate(datagen.Spec{
		Name: "ternary", Train: 2000, Test: 500, Dim: 8,
		Interactions: 3, SignalScale: 2.5, Seed: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Operators = []string{"mul", "div", "cond"}
	eng, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p, report, err := eng.Fit(ds.Train)
	if err != nil {
		t.Fatal(err)
	}
	if report.Iterations[0].Generated == 0 {
		t.Error("no features generated with ternary operator in the set")
	}
	if _, err := p.Transform(ds.Test); err != nil {
		t.Fatal(err)
	}
}

func TestFitWithUnaryOperators(t *testing.T) {
	ds, err := datagen.Generate(datagen.Spec{
		Name: "unary", Train: 2000, Test: 500, Dim: 8,
		Interactions: 3, SignalScale: 2.5, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Operators = []string{"log", "sqrt", "square", "bin_chimerge"}
	eng, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p, report, err := eng.Fit(ds.Train)
	if err != nil {
		t.Fatal(err)
	}
	if report.Iterations[0].Generated == 0 {
		t.Error("no unary features generated")
	}
	// Round-trip through serialisation with fitted unary operators.
	out, err := p.Transform(ds.Test)
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRows() != ds.Test.NumRows() {
		t.Errorf("rows = %d", out.NumRows())
	}
}

func TestFitExtremeValues(t *testing.T) {
	n := 500
	big := make([]float64, n)
	tiny := make([]float64, n)
	rng := rand.New(rand.NewSource(10))
	labels := make([]float64, n)
	for i := range big {
		big[i] = rng.NormFloat64() * 1e154
		tiny[i] = rng.NormFloat64() * 1e-154
		if (big[i] > 0) == (tiny[i] > 0) {
			labels[i] = 1
		}
	}
	f := makeFrame(map[string][]float64{"big": big, "tiny": tiny}, labels)
	eng, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	p, _, err := eng.Fit(f)
	if err != nil {
		t.Fatal(err)
	}
	// big/tiny is of the order 1e308 and overflows to Inf on about a third
	// of the rows; the label is its sign, so the fit selects it. The clamp
	// must squash what it derives to finite — and must have had to.
	overflowed := 0
	for _, col := range RawOutputs(p, f) {
		for _, v := range col {
			if math.IsInf(v, 0) {
				overflowed++
			}
		}
	}
	if overflowed == 0 {
		t.Fatalf("no selected feature of %v overflows before the clamp: the test has lost its subject", p.Output)
	}
	out, err := p.Transform(f)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range out.Columns {
		for _, v := range c.Values {
			if math.IsInf(v, 0) || math.IsNaN(v) {
				t.Fatalf("column %q contains %v", c.Name, v)
			}
		}
	}
}

// TestFitInfiniteValuesEqualWidth: frame.Validate admits ±Inf, and an
// infinite value used to turn the equal-width IV's bin width infinite and
// its bin index into int(NaN) — an index out of range inside the pool. Such
// a column now scores 0 like a constant one and the fit completes.
func TestFitInfiniteValuesEqualWidth(t *testing.T) {
	n := 600
	rng := rand.New(rand.NewSource(18))
	a, b, c := randCol(n, 1), randCol(n, 2), randCol(n, 3)
	labels := make([]float64, n)
	for i := range labels {
		if a[i]*b[i]+0.3*rng.NormFloat64() > 0 {
			labels[i] = 1
		}
	}
	a[7], b[11], c[13], c[17] = math.Inf(1), math.Inf(-1), math.Inf(1), math.Inf(-1)
	f := makeFrame(map[string][]float64{"a": a, "b": b, "c": c}, labels)
	cfg := DefaultConfig()
	cfg.IVEqualWidth = true
	eng, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p, _, err := eng.Fit(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Output) == 0 {
		t.Fatal("fit over ±Inf columns produced an empty pipeline")
	}
}

// TestSanitizeTable: sanitize zeroes exactly NaN and ±Inf and leaves every
// finite value — both zeros, the extremes, subnormals — as it was.
func TestSanitizeTable(t *testing.T) {
	keep := []float64{0, math.Copysign(0, -1), math.MaxFloat64, -math.MaxFloat64,
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 1, -2.5}
	zero := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Float64frombits(0xfff8000000000001)}
	col := append(append([]float64(nil), keep...), zero...)
	sanitize(col)
	for i, v := range keep {
		if math.Float64bits(col[i]) != math.Float64bits(v) {
			t.Errorf("sanitize changed %v to %v", v, col[i])
		}
	}
	for i, v := range zero {
		if got := col[len(keep)+i]; math.Float64bits(got) != 0 {
			t.Errorf("sanitize left %v as %v, want +0", v, got)
		}
	}
}
