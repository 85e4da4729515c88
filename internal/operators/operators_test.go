package operators

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// evalRow evaluates a on one row: a one-row column per input.
func evalRow(a Applier, row []float64) float64 {
	cols := make([][]float64, len(row))
	for j := range row {
		cols[j] = row[j : j+1]
	}
	var out [1]float64
	a.TransformInto(cols, out[:])
	return out[0]
}

func fitAndRow(t *testing.T, op Operator, cols [][]float64, row []float64) float64 {
	t.Helper()
	a, err := op.Fit(cols)
	if err != nil {
		t.Fatalf("%s.Fit: %v", op.Name(), err)
	}
	return evalRow(a, row)
}

func TestArithmetic(t *testing.T) {
	cols := [][]float64{{1, 2}, {3, 4}}
	cases := []struct {
		op   Operator
		want float64
	}{
		{Add(), 4},
		{Sub(), -2},
		{Mul(), 3},
		{Div(), 1.0 / 3},
	}
	for _, c := range cases {
		if got := fitAndRow(t, c.op, cols, []float64{1, 3}); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("%s(1,3) = %v, want %v", c.op.Name(), got, c.want)
		}
	}
}

func TestDivByZeroIsNaN(t *testing.T) {
	if got := fitAndRow(t, Div(), [][]float64{{1}, {0}}, []float64{1, 0}); !math.IsNaN(got) {
		t.Errorf("1/0 = %v, want NaN", got)
	}
}

func TestUnaryTransforms(t *testing.T) {
	col := [][]float64{{-4, 0, 4}}
	cases := []struct {
		op   Operator
		in   float64
		want float64
	}{
		{Log(), math.E - 1, 1},
		{Log(), -(math.E - 1), -1}, // sign-preserving
		{Sqrt(), 4, 2},
		{Sqrt(), -4, -2},
		{Square(), -3, 9},
		{Sigmoid(), 0, 0.5},
		{Tanh(), 0, 0},
		{Round(), 2.6, 3},
		{Abs(), -5, 5},
		{Reciprocal(), 4, 0.25},
	}
	for _, c := range cases {
		if got := fitAndRow(t, c.op, col, []float64{c.in}); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("%s(%v) = %v, want %v", c.op.Name(), c.in, got, c.want)
		}
	}
	if got := fitAndRow(t, Reciprocal(), col, []float64{0}); !math.IsNaN(got) {
		t.Errorf("1/0 = %v, want NaN", got)
	}
}

func TestLogicalOperators(t *testing.T) {
	cols := [][]float64{{0, 1}, {0, 1}}
	type row struct{ a, b, want float64 }
	cases := map[string][]row{
		"and":     {{1, 1, 1}, {1, 0, 0}, {0, 0, 0}},
		"or":      {{1, 0, 1}, {0, 0, 0}},
		"xor":     {{1, 0, 1}, {1, 1, 0}},
		"nand":    {{1, 1, 0}, {0, 0, 1}},
		"nor":     {{0, 0, 1}, {1, 0, 0}},
		"implies": {{1, 0, 0}, {0, 0, 1}, {1, 1, 1}},
		"iff":     {{1, 1, 1}, {1, 0, 0}, {0, 0, 1}},
	}
	reg := NewRegistry()
	for name, rows := range cases {
		op, err := reg.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rows {
			if got := fitAndRow(t, op, cols, []float64{r.a, r.b}); got != r.want {
				t.Errorf("%s(%v,%v) = %v, want %v", name, r.a, r.b, got, r.want)
			}
		}
	}
}

func TestConditional(t *testing.T) {
	cols := [][]float64{{0, 1}, {10, 10}, {20, 20}}
	op := Conditional()
	if got := fitAndRow(t, op, cols, []float64{1, 10, 20}); got != 10 {
		t.Errorf("cond(1,10,20) = %v, want 10", got)
	}
	if got := fitAndRow(t, op, cols, []float64{0, 10, 20}); got != 20 {
		t.Errorf("cond(0,10,20) = %v, want 20", got)
	}
}

func TestRowAggregates(t *testing.T) {
	cols := [][]float64{{1}, {5}, {3}}
	if got := fitAndRow(t, RowMax(3), cols, []float64{1, 5, 3}); got != 5 {
		t.Errorf("max = %v, want 5", got)
	}
	if got := fitAndRow(t, RowMin(3), cols, []float64{1, 5, 3}); got != 1 {
		t.Errorf("min = %v, want 1", got)
	}
	if got := fitAndRow(t, RowMean(3), cols, []float64{1, 5, 3}); got != 3 {
		t.Errorf("mean = %v, want 3", got)
	}
}

func TestMinMaxNormalisation(t *testing.T) {
	train := [][]float64{{0, 5, 10}}
	op := MinMax()
	a, err := op.Fit(train)
	if err != nil {
		t.Fatal(err)
	}
	if got := evalRow(a, []float64{5}); got != 0.5 {
		t.Errorf("minmax(5) = %v, want 0.5", got)
	}
	// Out-of-range values extrapolate using *training* parameters.
	if got := evalRow(a, []float64{20}); got != 2 {
		t.Errorf("minmax(20) = %v, want 2", got)
	}
	// Constant column does not divide by zero.
	konst, err := MinMax().Fit([][]float64{{3, 3, 3}})
	if err != nil {
		t.Fatal(err)
	}
	if got := evalRow(konst, []float64{3}); math.IsNaN(got) || math.IsInf(got, 0) {
		t.Errorf("minmax on constant column = %v", got)
	}
}

func TestZScore(t *testing.T) {
	train := [][]float64{{2, 4, 6}}
	a, err := ZScore().Fit(train)
	if err != nil {
		t.Fatal(err)
	}
	if got := evalRow(a, []float64{4}); math.Abs(got) > 1e-12 {
		t.Errorf("zscore(mean) = %v, want 0", got)
	}
}

func TestDiscretizeEqualFrequency(t *testing.T) {
	vals := make([]float64, 100)
	for i := range vals {
		vals[i] = float64(i)
	}
	op := Discretize(EqualFrequency, 4)
	a, err := op.Fit([][]float64{vals})
	if err != nil {
		t.Fatal(err)
	}
	out := make([]float64, len(vals))
	a.TransformInto([][]float64{vals}, out)
	counts := map[float64]int{}
	for _, b := range out {
		counts[b]++
	}
	if len(counts) != 4 {
		t.Fatalf("got %d bins, want 4: %v", len(counts), counts)
	}
	if got := evalRow(a, []float64{math.NaN()}); got != -1 {
		t.Errorf("NaN bin = %v, want -1", got)
	}
}

func TestDiscretizeChiMergeUsesLabels(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n := 1000
	vals := make([]float64, n)
	labels := make([]float64, n)
	for i := range vals {
		vals[i] = rng.Float64()*2 - 1
		if vals[i] > 0 {
			labels[i] = 1
		}
	}
	op := Discretize(ChiMergeBins, 4)
	op.SetLabels(labels)
	a, err := op.Fit([][]float64{vals})
	if err != nil {
		t.Fatal(err)
	}
	// Bin of -0.5 must differ from bin of +0.5.
	lo := evalRow(a, []float64{-0.5})
	hi := evalRow(a, []float64{0.5})
	if lo == hi {
		t.Errorf("ChiMerge failed to separate the label boundary (bins %v and %v)", lo, hi)
	}
}

func TestGroupByAggregates(t *testing.T) {
	// Key has two clear groups (0s and 10s); value differs per group.
	key := []float64{0, 0, 0, 10, 10, 10}
	val := []float64{1, 2, 3, 7, 8, 9}
	cases := []struct {
		agg  GroupAgg
		want float64 // aggregate of the high group
	}{
		{GroupMax, 9},
		{GroupMin, 7},
		{GroupAvg, 8},
		{GroupCount, 3},
	}
	for _, c := range cases {
		op := GroupBy(c.agg, 2)
		a, err := op.Fit([][]float64{key, val})
		if err != nil {
			t.Fatal(err)
		}
		if got := evalRow(a, []float64{10, 0}); got != c.want {
			t.Errorf("%v(group 10) = %v, want %v", groupAggNames[c.agg], got, c.want)
		}
	}
	// Stdev of {7,8,9} is sqrt(2/3).
	a, err := GroupBy(GroupStdev, 2).Fit([][]float64{key, val})
	if err != nil {
		t.Fatal(err)
	}
	if got := evalRow(a, []float64{10, 0}); math.Abs(got-math.Sqrt(2.0/3)) > 1e-9 {
		t.Errorf("groupby_std = %v, want sqrt(2/3)", got)
	}
}

func TestGroupByNaNKeyFallsBack(t *testing.T) {
	key := []float64{0, 0, 10, 10}
	val := []float64{1, 3, 5, 7}
	a, err := GroupBy(GroupAvg, 2).Fit([][]float64{key, val})
	if err != nil {
		t.Fatal(err)
	}
	if got := evalRow(a, []float64{math.NaN(), 0}); got != 4 {
		t.Errorf("NaN-key fallback = %v, want global mean 4", got)
	}
}

func TestRidgeOperatorResidual(t *testing.T) {
	// b = 2a exactly: residual must be ~0 everywhere.
	n := 100
	a := make([]float64, n)
	b := make([]float64, n)
	for i := range a {
		a[i] = float64(i)
		b[i] = 2 * a[i]
	}
	op := RidgeOp(1e-9)
	ap, err := op.Fit([][]float64{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if got := evalRow(ap, []float64{10, 20}); math.Abs(got) > 1e-3 {
		t.Errorf("residual of exact linear relation = %v, want ~0", got)
	}
	if got := evalRow(ap, []float64{10, 25}); math.Abs(got-5) > 1e-3 {
		t.Errorf("residual of off-line point = %v, want ~5", got)
	}
}

func TestFormulaInterpretability(t *testing.T) {
	a, err := Mul().Fit([][]float64{{1}, {2}})
	if err != nil {
		t.Fatal(err)
	}
	f := a.Formula([]string{"income", "risk"})
	if !strings.Contains(f, "income") || !strings.Contains(f, "risk") || !strings.Contains(f, "*") {
		t.Errorf("formula %q not interpretable", f)
	}
}

// TestTransformMatchesTransformRowProperty: an applier evaluated over a whole
// column and one row at a time — the one-row batch Pipeline.TransformRow
// runs — writes the same values, overwriting whatever dst held.
func TestTransformMatchesTransformRowProperty(t *testing.T) {
	ops := []Operator{Add(), Sub(), Mul(), Div(), MinMax(), ZScore(), Discretize(EqualWidth, 5), GroupBy(GroupAvg, 4), RidgeOp(1)}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(20)
		a := make([]float64, n)
		b := make([]float64, n)
		for i := range a {
			a[i] = rng.NormFloat64()
			b[i] = rng.NormFloat64()
		}
		for _, op := range ops {
			cols := [][]float64{a, b}[:op.Arity()]
			ap, err := op.Fit(cols)
			if err != nil {
				return false
			}
			batch := make([]float64, n)
			for i := range batch {
				batch[i] = math.Inf(1)
			}
			ap.TransformInto(cols, batch)
			for i := range a {
				got := evalRow(ap, []float64{a[i], b[i]}[:op.Arity()])
				if math.IsNaN(got) && math.IsNaN(batch[i]) {
					continue
				}
				if got != batch[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFitArityChecks(t *testing.T) {
	if _, err := Add().Fit([][]float64{{1}}); err == nil {
		t.Error("binary op accepted 1 input")
	}
	if _, err := Log().Fit([][]float64{{1}, {2}}); err == nil {
		t.Error("unary op accepted 2 inputs")
	}
	if _, err := MinMax().Fit([][]float64{{1}, {2}}); err == nil {
		t.Error("minmax accepted 2 inputs")
	}
	if _, err := GroupBy(GroupAvg, 4).Fit([][]float64{{1}}); err == nil {
		t.Error("groupby accepted 1 input")
	}
}

func TestRegistry(t *testing.T) {
	reg := NewRegistry()
	if _, err := reg.Get("add"); err != nil {
		t.Errorf("builtin add missing: %v", err)
	}
	if _, err := reg.Get("nope"); err == nil {
		t.Error("unknown operator resolved")
	}
	names := reg.Names()
	if len(names) < 20 {
		t.Errorf("registry has %d operators, want the full catalogue (>= 20)", len(names))
	}
	// Custom registration (the "domain-specific operator" extension point).
	reg.Register("double", func() Operator {
		return &funcOp{
			name:  "double",
			arity: Unary,
			f:     func(v []float64) float64 { return 2 * v[0] },
			formula: func(ns []string) string {
				return "2*" + ns[0]
			},
		}
	})
	op, err := reg.Get("double")
	if err != nil {
		t.Fatal(err)
	}
	if got := fitAndRow(t, op, [][]float64{{1}}, []float64{21}); got != 42 {
		t.Errorf("custom op = %v, want 42", got)
	}
	ops, err := reg.GetAll([]string{"add", "double"})
	if err != nil || len(ops) != 2 {
		t.Errorf("GetAll = %v, %v", ops, err)
	}
	if _, err := reg.GetAll([]string{"add", "zzz"}); err == nil {
		t.Error("GetAll resolved an unknown operator")
	}
}

func TestCommutativity(t *testing.T) {
	if !Commutative("add") || !Commutative("mul") {
		t.Error("add/mul should be commutative")
	}
	if Commutative("sub") || Commutative("div") || Commutative("implies") {
		t.Error("sub/div/implies should not be commutative")
	}
}

func TestDefaultExperimentOperators(t *testing.T) {
	ops := DefaultExperimentOperators()
	want := []string{"add", "sub", "mul", "div"}
	if len(ops) != 4 {
		t.Fatalf("got %v", ops)
	}
	for i := range want {
		if ops[i] != want[i] {
			t.Errorf("ops[%d] = %q, want %q", i, ops[i], want[i])
		}
	}
}
