package core

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/gbdt"
	"repro/internal/parallel"
)

// tinyMatrix is 1,500 rows of five normal columns, binned as the model's
// trainer bins them, with an interaction between columns 0 and 1 as the label.
func tinyMatrix(t *testing.T) (*gbdt.Prebinned, []float64, gbdt.Config) {
	t.Helper()
	rng := rand.New(rand.NewSource(71))
	n := 1500
	cols := make([][]float64, 5)
	for j := range cols {
		cols[j] = make([]float64, n)
		for i := range cols[j] {
			cols[j][i] = rng.NormFloat64()
		}
	}
	labels := make([]float64, n)
	for i := 0; i < n; i++ {
		if cols[0][i]*cols[1][i] > 0 { // interaction between 0 and 1
			labels[i] = 1
		}
	}
	cfg := gbdt.DefaultConfig()
	cfg.NumTrees = 15
	pb, err := gbdt.BinColumns(cols, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return pb, labels, cfg
}

func trainTinyModel(t *testing.T) *gbdt.Model {
	t.Helper()
	pb, labels, cfg := tinyMatrix(t)
	model, err := gbdt.TrainBinned(pb, labels, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return model
}

func TestMineCombosArities(t *testing.T) {
	model := trainTinyModel(t)
	pairsOnly := mineCombos(model, []int{2})
	for _, c := range pairsOnly {
		if len(c.Features) != 2 {
			t.Fatalf("arity-2 mining produced %d-feature combo", len(c.Features))
		}
	}
	singles := mineCombos(model, []int{1})
	for _, c := range singles {
		if len(c.Features) != 1 {
			t.Fatalf("arity-1 mining produced %d-feature combo", len(c.Features))
		}
	}
	mixed := mineCombos(model, []int{1, 2, 3})
	has := map[int]bool{}
	for _, c := range mixed {
		has[len(c.Features)] = true
	}
	if !has[1] || !has[2] {
		t.Errorf("mixed mining missing arities: %v", has)
	}
}

func TestMineCombosDeduplicates(t *testing.T) {
	model := trainTinyModel(t)
	combos := mineCombos(model, []int{2})
	seen := map[comboKey]bool{}
	for _, c := range combos {
		k := keyOf(c.Features)
		if seen[k] {
			t.Fatalf("duplicate combo %v", c.Features)
		}
		seen[k] = true
		// Features sorted, values sorted ascending.
		for i := 1; i < len(c.Features); i++ {
			if c.Features[i] <= c.Features[i-1] {
				t.Fatalf("combo features not sorted: %v", c.Features)
			}
		}
		for _, vs := range c.Values {
			for i := 1; i < len(vs); i++ {
				if vs[i] <= vs[i-1] {
					t.Fatalf("combo values not sorted: %v", vs)
				}
			}
		}
	}
}

func TestMergeSorted(t *testing.T) {
	cases := []struct {
		a, b, want []float64
	}{
		{nil, nil, nil},
		{[]float64{1, 3}, nil, []float64{1, 3}},
		{nil, []float64{2}, []float64{2}},
		{[]float64{1, 3}, []float64{2, 3, 4}, []float64{1, 2, 3, 4}},
		{[]float64{1, 1, 2}, []float64{1}, []float64{1, 2}},
	}
	for _, c := range cases {
		got := mergeSorted(c.a, c.b)
		if len(got) != len(c.want) {
			t.Fatalf("mergeSorted(%v,%v) = %v, want %v", c.a, c.b, got, c.want)
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Fatalf("mergeSorted(%v,%v) = %v, want %v", c.a, c.b, got, c.want)
			}
		}
	}
}

func TestThinValuesRespectsCap(t *testing.T) {
	big := make([]float64, 100)
	for i := range big {
		big[i] = float64(i)
	}
	values := [][]float64{big, append([]float64(nil), big...)}
	thinned := thinValues(values)
	cells := 1
	for _, vs := range thinned {
		cells *= len(vs) + 1
	}
	if cells > maxPartitionCells {
		t.Errorf("thinned partition still has %d cells (cap %d)", cells, maxPartitionCells)
	}
	// Thinned sets keep extremes-ish coverage: first element preserved.
	if thinned[0][0] != 0 {
		t.Errorf("thinning dropped the lowest cut: %v", thinned[0][:3])
	}
}

func TestThinValuesNoopWhenSmall(t *testing.T) {
	values := [][]float64{{1, 2}, {3}}
	thinned := thinValues(values)
	if len(thinned[0]) != 2 || len(thinned[1]) != 1 {
		t.Errorf("small value sets were thinned: %v", thinned)
	}
}

func TestScoreCombosXORPairWins(t *testing.T) {
	// The XOR pair (0,1) must outscore pairs involving noise features.
	model := trainTinyModel(t)
	pb, labels, _ := tinyMatrix(t)
	combos := mineCombos(model, []int{2})
	if err := ScoreCombos(context.Background(), combos, pb, labels, BinaryTask(), parallel.Get(1)); err != nil {
		t.Fatal(err)
	}
	combos = topCombos(combos, 0)
	if len(combos) == 0 {
		t.Fatal("no combos")
	}
	best := combos[0]
	if !(best.Features[0] == 0 && best.Features[1] == 1) {
		t.Errorf("top combo = %v (gain ratio %v), want [0 1]", best.Features, best.GainRatio)
	}
}

func TestScoreCombosParallelMatchesSerial(t *testing.T) {
	model := trainTinyModel(t)
	pb, labels, _ := tinyMatrix(t)
	rng := rand.New(rand.NewSource(73))
	for i := range labels {
		labels[i] = float64(rng.Intn(2))
	}
	a := mineCombos(model, []int{1, 2})
	b := mineCombos(model, []int{1, 2})
	for workers, combos := range map[int][]Combo{1: a, 4: b} {
		if err := ScoreCombos(context.Background(), combos, pb, labels, BinaryTask(), parallel.Get(workers)); err != nil {
			t.Fatal(err)
		}
	}
	for i := range a {
		if a[i].GainRatio != b[i].GainRatio {
			t.Fatalf("combo %v: serial %v != parallel %v", a[i].Features, a[i].GainRatio, b[i].GainRatio)
		}
	}
}

func TestTopCombosOrdering(t *testing.T) {
	combos := []Combo{
		{Features: []int{3}, GainRatio: 0.1},
		{Features: []int{1}, GainRatio: 0.5},
		{Features: []int{2}, GainRatio: 0.5},
		{Features: []int{0}, GainRatio: 0.9},
	}
	top := topCombos(combos, 3)
	if len(top) != 3 {
		t.Fatalf("kept %d, want 3", len(top))
	}
	if top[0].GainRatio != 0.9 {
		t.Errorf("top combo gain = %v", top[0].GainRatio)
	}
	// Ties broken by feature index for determinism.
	if top[1].Features[0] != 1 || top[2].Features[0] != 2 {
		t.Errorf("tie-break wrong: %v then %v", top[1].Features, top[2].Features)
	}
}

// refStandardize is the copying form standardizeCol replaced: a fresh
// (x - mean)/std column with NaNs mapped to 0, or nil for a constant one.
func refStandardize(col []float64) []float64 {
	var sum float64
	n := 0
	for _, v := range col {
		if !math.IsNaN(v) {
			sum += v
			n++
		}
	}
	if n == 0 {
		return nil
	}
	mean := sum / float64(n)
	var ss float64
	for _, v := range col {
		if !math.IsNaN(v) {
			d := v - mean
			ss += d * d
		}
	}
	stdv := math.Sqrt(ss / float64(n))
	if stdv < 1e-12 {
		return nil
	}
	out := make([]float64, len(col))
	for i, v := range col {
		if math.IsNaN(v) {
			out[i] = 0
			continue
		}
		out[i] = (v - mean) / stdv
	}
	return out
}

// TestStandardizeCol pins the in-place standardisation Algorithm 4's scan
// runs on: it allocates nothing, reports a constant (or all-NaN) column and
// leaves it untouched, maps NaN to 0, and writes every value bit for bit as
// the copying form it replaced (refStandardize) returned it.
func TestStandardizeCol(t *testing.T) {
	nan := math.NaN()
	cols := [][]float64{{1, 2, 3}, {1, nan, 3}, {5, 5, 5}, {nan, nan}, {7, nan, 7}, {}}
	rng := rand.New(rand.NewSource(3))
	for k := 0; k < 20; k++ {
		col := make([]float64, 500)
		scale, offset := math.Exp(rng.NormFloat64()*8), rng.NormFloat64()*1e6
		for i := range col {
			if col[i] = offset + scale*rng.NormFloat64(); rng.Intn(10) == 0 {
				col[i] = nan
			}
		}
		cols = append(cols, col)
	}
	for c, col := range cols {
		want := refStandardize(col)
		got := append([]float64(nil), col...)
		if ok := standardizeCol(got); ok != (want != nil) {
			t.Fatalf("column %d: standardizeCol reports %v, the copying form returned %v", c, ok, want)
		} else if !ok {
			want = col // left untouched
		}
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("column %d, row %d: %v, want %v", c, i, got[i], want[i])
			}
		}
	}
	withNaN := []float64{1, nan, 3}
	if !standardizeCol(withNaN) || withNaN[1] != 0 || withNaN[0]+withNaN[2] != 0 {
		t.Errorf("NaN handling = %v, want the middle element 0 between ±1", withNaN)
	}
	src, buf := cols[len(cols)-1], make([]float64, 500)
	if allocs := testing.AllocsPerRun(20, func() {
		copy(buf, src)
		standardizeCol(buf)
	}); allocs != 0 {
		t.Errorf("%v allocations per standardizeCol", allocs)
	}
}
