package core

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/gbdt"
	"repro/internal/parallel"
	"repro/internal/stats"
)

// rowSpaceGainRatio is the scorer's reference, kept here and nowhere else:
// the combination's (thinned) split values partition the rows by their raw
// values — one binary search per row per feature, NaN below every split value
// — and the row-space criteria of internal/stats score the partition. It is
// what core scored combinations with before they were scored on bin codes.
func rowSpaceGainRatio(c *Combo, cols [][]float64, labels []float64, task Task) float64 {
	values := thinValues(c.Values)
	cells := 1
	for _, vs := range values {
		cells *= len(vs) + 1
	}
	if cells <= 1 {
		return 0
	}
	parts := make([]int, len(labels))
	for r := range parts {
		id := 0
		for i, f := range c.Features {
			j := 0
			if v := cols[f][r]; v == v {
				j = stats.SearchCuts(values[i], v)
			}
			id = id*(len(values[i])+1) + j
		}
		parts[r] = id
	}
	switch task.Kind {
	case TaskMulticlass:
		return stats.GainRatioClasses(labels, parts, cells, task.Classes)
	case TaskRegression:
		return stats.VarGainRatio(labels, parts, cells)
	}
	return stats.GainRatio(labels, parts, cells)
}

// scoreColumns are the column shapes the scorer is held to its reference on.
var scoreColumns = []struct {
	name string
	gen  func(rng *rand.Rand, i int) float64
}{
	{"normal", func(rng *rand.Rand, _ int) float64 { return rng.NormFloat64() }},
	{"nan-laced", func(rng *rand.Rand, _ int) float64 {
		if rng.Float64() < 0.2 {
			return math.NaN()
		}
		return rng.NormFloat64()
	}},
	{"inf-laced", func(rng *rand.Rand, _ int) float64 {
		switch u := rng.Float64(); {
		case u < 0.05:
			return math.Inf(-1)
		case u < 0.10:
			return math.Inf(1)
		}
		return rng.NormFloat64()
	}},
	{"mostly-one-value", func(rng *rand.Rand, _ int) float64 {
		if rng.Float64() < 0.9 {
			return 3
		}
		return rng.NormFloat64()
	}},
	{"constant", func(*rand.Rand, int) float64 { return -2.5 }}, // bins to no cuts at all
	{"heavy-tailed-ratio", func(rng *rand.Rand, _ int) float64 { return rng.NormFloat64() / rng.NormFloat64() }},
}

// scoreMatrix draws n rows of every column shape and bins them as a trainer
// would.
func scoreMatrix(t testing.TB, n int) ([][]float64, *gbdt.Prebinned) {
	t.Helper()
	rng := rand.New(rand.NewSource(19))
	cols := make([][]float64, len(scoreColumns))
	for j, sc := range scoreColumns {
		cols[j] = make([]float64, n)
		for i := range cols[j] {
			cols[j][i] = sc.gen(rng, i)
		}
	}
	pb, err := gbdt.BinColumns(cols, gbdt.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return cols, pb
}

// scoreCombosOver lists every combination of one, two and three of the
// matrix's columns, each twice: with a few of its features' cuts as split
// values, and with all of them — 63 a column, which thinValues must cut down
// for every pair and triple.
func scoreCombosOver(pb *gbdt.Prebinned) []Combo {
	rng := rand.New(rand.NewSource(23))
	var out []Combo
	add := func(feats ...int) {
		few := Combo{Features: feats, Values: make([][]float64, len(feats))}
		all := Combo{Features: feats, Values: make([][]float64, len(feats))}
		for i, f := range feats {
			cuts := pb.Cuts[f]
			all.Values[i] = cuts
			for _, c := range cuts {
				if rng.Intn(12) == 0 {
					few.Values[i] = append(few.Values[i], c)
				}
			}
			if len(few.Values[i]) == 0 && len(cuts) > 0 {
				few.Values[i] = cuts[len(cuts)/2:][:1]
			}
		}
		out = append(out, few, all)
	}
	m := len(pb.Codes)
	for a := 0; a < m; a++ {
		add(a)
		for b := a + 1; b < m; b++ {
			add(a, b)
			for c := b + 1; c < m; c++ {
				add(a, b, c)
			}
		}
	}
	return out
}

// TestScoreCombosMatchesRowSpace is the scorer's contract, tested rather than
// argued: over every task, arity, column shape and pool size, on grids left
// whole and grids thinned past maxPartitionCells, scoring on the bin codes
// returns the bits that partitioning the raw values returns.
func TestScoreCombosMatchesRowSpace(t *testing.T) {
	const n = 3000
	cols, pb := scoreMatrix(t, n)
	for j, sc := range scoreColumns {
		if got := len(pb.Cuts[j]); (got == 0) != (sc.name == "constant") {
			t.Fatalf("column %s binned to %d cuts", sc.name, got)
		}
	}
	if c := pb.Cuts[2]; !math.IsInf(c[0], -1) {
		t.Fatalf("the inf-laced column's first cut is %v: the case needs an infinite split value", c[0])
	}
	rng := rand.New(rand.NewSource(29))
	classLabels := func(k int) []float64 {
		out := make([]float64, n)
		for i := range out {
			// Class ids around a signal, and one row in twelve outside [0, k).
			out[i] = float64(rng.Intn(k))
			if cols[0][i] > 0 {
				out[i] = float64(k - 1)
			}
			if rng.Intn(12) == 0 {
				out[i] = []float64{-1, float64(k), float64(k + 3), -0.5}[rng.Intn(4)]
			}
		}
		return out
	}
	binary, target := make([]float64, n), make([]float64, n)
	for i := range binary {
		if cols[0][i]*cols[5][i] > 0 || rng.Intn(10) == 0 {
			binary[i] = 1
		}
		target[i] = 2*cols[0][i] + rng.NormFloat64()
	}
	for _, tc := range []struct {
		task   Task
		labels []float64
	}{
		{BinaryTask(), binary},
		{MulticlassTask(2), classLabels(2)},
		{MulticlassTask(3), classLabels(3)},
		{MulticlassTask(7), classLabels(7)},
		{RegressionTask(), target},
	} {
		want := scoreCombosOver(pb)
		thinned, whole, nonzero := 0, 0, 0
		for i := range want {
			c := &want[i]
			c.GainRatio = rowSpaceGainRatio(c, cols, tc.labels, tc.task)
			cells := 1
			for _, vs := range c.Values {
				cells *= len(vs) + 1
			}
			if cells > maxPartitionCells {
				thinned++
			} else {
				whole++
			}
			if c.GainRatio != 0 {
				nonzero++
			}
		}
		if thinned == 0 || whole == 0 || nonzero < len(want)/2 {
			t.Fatalf("%s: %d thinned and %d whole grids, %d of %d non-zero ratios: the table needs all of them", tc.task, thinned, whole, nonzero, len(want))
		}
		for _, workers := range []int{1, 2, 3, 8} {
			got := scoreCombosOver(pb)
			if err := ScoreCombos(context.Background(), got, pb, tc.task.Code(tc.labels), parallel.Get(workers)); err != nil {
				t.Fatalf("%s, %d workers: %v", tc.task, workers, err)
			}
			for i := range want {
				if got[i].GainRatio != want[i].GainRatio {
					names := make([]string, len(want[i].Features))
					for k, f := range want[i].Features {
						names[k] = fmt.Sprintf("%s/%d", scoreColumns[f].name, len(want[i].Values[k]))
					}
					t.Errorf("%s, %d workers, combination %s: code space %v, row space %v",
						tc.task, workers, strings.Join(names, " × "), got[i].GainRatio, want[i].GainRatio)
				}
			}
		}
	}
}

// TestScoreCombosRejectsWhatItWouldIndexBy: the scorer indexes cut arrays by
// feature, a three-slot table set by arity and its cell tables by code, so a
// combination or a matrix that is out of range on any of them must come back
// as an error — and a split value that is not a cut, which no table can place,
// likewise.
func TestScoreCombosRejectsWhatItWouldIndexBy(t *testing.T) {
	_, pb := scoreMatrix(t, 400)
	labels := make([]float64, 400)
	cut := pb.Cuts[0][3]
	for _, tc := range []struct {
		name, want string
		combo      Combo
	}{
		{"feature outside the matrix", "feature 6 outside", Combo{Features: []int{0, 6}, Values: [][]float64{{cut}, {0}}}},
		{"negative feature", "feature -1 outside", Combo{Features: []int{-1}, Values: [][]float64{{0}}}},
		{"arity above 3", "at most 3", Combo{Features: []int{0, 1, 2, 3}, Values: [][]float64{{cut}, nil, nil, nil}}},
		{"fewer split sets than features", "1 split sets", Combo{Features: []int{0, 1}, Values: [][]float64{{cut}}}},
		{"split value between cuts", "not a cut of feature 0", Combo{Features: []int{0}, Values: [][]float64{{math.Nextafter(cut, 9)}}}},
		{"split value above every cut", "not a cut of feature 0", Combo{Features: []int{0}, Values: [][]float64{{math.Inf(1)}}}},
		{"NaN split value", "not a cut of feature 1", Combo{Features: []int{1}, Values: [][]float64{{math.NaN()}}}},
		{"split value of a column without cuts", "not a cut of feature 4", Combo{Features: []int{4}, Values: [][]float64{{-2.5}}}},
	} {
		err := ScoreCombos(context.Background(), []Combo{tc.combo}, pb, BinaryTask().Code(labels), parallel.Get(1))
		if err == nil || !strings.HasPrefix(err.Error(), "core: combination 0: ") || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want core: combination 0: … %s …", tc.name, err, tc.want)
		}
	}
	good := []Combo{{Features: []int{0}, Values: [][]float64{{cut}}}}
	bad := &gbdt.Prebinned{Codes: append([][]uint8(nil), pb.Codes...), Cuts: pb.Cuts}
	bad.Codes[3] = append([]uint8(nil), pb.Codes[3]...)
	bad.Codes[3][7] = uint8(len(pb.Cuts[3]) + 2) // one past the top bin's code
	if err := ScoreCombos(context.Background(), good, bad, BinaryTask().Code(labels), parallel.Get(1)); err == nil || !strings.Contains(err.Error(), "code column 3 holds code") {
		t.Errorf("code outside its bins: error %v", err)
	}
	if err := ScoreCombos(context.Background(), good, pb, BinaryTask().Code(labels[:399]), parallel.Get(1)); err == nil || !strings.Contains(err.Error(), "has 400 rows, want 399") {
		t.Errorf("labels shorter than the matrix: error %v", err)
	}
}

// fuzzCuts decodes raw into what a binner's cut array can be: at most 254
// distinct non-NaN values, ascending.
func fuzzCuts(raw []byte) []float64 {
	var cuts []float64
	for ; len(raw) >= 8 && len(cuts) < 254; raw = raw[8:] {
		if v := math.Float64frombits(binary.LittleEndian.Uint64(raw)); v == v {
			cuts = append(cuts, v)
		}
	}
	sort.Float64s(cuts)
	out := cuts[:0]
	for _, v := range cuts {
		if len(out) == 0 || out[len(out)-1] != v { // -0 == +0: one cut
			out = append(out, v)
		}
	}
	return out
}

// FuzzComboCellTable holds the cell table to the search it replaces: for any
// cut array, any subset of it as split values and any value, the table entry
// of the value's bin code is the value's own position among the split values.
func FuzzComboCellTable(f *testing.F) {
	le := func(vs ...float64) []byte {
		var b []byte
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	f.Add(le(-1, 0, 0.5, 2, 7), uint64(0b10110), 0.5)
	f.Add(le(math.Inf(-1), -3, 0, 3, math.Inf(1)), uint64(0b10001), math.Inf(-1))
	f.Add(le(1, 2, 3), uint64(0), math.NaN())
	f.Add([]byte{}, uint64(1), 4.0)
	f.Fuzz(func(t *testing.T, raw []byte, mask uint64, v float64) {
		cuts := fuzzCuts(raw)
		var values []float64
		for i, c := range cuts {
			if mask>>(i%64)&1 == 1 {
				values = append(values, c)
			}
		}
		stride := 1 + int(mask%5)
		var tab [256]uint32
		for i := range tab {
			tab[i] = math.MaxUint32 // an entry the fill should have written shows
		}
		fillCellTable(&tab, values, cuts, stride)
		code, want := 0, 0 // NaN: code 0, below every split value
		if v == v {
			code, want = 1+stats.SearchCuts(cuts, v), stats.SearchCuts(values, v)
		}
		if got := tab[code]; got != uint32(want*stride) {
			t.Fatalf("cuts %v, split values %v, stride %d: value %v has code %d and table entry %d, want %d × %d",
				cuts, values, stride, v, code, got, want, stride)
		}
	})
}

// BenchmarkScoreCombos times the scorer alone, per task, on the shape of a
// round of the repository benchmark's fit: 20,000 rows, 100 pair combinations
// over 50 columns with a dozen split values a feature. The custom metric is
// the layer's unit: nanoseconds per row per combination.
func BenchmarkScoreCombos(b *testing.B) {
	const n, m, nCombos = 20000, 50, 100
	rng := rand.New(rand.NewSource(31))
	cols := make([][]float64, m)
	for j := range cols {
		cols[j] = make([]float64, n)
		for i := range cols[j] {
			cols[j][i] = rng.NormFloat64()
		}
	}
	pb, err := gbdt.BinColumns(cols, gbdt.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	everyFourth := func(cuts []float64) (out []float64) {
		for i := 8; i < 56; i += 4 {
			out = append(out, cuts[i])
		}
		return out
	}
	combos := make([]Combo, nCombos)
	for i := range combos {
		fa := rng.Intn(m - 1)
		fb := fa + 1 + rng.Intn(m-1-fa)
		combos[i] = Combo{Features: []int{fa, fb}, Values: [][]float64{everyFourth(pb.Cuts[fa]), everyFourth(pb.Cuts[fb])}}
	}
	for _, task := range []Task{BinaryTask(), MulticlassTask(3), RegressionTask()} {
		labels := make([]float64, n)
		for i := range labels {
			switch task.Kind {
			case TaskRegression:
				labels[i] = cols[0][i]*cols[1][i] + rng.NormFloat64()
			default:
				labels[i] = float64(rng.Intn(max(task.Classes, 2)))
			}
		}
		code := task.Code(labels) // coded once, as a fit codes its labels
		b.Run(task.String(), func(b *testing.B) {
			pool := parallel.Get(1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := ScoreCombos(context.Background(), combos, pb, code, pool); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n/nCombos, "ns/row/combo")
		})
	}
}
