package stats

import (
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"testing"
)

// TestMulticlassIVMatchesBinaryAtK2: the mean one-vs-rest IV over two
// classes is the binary IV (the two one-vs-rest terms are the same quantity
// with pos/neg swapped), so the K=2 multiclass criterion agrees with the
// binary path.
func TestMulticlassIVMatchesBinaryAtK2(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n := 5000
	feature := make([]float64, n)
	labels := make([]float64, n)
	for i := range feature {
		feature[i] = rng.NormFloat64()
		p := 1 / (1 + math.Exp(-feature[i]))
		if rng.Float64() < p {
			labels[i] = 1
		}
	}
	// Sprinkle NaNs: both criteria must exclude the same rows.
	for i := 0; i < n; i += 97 {
		feature[i] = math.NaN()
	}
	var iv IVScratch
	var crit CritScratch
	want := iv.InformationValue(feature, labels, 10)
	got := crit.MulticlassIV(feature, labels, 2, 10)
	if want <= 0 {
		t.Fatalf("binary IV %g, want positive on signal data", want)
	}
	if math.Abs(got-want) > 1e-12*math.Max(1, want) {
		t.Fatalf("K=2 multiclass IV %g != binary IV %g", got, want)
	}
}

// TestGainRatioClassesMatchesBinaryAtK2: the K-class gain ratio over 2
// classes agrees with the binary gain ratio.
func TestGainRatioClassesMatchesBinaryAtK2(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n := 2000
	labels := make([]float64, n)
	parts := make([]int, n)
	for i := range labels {
		parts[i] = rng.Intn(6)
		if rng.Float64() < 0.2+0.1*float64(parts[i]) {
			labels[i] = 1
		}
	}
	want := GainRatio(labels, parts, 6)
	got := GainRatioClasses(labels, parts, 6, 2)
	if want <= 0 {
		t.Fatalf("binary gain ratio %g, want positive", want)
	}
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("K=2 class gain ratio %g != binary %g", got, want)
	}
}

func TestMulticlassIVDiscriminates(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 4000
	signal := make([]float64, n)
	noise := make([]float64, n)
	labels := make([]float64, n)
	for i := range signal {
		cls := rng.Intn(3)
		labels[i] = float64(cls)
		signal[i] = float64(cls) + 0.3*rng.NormFloat64()
		noise[i] = rng.NormFloat64()
	}
	var s CritScratch
	ivSig := s.MulticlassIV(signal, labels, 3, 10)
	ivNoise := s.MulticlassIV(noise, labels, 3, 10)
	if ivSig < 10*ivNoise || ivSig < 0.5 {
		t.Fatalf("multiclass IV fails to discriminate: signal %g noise %g", ivSig, ivNoise)
	}
}

func TestCorrelationRatioProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	n := 4000
	feature := make([]float64, n)
	exact := make([]float64, n) // target fully determined by the bin
	noisy := make([]float64, n)
	constant := make([]float64, n)
	for i := range feature {
		feature[i] = rng.NormFloat64()
		exact[i] = math.Floor(feature[i])
		noisy[i] = feature[i] + 0.5*rng.NormFloat64()
		constant[i] = 3.25
	}
	var s CritScratch
	if eta := s.CorrelationRatio(feature, constant, 10); eta != 0 {
		t.Fatalf("constant target: η² = %g, want 0", eta)
	}
	etaExact := s.CorrelationRatio(feature, exact, 64)
	if etaExact < 0.9 {
		t.Fatalf("near-deterministic relation: η² = %g, want >= 0.9", etaExact)
	}
	etaNoisy := s.CorrelationRatio(feature, noisy, 10)
	if etaNoisy <= 0.3 || etaNoisy >= etaExact {
		t.Fatalf("noisy relation: η² = %g (exact %g)", etaNoisy, etaExact)
	}
	indep := make([]float64, n)
	for i := range indep {
		indep[i] = rng.NormFloat64()
	}
	if eta := s.CorrelationRatio(feature, indep, 10); eta > 0.05 {
		t.Fatalf("independent target: η² = %g, want near 0", eta)
	}
	// Constant feature: a single bin carries no information.
	if eta := s.CorrelationRatio(constant, noisy, 10); eta != 0 {
		t.Fatalf("constant feature: η² = %g, want 0", eta)
	}
}

// TestCriterionMergeAdditivity: counts and moments accumulated per partition
// and summed reproduce the single-pass criterion — the property the sharded
// engine's merges rely on.
func TestCriterionMergeAdditivity(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	cells, k := 8, 3
	full := make([]int64, cells*k)
	partA := make([]int64, cells*k)
	partB := make([]int64, cells*k)
	for i := range full {
		a, b := int64(rng.Intn(50)), int64(rng.Intn(50))
		partA[i], partB[i] = a, b
		full[i] = a + b
	}
	merged := make([]int64, cells*k)
	for i := range merged {
		merged[i] = partA[i] + partB[i]
	}
	classes := TargetCode{Classes: k, W: k}
	if got, want := classes.GainRatio(merged), classes.GainRatio(full); got != want {
		t.Fatalf("class-count merge changed the gain ratio: %g vs %g", got, want)
	}

	// Regression tallies of the coded target, per partition and in any order
	// of the partitions, add up to the single-pass tallies.
	target := make([]float64, 600)
	for i := range target {
		target[i] = 1e6 + rng.NormFloat64()
	}
	var code TargetCode
	code.Encode(target)
	whole, split := make([]int64, cells*Tally), make([]int64, cells*Tally)
	for i, q := range code.Q {
		code.Add(whole[(i%cells)*Tally:], q)
	}
	for _, part := range [][2]int{{400, 600}, {0, 150}, {150, 400}} {
		for i := part[0]; i < part[1]; i++ {
			code.Add(split[(i%cells)*Tally:], code.Q[i])
		}
	}
	if got, want := code.CorrelationRatio(split), code.CorrelationRatio(whole); math.Float64bits(got) != math.Float64bits(want) || want == 0 {
		t.Fatalf("tally merge changed η²: %g vs %g", got, want)
	}
}

func TestVarGainRatioDegenerate(t *testing.T) {
	// One-cell partitions and empty input score 0.
	if got := VarGainRatio([]float64{1, 2, 3}, []int{0, 0, 0}, 1); got != 0 {
		t.Fatalf("degenerate partition: %g, want 0", got)
	}
	if got := VarGainRatio(nil, nil, 4); got != 0 {
		t.Fatalf("empty input: %g, want 0", got)
	}
	// Constant target: no variance to explain.
	if got := VarGainRatio([]float64{2, 2, 2, 2}, []int{0, 1, 0, 1}, 2); got != 0 {
		t.Fatalf("constant target: %g, want 0", got)
	}
	// A partition that separates two target levels perfectly scores high.
	target := []float64{0, 0, 0, 10, 10, 10}
	parts := []int{0, 0, 0, 1, 1, 1}
	if got := VarGainRatio(target, parts, 2); got < 1.0 {
		t.Fatalf("perfect split: %g, want >= 1/ln2", got)
	}
}

// The reference criteria: sorted-copy cuts, a binary search per row, and
// counts and tallies accumulated in row order — what the criteria computed
// before the class counts rode the quantile kernel's scans. The kernels must
// return these values exactly, not approximately.

func referenceBinaryIV(feature, labels []float64, bins int) float64 {
	cuts := sortedQuantiles(feature, bins)
	if len(cuts) == 0 {
		return 0
	}
	pos, neg := make([]float64, len(cuts)+1), make([]float64, len(cuts)+1)
	var np, nn float64
	for i, v := range feature {
		if math.IsNaN(v) {
			continue
		}
		b := SearchCuts(cuts, v)
		if labels[i] > 0.5 {
			pos[b]++
			np++
		} else {
			neg[b]++
			nn++
		}
	}
	return IVFromCounts(pos, neg, np, nn)
}

func referenceMulticlassIV(feature, labels []float64, k, bins int) float64 {
	cuts := sortedQuantiles(feature, bins)
	if len(cuts) == 0 || k < 2 {
		return 0
	}
	counts := make([][]float64, k)
	for c := range counts {
		counts[c] = make([]float64, len(cuts)+1)
	}
	for i, v := range feature {
		l := labels[i]
		if math.IsNaN(v) || math.IsNaN(l) || l <= -1 || l >= float64(k) {
			continue
		}
		counts[int(l)][SearchCuts(cuts, v)]++
	}
	return MulticlassIVFromCounts(counts)
}

func referenceCorrelationRatio(feature, target []float64, bins int) float64 {
	cuts := sortedQuantiles(feature, bins)
	if len(cuts) == 0 {
		return 0
	}
	var code TargetCode
	code.Encode(target)
	tally := make([]int64, (len(cuts)+1)*Tally)
	for i, v := range feature {
		if !math.IsNaN(v) {
			code.Add(tally[SearchCuts(cuts, v)*Tally:], code.Q[i])
		}
	}
	return code.CorrelationRatio(tally)
}

// criteriaScratch holds the scratches one exactness check reuses across
// columns, as a worker does.
type criteriaScratch struct {
	iv   IVScratch
	crit CritScratch
	q    QuantileScratch
}

// checkCriteriaExact compares every criterion kernel with its reference on
// one column, bit for bit (NaN compares equal to NaN: fuzzed targets can
// overflow a moment).
// labels serves the binary criterion as is (> 0.5), the multiclass ones as
// class indices with whatever falls outside [0,k), and η² as the target.
func checkCriteriaExact(t *testing.T, tag string, s *criteriaScratch, feature, labels []float64, bins int) {
	t.Helper()
	same := func(a, b float64) bool { return a == b || (a != a && b != b) }
	if got, want := s.iv.InformationValue(feature, labels, bins), referenceBinaryIV(feature, labels, bins); !same(got, want) {
		t.Fatalf("%s: binary IV %v, reference %v", tag, got, want)
	}
	for _, k := range []int{2, 3, 7} {
		if got, want := s.crit.MulticlassIV(feature, labels, k, bins), referenceMulticlassIV(feature, labels, k, bins); !same(got, want) {
			t.Fatalf("%s: multiclass:%d IV %v, reference %v", tag, k, got, want)
		}
	}
	if got, want := s.crit.CorrelationRatio(feature, labels, bins), referenceCorrelationRatio(feature, labels, bins); !same(got, want) {
		t.Fatalf("%s: correlation ratio %v, reference %v", tag, got, want)
	}
}

// TestCriteriaMatchReference: on every distribution of the quantile table,
// at sizes below, at and far above the sample size, the three criteria equal
// their row-order references exactly. The labels mix valid classes with
// negative, fractional, too-large and NaN ones, whose rows the multiclass
// criterion drops from the counts but not from the ranks.
func TestCriteriaMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	odd := []float64{-1, -0.5, 0.5, 1.5, 7, 8, 1e300, math.NaN(), math.Inf(1)}
	var s criteriaScratch
	for _, g := range columnGens(rng) {
		for _, n := range []int{7, 100, 5000, 20000} {
			feature := g.gen(n)
			labels := make([]float64, n)
			for i := range labels {
				labels[i] = float64(rng.Intn(7))
				if rng.Intn(9) == 0 {
					labels[i] = odd[rng.Intn(len(odd))]
				}
			}
			for _, bins := range []int{2, 10, 64, 255} {
				checkCriteriaExact(t, fmt.Sprintf("%s n=%d bins=%d", g.name, n, bins), &s, feature, labels, bins)
			}
		}
	}
}

// reuseColumns is a sequence of columns that one scratch must cut as a fresh
// one does: long, then short, then middling, so that a per-row buffer left by
// a longer column is read back only if the kernel is at fault; no, some and
// only missing values; ±Inf cells; and a constant column, whose cuts come from
// selection without a grid.
func reuseColumns() [][]float64 {
	rng := rand.New(rand.NewSource(32))
	col := func(n int, nanShare float64, fill func(i int) float64) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			if rng.Float64() < nanShare {
				xs[i] = math.NaN()
			} else {
				xs[i] = fill(i)
			}
		}
		return xs
	}
	normal := func(int) float64 { return rng.NormFloat64() }
	infinite := func(i int) float64 {
		switch i % 41 {
		case 0:
			return math.Inf(1)
		case 1:
			return math.Inf(-1)
		}
		return rng.ExpFloat64()
	}
	return [][]float64{
		col(20000, 0, normal),
		col(37, 0.3, normal),
		col(5000, 1, normal),
		col(20000, 0.3, infinite),
		col(37, 0, infinite),
		col(5000, 0, func(int) float64 { return 2.5 }),
		col(5000, 0.3, normal),
	}
}

// TestScratchReuseMatchesFresh: one IVScratch, one CritScratch and one
// QuantileScratch, fed reuseColumns in turn, return every cut, every bin count
// and every criterion a fresh scratch returns for the same column, bit for
// bit. The kernel records each row's bucket in the scratch in its first scan
// and reads it back in its second; a record left by an earlier, longer column
// must never be read.
func TestScratchReuseMatchesFresh(t *testing.T) {
	var iv IVScratch
	var crit CritScratch
	var q QuantileScratch
	sameInts := func(a, b []int64) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	sameFloats := func(a, b []float64) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				return false
			}
		}
		return true
	}
	for ci, feature := range reuseColumns() {
		labels := make([]float64, len(feature))
		for i := range labels {
			labels[i] = float64((i * 7) % 3)
		}
		for _, bins := range []int{10, 64} {
			tag := fmt.Sprintf("column %d (n=%d) bins=%d", ci, len(feature), bins)
			// The kernel's counters for each of the three codes: binary class
			// counts, multiclass ones and the regression tallies of η².
			for _, code := range []*TargetCode{{Classes: 2, Binary: true}, {Classes: 3}, {}} {
				code.Encode(labels)
				var fresh CritScratch
				gotCuts, gotBins := crit.q.cutsAndCounts(feature, code, bins)
				wantCuts, wantBins := fresh.q.cutsAndCounts(feature, code, bins)
				if !sameFloats(gotCuts, wantCuts) || !sameInts(gotBins, wantBins) {
					t.Fatalf("%s: %d classes: cuts %v counters %v, fresh %v %v", tag, code.Classes, gotCuts, gotBins, wantCuts, wantBins)
				}
			}
			var freshIV IVScratch
			if got, want := iv.InformationValue(feature, labels, bins), freshIV.InformationValue(feature, labels, bins); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s: IV %v, fresh %v", tag, got, want)
			}

			var freshCrit CritScratch
			for _, crits := range [][2]float64{
				{crit.MulticlassIV(feature, labels, 3, bins), freshCrit.MulticlassIV(feature, labels, 3, bins)},
				{crit.CorrelationRatio(feature, labels, bins), freshCrit.CorrelationRatio(feature, labels, bins)},
			} {
				if math.Float64bits(crits[0]) != math.Float64bits(crits[1]) {
					t.Fatalf("%s: criterion %v, fresh %v", tag, crits[0], crits[1])
				}
			}

			var freshQ QuantileScratch
			gotCuts := append([]float64(nil), q.Quantiles(feature, bins)...)
			if wantCuts := freshQ.Quantiles(feature, bins); !sameFloats(gotCuts, wantCuts) {
				t.Fatalf("%s: quantiles %v, fresh %v", tag, gotCuts, wantCuts)
			}
		}
	}
}

// infiniteRangeColumns are columns whose equal-width bin width is not finite:
// an infinite value makes it infinite and (v-lo)/w NaN, whose integer
// conversion indexed out of range. Such a column is binned like a constant
// one.
var infiniteRangeColumns = [][]float64{
	{1, 2, math.Inf(1), 3, math.NaN()},
	{1, 2, math.Inf(-1), 3, math.NaN()},
	{math.Inf(-1), 2, math.Inf(1), 3, 4},
	{-math.MaxFloat64, 2, math.MaxFloat64, 3, 4}, // finite ends, infinite width
}

func TestInformationValueWidthInfiniteRange(t *testing.T) {
	labels := []float64{0, 1, 0, 1, 1}
	for _, col := range infiniteRangeColumns {
		if iv := InformationValueWidth(col, labels, 10); iv != 0 {
			t.Errorf("InformationValueWidth(%v) = %v, want 0", col, iv)
		}
	}
}

func TestEqualWidthBinsInfiniteRange(t *testing.T) {
	for _, col := range infiniteRangeColumns {
		assign, nb := EqualWidthBins(col, 10)
		if nb != 1 {
			t.Errorf("EqualWidthBins(%v): %d bins, want 1", col, nb)
		}
		for i, b := range assign {
			want := 0
			if math.IsNaN(col[i]) {
				want = -1
			}
			if b != want {
				t.Errorf("EqualWidthBins(%v)[%d] = %d, want %d", col, i, b, want)
			}
		}
	}
}

// TestCriteriaMetamorphic pins two properties no reference is needed for.
// Multiplying a column by a power of two is exact in float64 and strictly
// increasing, so it moves no row across a cut: binary IV, multiclass IV (k=3)
// and η² are bit-identical for x, 4x and x/8 — on a normal column, a
// NaN-laced one, a heavy-tailed ratio (the sampled-grid path) and one that is
// 95% a single value (selection without a grid; at 90% a sample's tails often
// still hold a dozen other values, and the grid is laid over those). And flipping binary labels,
// y → 1−y, swaps the good and bad counts of every bin, which IV's symmetric
// form leaves unchanged up to rounding.
//
// The regression criteria are held the same way on the target's side: η² and
// the variance gain ratio (over six quantile cells of the column) are
// bit-identical under y → 2^k·y, which moves every row's code by nothing, and
// within 1e-9 under y → y + c for c up to 1e12 (the target is on a 2^-10
// grid, so that y + c is exact and the shift is the only change); and both
// agree within 1e-9 with an exact math/big computation centred on the exact
// mean.
func TestCriteriaMetamorphic(t *testing.T) {
	const n, bins = 5000, 10
	rng := rand.New(rand.NewSource(38))
	column := func(f func() float64) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = f()
		}
		return xs
	}
	for _, c := range []struct {
		name    string
		xs      []float64
		gridded bool
	}{
		{"normal", column(rng.NormFloat64), true},
		{"nan-laced", column(func() float64 {
			if rng.Intn(4) == 0 {
				return math.NaN()
			}
			return rng.NormFloat64()
		}), true},
		{"ratio", column(func() float64 { return rng.NormFloat64() / rng.NormFloat64() }), true},
		{"mostly-one-value", column(func() float64 {
			if rng.Intn(20) == 0 {
				return rng.NormFloat64()
			}
			return 0
		}), false},
	} {
		// Labels and target follow the column, so every cut matters.
		binary, classes, target := make([]float64, n), make([]float64, n), make([]float64, n)
		for i, x := range c.xs {
			p := 0.5
			if x == x {
				p = 1 / (1 + math.Exp(-x))
			}
			if rng.Float64() < p {
				binary[i] = 1
			}
			classes[i] = math.Min(math.Floor(3*(p+rng.Float64())/2), 2)
			target[i] = math.Round((p+0.1*rng.NormFloat64())*1024) / 1024
		}
		var s criteriaScratch
		criteria := func(xs, labels []float64) [3]float64 {
			return [3]float64{
				s.iv.InformationValue(xs, labels, bins),
				s.crit.MulticlassIV(xs, classes, 3, bins),
				s.crit.CorrelationRatio(xs, target, bins),
			}
		}
		want := criteria(c.xs, binary)
		if _, gridded := new(QuantileScratch).sampleGrid(c.xs, bins); gridded != c.gridded {
			t.Fatalf("%s: gridded %v, want %v: the column misses the path it is here for", c.name, gridded, c.gridded)
		}
		if want[0] == 0 || want[1] == 0 || want[2] == 0 {
			t.Fatalf("%s: a criterion is 0 (%v); the check would be vacuous", c.name, want)
		}
		for _, scale := range []float64{4, 1.0 / 8} {
			scaled := make([]float64, n)
			for i, x := range c.xs {
				scaled[i] = x * scale
			}
			if got := criteria(scaled, binary); got != want {
				t.Errorf("%s ×%g: criteria %v, want %v", c.name, scale, got, want)
			}
		}
		flipped := make([]float64, n)
		for i, y := range binary {
			flipped[i] = 1 - y
		}
		if got := s.iv.InformationValue(c.xs, flipped, bins); math.Abs(got-want[0]) > 1e-12*want[0] {
			t.Errorf("%s: IV %v with flipped labels, want %v", c.name, got, want[0])
		}

		etaParts, etaCells := quantileCells(c.xs, bins)
		cells, nc := quantileCells(c.xs, 6)
		regression := func(y []float64) [2]float64 {
			return [2]float64{s.crit.CorrelationRatio(c.xs, y, bins), VarGainRatio(y, cells, nc)}
		}
		wantReg := regression(target)
		if wantReg[0] == 0 || wantReg[1] == 0 {
			t.Fatalf("%s: a regression criterion is 0 (%v); the check would be vacuous", c.name, wantReg)
		}
		exact := [2]float64{bigCorrelationRatio(target, etaParts, etaCells), bigCorrelationRatio(target, cells, nc) / splitEntropy(cells, nc)}
		for i := range exact {
			if math.Abs(wantReg[i]-exact[i]) > 1e-9 {
				t.Errorf("%s: regression criterion %d is %v, exact %v", c.name, i, wantReg[i], exact[i])
			}
		}
		for _, k := range []int{-600, -3, 5, 600} {
			y := make([]float64, n)
			for i, v := range target {
				y[i] = math.Ldexp(v, k)
			}
			if got := regression(y); got != wantReg {
				t.Errorf("%s: y·2^%d: η² and gain ratio %v, want %v", c.name, k, got, wantReg)
			}
		}
		for _, shift := range []float64{1e4, 1e8, 1e12, -1e12} {
			y := make([]float64, n)
			for i, v := range target {
				y[i] = v + shift
			}
			if got := regression(y); math.Abs(got[0]-wantReg[0]) > 1e-9 || math.Abs(got[1]-wantReg[1]) > 1e-9 {
				t.Errorf("%s: y%+g: η² and gain ratio %v, want %v", c.name, shift, got, wantReg)
			}
		}
	}
}

// quantileCells puts each row of xs in its bin at the column's q-quantile
// cuts (−1 for NaN) and returns how many bins there are.
func quantileCells(xs []float64, q int) ([]int, int) {
	cuts := Quantiles(xs, q)
	parts := make([]int, len(xs))
	for i, x := range xs {
		parts[i] = -1
		if x == x {
			parts[i] = SearchCuts(cuts, x)
		}
	}
	return parts, len(cuts) + 1
}

// splitEntropy is the split entropy of the cells' row counts, as the gain
// ratio divides by it.
func splitEntropy(parts []int, cells int) float64 {
	cnt := make([]float64, cells)
	var n float64
	for _, p := range parts {
		if p >= 0 {
			cnt[p]++
			n++
		}
	}
	split := 0.0
	for _, c := range cnt {
		if c > 0 {
			split -= c / n * math.Log(c/n)
		}
	}
	return split
}

// bigCorrelationRatio is η² of the target over the cells, in exact rational
// arithmetic: SS_between / SS_total, each centred on the exact mean of the
// rows in a cell (part ≥ 0).
func bigCorrelationRatio(target []float64, parts []int, cells int) float64 {
	cnt := make([]int64, cells)
	sums := make([]*big.Rat, cells)
	for p := range sums {
		sums[p] = new(big.Rat)
	}
	total, n := new(big.Rat), int64(0)
	for i, p := range parts {
		if p >= 0 {
			y := new(big.Rat).SetFloat64(target[i])
			sums[p].Add(sums[p], y)
			total.Add(total, y)
			cnt[p]++
			n++
		}
	}
	mean := new(big.Rat).Quo(total, big.NewRat(n, 1))
	sst, d := new(big.Rat), new(big.Rat)
	for i, p := range parts {
		if p >= 0 {
			d.Sub(new(big.Rat).SetFloat64(target[i]), mean)
			sst.Add(sst, d.Mul(d, d))
		}
	}
	ssb := new(big.Rat)
	for p, c := range cnt {
		if c > 0 {
			d.Sub(sums[p], new(big.Rat).Mul(mean, big.NewRat(c, 1)))
			ssb.Add(ssb, d.Quo(d.Mul(d, d), big.NewRat(c, 1)))
		}
	}
	eta, _ := new(big.Rat).Quo(ssb, sst).Float64()
	return eta
}
