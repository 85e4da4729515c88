package stats

import (
	"fmt"
	"math"
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
	full := make([]float64, cells*k)
	partA := make([]float64, cells*k)
	partB := make([]float64, cells*k)
	for i := range full {
		a, b := float64(rng.Intn(50)), float64(rng.Intn(50))
		partA[i], partB[i] = a, b
		full[i] = a + b
	}
	merged := make([]float64, cells*k)
	for i := range merged {
		merged[i] = partA[i] + partB[i]
	}
	if got, want := GainRatioFromClassCounts(merged, cells, k), GainRatioFromClassCounts(full, cells, k); got != want {
		t.Fatalf("class-count merge changed the gain ratio: %g vs %g", got, want)
	}

	cnt := []float64{10, 20, 30}
	sum := []float64{1.5, -2.25, 4.75}
	sumsq := []float64{12.5, 8.25, 20.125}
	halfCnt := []float64{5, 10, 15}
	halfSum := []float64{0.75, -1.125, 2.375}
	halfSq := []float64{6.25, 4.125, 10.0625}
	mergedCnt := make([]float64, 3)
	mergedSum := make([]float64, 3)
	mergedSq := make([]float64, 3)
	for i := 0; i < 3; i++ {
		mergedCnt[i] = halfCnt[i] + halfCnt[i]
		mergedSum[i] = halfSum[i] + halfSum[i]
		mergedSq[i] = halfSq[i] + halfSq[i]
	}
	if got, want := CorrelationRatioFromMoments(mergedCnt, mergedSum, mergedSq), CorrelationRatioFromMoments(cnt, sum, sumsq); got != want {
		t.Fatalf("moment merge changed η²: %g vs %g", got, want)
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
// counts and moments accumulated in row order — what the criteria computed
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
	cnt, sum, sumsq := make([]float64, len(cuts)+1), make([]float64, len(cuts)+1), make([]float64, len(cuts)+1)
	for i, v := range feature {
		if math.IsNaN(v) {
			continue
		}
		b := SearchCuts(cuts, v)
		cnt[b]++
		sum[b] += target[i]
		sumsq[b] += target[i] * target[i]
	}
	return CorrelationRatioFromMoments(cnt, sum, sumsq)
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
// overflow a moment), and Bin with SearchCuts on every value of the column.
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
	cuts := s.q.Quantiles(feature, bins)
	for i, v := range feature {
		if v != v {
			continue
		}
		if got, want := s.q.Bin(v), SearchCuts(cuts, v); got != want {
			t.Fatalf("%s: Bin(feature[%d]=%v) = %d, SearchCuts %d", tag, i, v, got, want)
		}
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
