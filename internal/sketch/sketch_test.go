package sketch

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/stats"
)

// ---------- helpers ----------

func randomColumn(n int, seed int64, nanFrac float64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]float64, n)
	for i := range out {
		switch {
		case rng.Float64() < nanFrac:
			out[i] = math.NaN()
		case rng.Float64() < 0.3:
			out[i] = rng.NormFloat64() * 100 // heavy spread
		default:
			out[i] = rng.Float64()
		}
	}
	return out
}

func splitParts(xs []float64, parts int) [][]float64 {
	out := make([][]float64, 0, parts)
	per := (len(xs) + parts - 1) / parts
	for lo := 0; lo < len(xs); lo += per {
		hi := lo + per
		if hi > len(xs) {
			hi = len(xs)
		}
		out = append(out, xs[lo:hi])
	}
	return out
}

// trueRankRange returns [lo,hi): the rank interval the value v occupies in
// the sorted non-NaN values of xs. ok is false when v never occurs.
func trueRankRange(sorted []float64, v float64) (int, int, bool) {
	lo := sort.SearchFloat64s(sorted, v)
	hi := lo
	for hi < len(sorted) && sorted[hi] == v {
		hi++
	}
	return lo, hi, hi > lo
}

func sortedClean(xs []float64) []float64 {
	out := make([]float64, 0, len(xs))
	for _, v := range xs {
		if !math.IsNaN(v) {
			out = append(out, v)
		}
	}
	sort.Float64s(out)
	return out
}

// rankValue returns the summary's value at the given 0-based rank
// (nearest-rank over the non-NaN values), within ErrorBound ranks; ranks
// are clamped to [0, Count-1], and an empty sketch answers NaN.
func rankValue(q *Quantile, rank int64) float64 {
	if q.count == 0 {
		return math.NaN()
	}
	rank = max(0, min(rank, q.count-1))
	pts := q.merged()
	var cum int64
	for _, p := range pts {
		cum += p.w
		if rank < cum {
			return p.v
		}
	}
	return pts[len(pts)-1].v
}

// ---------- Quantile ----------

func TestQuantileLosslessBelowSize(t *testing.T) {
	xs := randomColumn(5000, 1, 0.02)
	q := NewQuantile(8192)
	q.AddAll(xs)
	if q.ErrorBound() != 0 {
		t.Fatalf("sketch over %d < size values should be lossless, bound=%d", len(xs), q.ErrorBound())
	}
	clean := sortedClean(xs)
	if q.Count() != int64(len(clean)) {
		t.Fatalf("count: got %d want %d", q.Count(), len(clean))
	}
	for _, bins := range []int{2, 10, 64} {
		want := stats.Quantiles(xs, bins)
		got := q.Cuts(bins)
		if len(got) != len(want) {
			t.Fatalf("bins=%d: got %d cuts, want %d", bins, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("bins=%d cut %d: got %v want %v", bins, i, got[i], want[i])
			}
		}
	}
	for _, r := range []int64{0, 7, int64(len(clean) / 2), int64(len(clean) - 1)} {
		if got := rankValue(q, r); got != clean[r] {
			t.Fatalf("rank %d: got %v want %v", r, got, clean[r])
		}
	}
}

func TestQuantileExactStatsMatch(t *testing.T) {
	// Min/Max/Count/NaNCount are exact regardless of compaction.
	xs := randomColumn(120000, 2, 0.01)
	q := NewQuantile(1024)
	q.AddAll(xs)
	clean := sortedClean(xs)
	if q.Count() != int64(len(clean)) {
		t.Fatalf("count: got %d want %d", q.Count(), len(clean))
	}
	if q.NaNCount() != int64(len(xs)-len(clean)) {
		t.Fatalf("nan count: got %d want %d", q.NaNCount(), len(xs)-len(clean))
	}
	if q.Min() != clean[0] || q.Max() != clean[len(clean)-1] {
		t.Fatalf("min/max: got %v/%v want %v/%v", q.Min(), q.Max(), clean[0], clean[len(clean)-1])
	}
}

func TestQuantileErrorBoundHolds(t *testing.T) {
	for _, size := range []int{256, 1024, 8192} {
		xs := randomColumn(100000, 3, 0)
		q := NewQuantile(size)
		q.AddAll(xs)
		clean := sortedClean(xs)
		n := int64(len(clean))
		bound := q.ErrorBound()
		if bound <= 0 && size < len(xs) {
			t.Fatalf("size=%d: expected nonzero error bound", size)
		}
		for _, bins := range []int{10, 64} {
			cuts := q.Cuts(bins)
			targets := make([]int64, 0, bins-1)
			for k := 1; k < bins; k++ {
				targets = append(targets, int64(k)*n/int64(bins))
			}
			ci := 0
			for _, r := range targets {
				if ci >= len(cuts) {
					break
				}
				v := rankValue(q, r)
				lo, hi, ok := trueRankRange(clean, v)
				if !ok {
					t.Fatalf("size=%d: returned value %v not in data", size, v)
				}
				if int64(hi) <= r-bound || int64(lo) >= r+bound+1 {
					t.Fatalf("size=%d bins=%d: rank %d estimate %v has true rank [%d,%d), outside ±%d",
						size, bins, r, v, lo, hi, bound)
				}
				ci++
			}
		}
	}
}

func TestQuantileMergeOrderInvariantWithinBound(t *testing.T) {
	xs := randomColumn(60000, 4, 0.01)
	parts := splitParts(xs, 7)
	build := func(order []int) *Quantile {
		q := NewQuantile(1024)
		for _, p := range order {
			s := NewQuantile(1024)
			s.AddAll(parts[p])
			q.Merge(s)
		}
		return q
	}
	orders := [][]int{
		{0, 1, 2, 3, 4, 5, 6},
		{6, 5, 4, 3, 2, 1, 0},
		{3, 0, 6, 1, 5, 2, 4},
	}
	clean := sortedClean(xs)
	n := int64(len(clean))
	var sketches []*Quantile
	for _, o := range orders {
		sketches = append(sketches, build(o))
	}
	for i, q := range sketches {
		// Exact statistics must be bit-identical across merge orders.
		if q.Count() != sketches[0].Count() || q.NaNCount() != sketches[0].NaNCount() ||
			q.Min() != sketches[0].Min() || q.Max() != sketches[0].Max() {
			t.Fatalf("order %d: exact stats differ across merge orders", i)
		}
		// Rank estimates stay within the tracked bound of the true ranks.
		bound := q.ErrorBound()
		for _, frac := range []float64{0.1, 0.25, 0.5, 0.75, 0.9} {
			r := int64(frac * float64(n))
			v := rankValue(q, r)
			lo, hi, ok := trueRankRange(clean, v)
			if !ok {
				t.Fatalf("order %d: estimate %v not a data value", i, v)
			}
			if int64(hi) <= r-bound || int64(lo) >= r+bound+1 {
				t.Fatalf("order %d: rank %d estimate %v true rank [%d,%d) outside ±%d",
					i, r, v, lo, hi, bound)
			}
		}
	}
}

func TestQuantileConstantColumn(t *testing.T) {
	q := NewQuantile(64)
	vs := make([]float64, 1000)
	for i := range vs {
		vs[i] = 7.5
	}
	q.AddAll(vs[:500])
	q.AddAll(vs[500:])
	cuts := q.Cuts(10)
	if len(cuts) != 1 || cuts[0] != 7.5 {
		t.Fatalf("constant column cuts: got %v want [7.5]", cuts)
	}
	if got := q.BinnerCuts(64); len(got) != 0 {
		t.Fatalf("constant column binner cuts: got %v want empty", got)
	}
}

func TestQuantileEmptyAndAllNaN(t *testing.T) {
	q := NewQuantile(0)
	if got := q.Cuts(10); got != nil {
		t.Fatalf("empty sketch cuts: got %v", got)
	}
	q.AddAll([]float64{math.NaN()})
	if q.Count() != 0 || q.NaNCount() != 1 {
		t.Fatalf("NaN handling: count=%d nan=%d", q.Count(), q.NaNCount())
	}
	if got := q.Cuts(10); got != nil {
		t.Fatalf("all-NaN sketch cuts: got %v", got)
	}
	if !math.IsNaN(rankValue(q, 0)) {
		t.Fatalf("all-NaN rankValue should be NaN")
	}
}

// ---------- Moments ----------

func TestMomentsMergeMatchesSinglePass(t *testing.T) {
	xs := randomColumn(30000, 10, 0.03)
	var single Moments
	single.AddAll(xs)

	parts := splitParts(xs, 8)
	for _, order := range [][]int{{0, 1, 2, 3, 4, 5, 6, 7}, {7, 3, 5, 1, 6, 0, 2, 4}} {
		var merged Moments
		for _, p := range order {
			var m Moments
			m.AddAll(parts[p])
			merged.Merge(&m)
		}
		if merged.N != single.N || merged.Rows != single.Rows || merged.NaNs != single.NaNs {
			t.Fatalf("order %v: exact counts differ", order)
		}
		if relDiff(merged.Mean, single.Mean) > 1e-9 {
			t.Fatalf("order %v: mean %v vs %v", order, merged.Mean, single.Mean)
		}
		if relDiff(merged.Variance(), single.Variance()) > 1e-9 {
			t.Fatalf("order %v: variance %v vs %v", order, merged.Variance(), single.Variance())
		}
	}
	// Against the stats package's two-pass form, which skips the NaNs.
	mean, std, _ := stats.MeanStd(xs)
	if relDiff(single.Mean, mean) > 1e-9 {
		t.Fatalf("mean vs stats.MeanStd: %v vs %v", single.Mean, mean)
	}
	if relDiff(single.Variance(), std*std) > 1e-9 {
		t.Fatalf("variance vs stats.MeanStd: %v vs %v", single.Variance(), std*std)
	}
}

func relDiff(a, b float64) float64 {
	d := math.Abs(a - b)
	scale := math.Max(math.Abs(a), math.Abs(b))
	if scale < 1 {
		return d
	}
	return d / scale
}

// ---------- Gram ----------

// refStandardize mirrors core's standardizeCol: (x-mean)/std over non-NaN
// values, NaNs mapped to 0, nil for constant columns.
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
	std := math.Sqrt(ss / float64(n))
	if std < 1e-12 {
		return nil
	}
	out := make([]float64, len(col))
	for i, v := range col {
		if math.IsNaN(v) {
			out[i] = 0
			continue
		}
		out[i] = (v - mean) / std
	}
	return out
}

func TestGramDotMatchesStandardisedDot(t *testing.T) {
	k, n := 6, 8000
	cols := make([][]float64, k)
	for j := range cols {
		nan := 0.0
		if j%2 == 1 {
			nan = 0.05
		}
		cols[j] = randomColumn(n, int64(20+j), nan)
	}
	// Correlate column 3 with column 0.
	for i := range cols[3] {
		if !math.IsNaN(cols[0][i]) && !math.IsNaN(cols[3][i]) {
			cols[3][i] = cols[0][i]*2 + 0.01*cols[3][i]
		}
	}

	chunkCols := func(lo, hi int) [][]float64 {
		out := make([][]float64, k)
		for j := range out {
			out[j] = cols[j][lo:hi]
		}
		return out
	}
	g1 := NewGram(k)
	g1.AddChunk(chunkCols(0, n))

	// Chunked + merged in a different grouping.
	g2 := NewGram(k)
	for lo := 0; lo < n; lo += 1713 {
		hi := lo + 1713
		if hi > n {
			hi = n
		}
		part := NewGram(k)
		part.AddChunk(chunkCols(lo, hi))
		g2.Merge(part)
	}

	var moms []Moments
	for j := range cols {
		var m Moments
		m.AddAll(cols[j])
		moms = append(moms, m)
	}
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			si, sj := refStandardize(cols[i]), refStandardize(cols[j])
			if si == nil || sj == nil {
				continue
			}
			var want float64
			for r := 0; r < n; r++ {
				want += si[r] * sj[r]
			}
			got1 := g1.Dot(i, j, moms[i].Mean, moms[i].Std(), moms[j].Mean, moms[j].Std())
			got2 := g2.Dot(i, j, moms[i].Mean, moms[i].Std(), moms[j].Mean, moms[j].Std())
			if math.Abs(got1-want) > 1e-6*float64(n) {
				t.Fatalf("pair (%d,%d): single-chunk dot %v vs reference %v", i, j, got1, want)
			}
			if math.Abs(got2-got1) > 1e-6*float64(n) {
				t.Fatalf("pair (%d,%d): merged dot %v vs single-chunk %v", i, j, got2, got1)
			}
		}
	}
	// The engineered correlation must read as such.
	dot := g1.Dot(0, 3, moms[0].Mean, moms[0].Std(), moms[3].Mean, moms[3].Std())
	if dot/float64(g1.Rows()) < 0.9 {
		t.Fatalf("engineered correlation lost: normalised dot %v", dot/float64(g1.Rows()))
	}
}
