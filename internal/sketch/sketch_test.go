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
		if got := q.RankValue(r); got != clean[r] {
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
				v := q.RankValue(r)
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
			v := q.RankValue(r)
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
	for i := 0; i < 1000; i++ {
		q.Add(7.5)
	}
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
	q.Add(math.NaN())
	if q.Count() != 0 || q.NaNCount() != 1 {
		t.Fatalf("NaN handling: count=%d nan=%d", q.Count(), q.NaNCount())
	}
	if got := q.Cuts(10); got != nil {
		t.Fatalf("all-NaN sketch cuts: got %v", got)
	}
	if !math.IsNaN(q.RankValue(0)) {
		t.Fatalf("all-NaN RankValue should be NaN")
	}
}

// ---------- LabelHist ----------

func TestLabelHistMergeExactAndIVMatches(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := 20000
	xs := randomColumn(n, 6, 0.02)
	labels := make([]float64, n)
	for i := range labels {
		if rng.Float64() < 0.3+0.2*math.Tanh(xs[i]) {
			labels[i] = 1
		}
	}
	// Cuts from the exact quantiles, exactly as stats.InformationValue bins.
	cuts := stats.Quantiles(xs, 10)

	single := NewLabelHist(cuts)
	single.AddCol(xs, labels)

	parts := splitParts(xs, 5)
	lparts := splitParts(labels, 5)
	for _, order := range [][]int{{0, 1, 2, 3, 4}, {4, 2, 0, 3, 1}} {
		merged := NewLabelHist(cuts)
		for _, p := range order {
			h := NewLabelHist(cuts)
			h.AddCol(parts[p], lparts[p])
			if err := merged.Merge(h); err != nil {
				t.Fatal(err)
			}
		}
		mp, mn := merged.Counts()
		sp, sn := single.Counts()
		for b := range sp {
			if mp[b] != sp[b] || mn[b] != sn[b] {
				t.Fatalf("order %v bin %d: merged counts (%v,%v) != single (%v,%v)",
					order, b, mp[b], mn[b], sp[b], sn[b])
			}
		}
		want := stats.InformationValue(xs, labels, 10)
		if got := merged.IV(); got != want {
			t.Fatalf("order %v: IV %v != exact %v", order, got, want)
		}
	}
}

func TestLabelHistShardedIVWithinSketchTolerance(t *testing.T) {
	// End-to-end sharded IV: cuts from a merged quantile sketch, counts from
	// merged label histograms, compared against the exact single-pass IV.
	rng := rand.New(rand.NewSource(7))
	n := 50000
	xs := randomColumn(n, 8, 0.01)
	labels := make([]float64, n)
	for i := range labels {
		if rng.Float64() < 0.3+0.2*math.Tanh(xs[i]/2) {
			labels[i] = 1
		}
	}
	parts := splitParts(xs, 6)
	lparts := splitParts(labels, 6)

	qs := NewQuantile(2048)
	for _, p := range parts {
		s := NewQuantile(2048)
		s.AddAll(p)
		qs.Merge(s)
	}
	cuts := qs.Cuts(10)
	merged := NewLabelHist(cuts)
	for i, p := range parts {
		h := NewLabelHist(cuts)
		h.AddCol(p, lparts[i])
		if err := merged.Merge(h); err != nil {
			t.Fatal(err)
		}
	}
	got := merged.IV()
	want := stats.InformationValue(xs, labels, 10)
	// The only difference is cut placement, off by at most ErrorBound ranks
	// per cut; for 10 equal-frequency bins over n rows the IV moves by a
	// vanishing amount. 2% absolute is a loose ceiling for this workload.
	if math.Abs(got-want) > 0.02 {
		t.Fatalf("sharded IV %v vs exact %v differ beyond tolerance (bound %d ranks of %d)",
			got, want, qs.ErrorBound(), n)
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
	// Against the stats package on the NaN-free values.
	clean := make([]float64, 0, len(xs))
	for _, v := range xs {
		if !math.IsNaN(v) {
			clean = append(clean, v)
		}
	}
	if relDiff(single.Mean, stats.Mean(clean)) > 1e-9 {
		t.Fatalf("mean vs stats.Mean: %v vs %v", single.Mean, stats.Mean(clean))
	}
	if relDiff(single.Variance(), stats.Variance(clean)) > 1e-9 {
		t.Fatalf("variance vs stats.Variance: %v vs %v", single.Variance(), stats.Variance(clean))
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
