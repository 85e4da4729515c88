package stats

import (
	"math"
	"sort"
)

// This file implements exact multi-rank selection — the engine behind
// Quantiles and therefore behind every equal-frequency criterion, the GBDT
// binner and the discretising operators — in two layers.
//
// selectRanks partially sorts a slice so that a handful of order statistics
// land at their final positions, in expected O(n log q) instead of the
// O(n log n) of a full sort.
//
// QuantileScratch avoids running it over the column at all. It lays a grid
// of numBuckets equal-width buckets over a range read from a small strided
// sample (the order statistics that bracket the outermost cuts), with the
// first and last bucket catching everything beyond that range. The bucket
// index is a monotone non-decreasing function of the value, and nothing else
// is needed for exactness: cumulative bucket counts say which bucket holds
// each target rank, selection inside those few buckets returns the exact
// order statistics, a row in any other bucket has its bin decided by its
// bucket alone, and a row in a cut bucket is compared with the cuts. The
// sample only decides how evenly the buckets fill; a bad one makes an end
// bucket's selection larger, never the answer different. A column costs two
// scans whatever its tails, and each value is bucketed once: the first
// (Grid.BucketRows) records every row's bucket for the second
// (GatherPlan.File), which files the cut buckets' members. The out-of-core
// gather pass runs the same two scans on each chunk. A grid over [min, max]
// instead collapses a heavy-tailed column (a ratio) into one or two buckets
// and with it the finder into a quickselect over the whole column. A column
// whose sample has no usable range (constant, one-value-dominated,
// non-finite) is cut on the zero Grid, one bucket that holds it whole: the
// same two scans, and selection over every non-NaN value.

// selectRanks partially sorts xs in place so that xs[r] holds the r-th
// smallest element for every r in ranks. ranks must be sorted ascending,
// in-range and deduplicated. xs must not contain NaN.
func selectRanks(xs []float64, ranks []int) {
	if len(ranks) == 0 || len(xs) == 0 {
		return
	}
	// Depth limit: introsort-style safety net against adversarial pivot
	// behaviour; beyond it the remaining range is fully sorted.
	limit := 2 * intLog2(len(xs))
	selectRanksRange(xs, 0, len(xs), ranks, limit)
}

func intLog2(n int) int {
	l := 0
	for n > 1 {
		l++
		n >>= 1
	}
	return l
}

// selectRanksRange places every rank in [lo,hi). Iterative on the larger
// side, recursive on the smaller, so stack depth stays O(log n).
func selectRanksRange(xs []float64, lo, hi int, ranks []int, limit int) {
	for len(ranks) > 0 && hi-lo > 1 {
		if hi-lo <= 24 || limit <= 0 {
			insertionSortFloats(xs[lo:hi])
			return
		}
		limit--
		a, b := partition3(xs, lo, hi)
		// Ranks inside [a,b) already sit on the pivot run; split the rest.
		cut1 := sort.SearchInts(ranks, a)
		cut2 := sort.SearchInts(ranks, b)
		left, right := ranks[:cut1], ranks[cut2:]
		// Recurse into the smaller side, iterate on the larger.
		if a-lo <= hi-b {
			selectRanksRange(xs, lo, a, left, limit)
			lo, ranks = b, right
		} else {
			selectRanksRange(xs, b, hi, right, limit)
			hi, ranks = a, left
		}
	}
}

// partition3 performs a three-way (Dutch national flag) partition of
// xs[lo:hi) around a median-of-three pivot, returning [a,b) such that
// xs[lo:a] < pivot, xs[a:b] == pivot and xs[b:hi] > pivot. The equal run
// keeps duplicate-heavy columns (constant features, discretised values) from
// degrading selection to quadratic time.
func partition3(xs []float64, lo, hi int) (int, int) {
	mid := lo + (hi-lo)/2
	// Median of three: order xs[lo], xs[mid], xs[hi-1].
	if xs[mid] < xs[lo] {
		xs[mid], xs[lo] = xs[lo], xs[mid]
	}
	if xs[hi-1] < xs[mid] {
		xs[hi-1], xs[mid] = xs[mid], xs[hi-1]
		if xs[mid] < xs[lo] {
			xs[mid], xs[lo] = xs[lo], xs[mid]
		}
	}
	pivot := xs[mid]

	a, i, b := lo, lo, hi
	for i < b {
		switch {
		case xs[i] < pivot:
			xs[i], xs[a] = xs[a], xs[i]
			a++
			i++
		case xs[i] > pivot:
			b--
			xs[i], xs[b] = xs[b], xs[i]
		default:
			i++
		}
	}
	return a, b
}

func insertionSortFloats(xs []float64) {
	for i := 1; i < len(xs); i++ {
		v := xs[i]
		j := i - 1
		for j >= 0 && xs[j] > v {
			xs[j+1] = xs[j]
			j--
		}
		xs[j+1] = v
	}
}

// SearchCuts returns the first index j with cuts[j] >= v — the bin index
// under the (cuts[j-1], cuts[j]] convention shared by Digitize and the GBDT
// binner. It is a manual binary search: the closure-free inner loop is ~3×
// faster than sort.SearchFloat64s on the Fit hot path, where it runs once
// per (row, candidate feature).
func SearchCuts(cuts []float64, v float64) int {
	lo, hi := 0, len(cuts)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if cuts[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// NumBuckets is the grid size and SampleSize the number of values the grid's
// range is read from. Measured on 20k-row columns (BenchmarkCriterion and
// docs/performance.md, PR 18): 1,024 buckets put ~20 rows in a bucket, so the
// gathered set of a 10-bin criterion is ~1% of the column, while the binary
// criterion's count table (3 × 1,024 int32) is 12 KB and stays in L1; 256
// samples cost ~1% of a 20k-row scan and bound the share of rows outside the
// sampled range well below a bin's at every q in use (10, 64, 255), so the
// catch-all end buckets rarely hold a cut. With both, sum, product and ratio
// columns read the same ns/row; a grid over [min, max] read the ratio at 4×.
// The out-of-core engine (internal/shard) cuts its generated columns on the
// same grid, laid over its resident row sample of the same size.
const (
	NumBuckets = 1024
	SampleSize = 256
)

// Grid maps values to NumBuckets equal-width buckets over [Lo, Lo +
// NumBuckets/Scale), clamping what lies outside into the end buckets.
// SampleGrid lays one; the zero Grid is no grid (Valid is false).
type Grid struct {
	Lo, Scale float64
}

// Valid reports whether Bucket is defined for g: a finite Lo and a finite,
// positive Scale, as SampleGrid returns. A grid that arrived from elsewhere
// is held to it before any value is bucketed on it.
func (g Grid) Valid() bool {
	return g.Scale > 0 && !math.IsInf(g.Scale, 1) && g.Lo-g.Lo == 0
}

// Bucket returns the bucket of a non-NaN value. The clamp happens in the
// float domain: Go leaves an out-of-range float→int conversion to the
// implementation, and ±Inf (legal in a raw base column) must land in an end
// bucket. Subtraction, multiplication by a positive scale, clamping and
// truncation are each monotone, so v ≤ w implies Bucket(v) ≤ Bucket(w). The
// clamp is two plain comparisons, not the float min and max builtins, whose
// NaN and signed-zero rules cost branches on every value and change no
// bucket: -0 truncates to 0 as +0 does, and a NaN passes either way.
func (g Grid) Bucket(v float64) int {
	x := (v - g.Lo) * g.Scale
	if x < 0 {
		x = 0
	}
	if x > NumBuckets-1 {
		x = NumBuckets - 1
	}
	return int(x)
}

// Buckets is how many buckets g has: NumBuckets, or the zero Grid's one.
func (g Grid) Buckets() int {
	if g == (Grid{}) {
		return 1
	}
	return NumBuckets
}

// Count adds the non-NaN values of xs to cnt[bucket] (NumBuckets counters),
// returning how many — the out-of-core count pass's scan, which records
// nothing per row.
func (g Grid) Count(cnt []int32, xs []float64) (n int) {
	cnt = cnt[:NumBuckets]
	for _, v := range xs {
		if v != v {
			continue
		}
		n++
		cnt[g.Bucket(v)]++
	}
	return n
}

// BucketRows is the grid kernel's first scan, in both engines (in memory
// QuantileScratch.cutsAndCounts, out of core the gather pass on each chunk;
// GatherPlan.File is the second): it records each row's bucket on g in rowB
// (len(xs) entries; −1 for NaN, and the zero Grid's one bucket is 0) and adds
// the row's code to that bucket's counters, cnt[b·W:] (zeroed, W a bucket;
// TargetCode.AddRow, where a nil code counts rows), returning the non-NaN
// rows. The counters spread over the whole grid, so that consecutive values
// rarely wait on one another's increment.
func (g Grid) BucketRows(rowB []int16, cnt []int64, xs []float64, code *TargetCode) (n int) {
	w := code.width()
	gridded := g != (Grid{})
	for i, v := range xs {
		if v != v {
			rowB[i] = -1
			continue
		}
		b := 0
		if gridded {
			b = g.Bucket(v)
		}
		rowB[i] = int16(b)
		code.AddRow(cnt[b*w:], i)
		n++
	}
	return n
}

// GatherPlan is what the second scan looks a bucket up in, laid once per
// column from its cut buckets: slot[b] is bucket b's index among them (−1:
// not one), span[b] the run of buckets between criterion cut buckets that b
// lies in (−1: a criterion cut bucket itself). Spans is how many runs there
// are, one more than the criterion cut buckets. A laid plan is only read, so
// goroutines may share it.
type GatherPlan struct {
	slot, span []int16
	Spans      int
}

// Reset lays the plan for a grid of nb buckets whose cut buckets are
// buckets, ascending and inside the grid, crit[j] marking those that hold a
// criterion cut (CutTable.Buckets and Crit), reusing its backings.
func (p *GatherPlan) Reset(nb int, buckets []int, crit []bool) {
	p.slot, p.span = grown(p.slot, nb), grown(p.span, nb)
	p.Spans = 0
	j := 0
	for b := range p.slot {
		p.slot[b], p.span[b] = -1, int16(p.Spans)
		if j < len(buckets) && buckets[j] == b {
			p.slot[b] = int16(j)
			if crit[j] {
				p.span[b] = -1
				p.Spans++
			}
			j++
		}
	}
	p.Spans++
}

// SpanTallies sets spans (Spans·w counters) to the sums of the per-bucket
// counters cnt (w a bucket) over each run of buckets between criterion cut
// buckets.
func (p *GatherPlan) SpanTallies(spans, cnt []int64, w int) {
	clear(spans)
	for b, sp := range p.span {
		if sp >= 0 {
			dst := spans[int(sp)*w:][:w]
			for c, v := range cnt[b*w:][:w] {
				dst[c] += v
			}
		}
	}
}

// File is the second scan: by the buckets BucketRows recorded for xs (rowB),
// it files each member of cut bucket j at vals[vpos[j]] and, when cpos[j] is
// not −1, its code q[i] at codes[cpos[j]], advancing the cursors.
func (p *GatherPlan) File(vals []float64, codes []int64, vpos, cpos []int, rowB []int16, xs []float64, q []int64) {
	// The table and xs's length are read once: inlined into a caller with
	// many live slices, the loop otherwise reloads p.slot and checks xs's
	// bounds on every row, ~5% of the gather kernel.
	slot, xs := p.slot, xs[:len(rowB)]
	for i, b := range rowB {
		if b < 0 {
			continue
		}
		sl := slot[b]
		if sl < 0 {
			continue
		}
		vals[vpos[sl]] = xs[i]
		vpos[sl]++
		if at := cpos[sl]; at >= 0 {
			codes[at] = q[i]
			cpos[sl]++
		}
	}
}

// QuantileScratch reuses working buffers across Quantiles computations so a
// caller binning hundreds of columns allocates O(1) instead of O(columns).
// The zero value is ready to use. Not safe for concurrent use; hot paths
// keep one per worker.
type QuantileScratch struct {
	cuts   []float64 // the deduplicated cuts the last call returned
	sample []float64 // the grid's sample
	// rowB holds each row's bucket, −1 for NaN, for the column being cut: the
	// first scan writes every entry below len(xs) and only those are read, so
	// a longer earlier column leaves nothing that is used.
	rowB   []int16
	counts []int64 // a bucket's W counters, bucket by bucket
	sizes  []int32 // each bucket's rows
	table  CutTable
	plan   GatherPlan
	pos    []int // the filing cursors (members, codes)
}

// Quantiles is Quantiles with buffer reuse: the returned slice aliases the
// scratch and is only valid until the next call.
func (s *QuantileScratch) Quantiles(xs []float64, q int) []float64 {
	cuts, _ := s.cutsAndCounts(xs, nil, q)
	return cuts
}

// cutsAndCounts is the kernel behind Quantiles and every criterion. It
// returns the deduplicated nearest-rank q-quantile cuts of xs (nil when q < 2
// or xs has no non-NaN value) and, when code is non-nil, the counters of the
// bins those cuts delimit: bins[b·W:] holds what the non-NaN rows of bin b
// add (TargetCode.AddRow), xs and the code's rows row for row. It is the
// out-of-core gather kernel's composition on one resident column: the two
// scans (Grid.BucketRows, GatherPlan.File), between them the cut table laid
// at the one bin count q, then the table resolved. With a code, q is the
// criterion's count, so every cut bucket carries its members' codes. A
// column without a usable sampled range is cut on the zero Grid, whose one
// bucket holds it whole, as out of core. Both results alias the scratch.
func (s *QuantileScratch) cutsAndCounts(xs []float64, code *TargetCode, q int) ([]float64, []int64) {
	s.cuts = s.cuts[:0]
	if q < 2 {
		return nil, nil
	}
	w := code.width()
	g, _ := s.sampleGrid(xs, q)
	nb := g.Buckets()

	s.counts = zeroed(s.counts, nb*w)
	s.rowB = grown(s.rowB, len(xs))
	n := g.BucketRows(s.rowB, s.counts, xs, code)
	if n == 0 {
		return nil, nil
	}
	s.sizes = grown(s.sizes, nb)
	for b := range s.sizes {
		s.sizes[b] = int32(code.Rows(s.counts[b*w : (b+1)*w]))
	}
	t := &s.table
	t.Lay(s.sizes, n, code, q)
	s.plan.Reset(nb, t.Buckets, t.Crit)
	s.pos = grown(s.pos, 2*len(t.Buckets))
	vpos, cpos := s.pos[:len(t.Buckets)], s.pos[len(t.Buckets):]
	for j := range t.Buckets {
		vpos[j], _, cpos[j] = t.Seg(j)
	}
	var qs []int64
	if code != nil {
		qs = code.Q
		s.plan.SpanTallies(t.Spans, s.counts, w)
	}
	s.plan.File(t.Vals, t.Codes, vpos, cpos, s.rowB, xs, qs)
	bins := t.Resolve(code)
	s.cuts = t.AppendCuts(s.cuts, q)
	return s.cuts, bins
}

// sampleGrid lays the grid over a strided sample of xs: at most SampleSize
// non-NaN values at a fixed stride (no RNG, so a column always gets the same
// grid). ok is false, and the grid the zero Grid, when the sample has no
// usable range (see SampleGrid).
func (s *QuantileScratch) sampleGrid(xs []float64, q int) (Grid, bool) {
	stride := len(xs) / SampleSize
	if stride < 1 {
		stride = 1
	}
	s.sample = grown(s.sample, SampleSize)
	sample := s.sample[:0]
	for i := 0; i < len(xs) && len(sample) < SampleSize; i += stride {
		if v := xs[i]; v == v {
			sample = append(sample, v)
		}
	}
	return SampleGrid(sample, q)
}

// SampleGrid lays the grid over the range of a sample of a column's non-NaN
// values for a q-bin cut, bracketed at the sample's order statistics half a
// bin in from each end — beyond the outermost cuts, so the catch-all end
// buckets stay clean, but inside the tails. It permutes sample. ok is false,
// and g the zero Grid, whose one bucket holds the whole column, when the
// range is unusable: fewer than two samples, a zero width (a constant or
// one-value-dominated column), a non-finite end or width, or a width so small
// that the scale overflows. The sample only decides how evenly the buckets
// fill, never which cuts come out.
func SampleGrid(sample []float64, q int) (g Grid, ok bool) {
	m := len(sample)
	if m < 2 || q < 1 {
		return g, false
	}
	r := m / q / 2
	selectRanks(sample, []int{r, m - 1 - r})
	lo, hi := sample[r], sample[m-1-r]
	width := hi - lo
	if !(width > 0) || math.IsInf(width, 0) {
		return g, false
	}
	scale := NumBuckets / width
	if math.IsInf(scale, 0) {
		// A subnormal width: lo's own bucket would be 0 × Inf = NaN.
		return g, false
	}
	return Grid{Lo: lo, Scale: scale}, true
}

// grown returns buf resliced to n elements, reallocated when its capacity
// is short. The contents are unspecified.
func grown[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// zeroed is grown with every counter cleared.
func zeroed(buf []int64, n int) []int64 {
	buf = grown(buf, n)
	for i := range buf {
		buf[i] = 0
	}
	return buf
}
