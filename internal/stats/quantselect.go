package stats

import (
	"math"
	"sort"
)

// This file implements multi-rank selection: partially sorting a slice so
// that a handful of order statistics land at their final positions, in
// expected O(n log q) instead of the O(n log n) a full sort costs. It is the
// engine behind Quantiles and therefore behind every equal-frequency IV
// computation and GBDT binner build — the former profile leader of Fit.

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

// QuantileScratch reuses working buffers across Quantiles computations so a
// caller binning hundreds of columns allocates O(1) instead of O(columns).
// The zero value is ready to use. Not safe for concurrent use; hot paths
// keep one per worker.
type QuantileScratch struct {
	buf     []float64
	ranks   []int
	cuts    []float64
	vals    []float64
	buckets []int32
	gather  []float64
	slot    []int16
	local   []int
	pos     []int
}

// numBuckets sizes the counting pass of the bucketed rank finder. 1024
// buckets over 10-64 requested quantiles keeps expected per-bucket refine
// sets tiny while the count array still fits in L1.
const numBuckets = 1024

// Quantiles is Quantiles with buffer reuse: the returned slice aliases the
// scratch and is only valid until the next call.
func (s *QuantileScratch) Quantiles(xs []float64, q int) []float64 {
	if q < 2 {
		return nil
	}
	// Pass 1: count non-NaN values and find the finite range.
	n := 0
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range xs {
		if v != v { // NaN
			continue
		}
		n++
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if n == 0 {
		return nil
	}
	// Nearest-rank indices, deduplicated and clamped exactly as the sorted
	// implementation did.
	s.ranks = s.ranks[:0]
	for k := 1; k < q; k++ {
		idx := k * n / q
		if idx >= n {
			idx = n - 1
		}
		if m := len(s.ranks); m == 0 || s.ranks[m-1] != idx {
			s.ranks = append(s.ranks, idx)
		}
	}

	values, ok := s.rankValuesBucketed(xs, s.ranks, lo, hi)
	if !ok {
		values = s.rankValuesSelect(xs, s.ranks)
	}
	s.cuts = s.cuts[:0]
	for _, c := range values {
		if m := len(s.cuts); m == 0 || c != s.cuts[m-1] {
			s.cuts = append(s.cuts, c)
		}
	}
	return s.cuts
}

// rankValuesBucketed finds the requested order statistics with a counting
// pass over equal-width buckets followed by exact selection inside only the
// buckets a rank lands in. It reads xs twice and writes almost nothing, so
// it is ~3× faster than in-place quickselect on the IV hot path. Returns
// ok=false when the value range is unusable (non-finite, or too narrow to
// scale into buckets) and the caller must fall back to rankValuesSelect.
func (s *QuantileScratch) rankValuesBucketed(xs []float64, ranks []int, lo, hi float64) ([]float64, bool) {
	if len(ranks) == 0 {
		return nil, false
	}
	width := hi - lo
	if math.IsInf(lo, 0) || math.IsInf(hi, 0) || math.IsInf(width, 0) {
		return nil, false
	}
	if width <= 0 {
		// Constant column: every order statistic is lo.
		out := s.valuesOut(len(ranks))
		for i := range out {
			out[i] = lo
		}
		return out, true
	}
	if cap(s.buckets) < numBuckets {
		s.buckets = make([]int32, numBuckets)
	}
	counts := s.buckets[:numBuckets]
	for i := range counts {
		counts[i] = 0
	}
	scale := float64(numBuckets) / width
	if math.IsInf(scale, 0) {
		// A subnormal width: lo's own bucket would be 0 × Inf = NaN.
		return nil, false
	}
	// Pass 2: bucket counts.
	for _, v := range xs {
		if v != v {
			continue
		}
		b := int((v - lo) * scale)
		if b >= numBuckets {
			b = numBuckets - 1
		}
		counts[b]++
	}
	// Locate the bucket each rank falls into and rewrite the rank as an
	// offset local to its bucket. Ranks are ascending, so one cumulative
	// scan serves all of them. bucketSlot maps bucket -> need index (-1 for
	// buckets no rank needs); segStart gives each needed bucket a segment
	// of the shared gather buffer.
	type need struct {
		bucket int
		first  int // index into ranks of the first rank in this bucket
		count  int // how many ranks land in this bucket
		start  int // segment start in the gather buffer
		size   int // bucket population
	}
	if cap(s.slot) < numBuckets {
		s.slot = make([]int16, numBuckets)
	}
	slot := s.slot[:numBuckets]
	for i := range slot {
		slot[i] = -1
	}
	if cap(s.local) < len(ranks) {
		s.local = make([]int, len(ranks))
	}
	localRanks := s.local[:len(ranks)]
	var needs []need
	cum, ri, total := 0, 0, 0
	for b := 0; b < numBuckets && ri < len(ranks); b++ {
		c := int(counts[b])
		if c == 0 {
			continue
		}
		first := ri
		for ri < len(ranks) && ranks[ri] < cum+c {
			localRanks[ri] = ranks[ri] - cum
			ri++
		}
		if ri > first {
			slot[b] = int16(len(needs))
			needs = append(needs, need{bucket: b, first: first, count: ri - first, start: total, size: c})
			total += c
		}
		cum += c
	}
	// Pass 3: gather the members of every needed bucket in one sweep.
	if cap(s.gather) < total {
		s.gather = make([]float64, total)
	}
	gather := s.gather[:total]
	if cap(s.pos) < len(needs) {
		s.pos = make([]int, len(needs))
	}
	pos := s.pos[:len(needs)]
	for i, nd := range needs {
		pos[i] = nd.start
	}
	for _, v := range xs {
		if v != v {
			continue
		}
		b := int((v - lo) * scale)
		if b >= numBuckets {
			b = numBuckets - 1
		}
		if sl := slot[b]; sl >= 0 {
			gather[pos[sl]] = v
			pos[sl]++
		}
	}
	// Exact selection inside each needed bucket (typically ~n/numBuckets
	// values each).
	out := s.valuesOut(len(ranks))
	for _, nd := range needs {
		seg := gather[nd.start : nd.start+nd.size]
		local := localRanks[nd.first : nd.first+nd.count]
		selectRanks(seg, local)
		for i := 0; i < nd.count; i++ {
			out[nd.first+i] = seg[local[i]]
		}
	}
	return out, true
}

// rankValuesSelect is the fallback: copy the non-NaN values and run
// multi-rank quickselect in place.
func (s *QuantileScratch) rankValuesSelect(xs []float64, ranks []int) []float64 {
	if cap(s.buf) < len(xs) {
		s.buf = make([]float64, 0, len(xs))
	}
	clean := s.buf[:0]
	for _, v := range xs {
		if v == v { // !IsNaN without the call
			clean = append(clean, v)
		}
	}
	s.buf = clean
	selectRanks(clean, ranks)
	out := s.valuesOut(len(ranks))
	for i, r := range ranks {
		out[i] = clean[r]
	}
	return out
}

// valuesOut returns a scratch-backed result slice for rank values.
func (s *QuantileScratch) valuesOut(n int) []float64 {
	if cap(s.vals) < n {
		s.vals = make([]float64, n)
	}
	return s.vals[:n]
}
