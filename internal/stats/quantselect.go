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
// scans (count, gather) whatever its tails — a grid over [min, max] instead
// collapses a heavy-tailed column (a ratio) into one or two buckets and with
// it the finder into a quickselect over the whole column.

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

// numBuckets is the grid size and sampleSize the number of values the grid's
// range is read from. Measured on 20k-row columns (BenchmarkCriterion and
// docs/performance.md, PR 18): 1,024 buckets put ~20 rows in a bucket, so the
// gathered set of a 10-bin criterion is ~1% of the column, while the binary
// criterion's count table (3 × 1,024 int32) is 12 KB and stays in L1; 256
// samples cost ~1% of a 20k-row scan and bound the share of rows outside the
// sampled range well below a bin's at every q in use (10, 64, 255), so the
// catch-all end buckets rarely hold a cut. With both, sum, product and ratio
// columns read the same ns/row; a grid over [min, max] read the ratio at 4×.
const (
	numBuckets = 1024
	sampleSize = 256
)

// bucketGrid maps values to numBuckets equal-width buckets over [lo, lo +
// numBuckets/scale), clamping what lies outside into the end buckets.
type bucketGrid struct {
	lo, scale float64
}

// bucket returns the bucket of a non-NaN value. The clamp happens in the
// float domain: Go leaves an out-of-range float→int conversion to the
// implementation, and ±Inf (legal in a raw base column) must land in an end
// bucket. Subtraction, multiplication by a positive scale, clamping and
// truncation are each monotone, so v ≤ w implies bucket(v) ≤ bucket(w).
func (g bucketGrid) bucket(v float64) int {
	return int(max(0, min((v-g.lo)*g.scale, numBuckets-1)))
}

// count adds the non-NaN values of xs to cnt[bucket], returning how many.
func (g bucketGrid) count(cnt []int32, xs []float64) (n int) {
	for _, v := range xs {
		if v != v {
			continue
		}
		n++
		cnt[g.bucket(v)]++
	}
	return n
}

// binaryClasses is k of the binary criterion's count table: negative,
// positive, and — as for any k — an out-of-range column, here never used.
const binaryClasses = 2

// countBinary is count into cnt[(binaryClasses+1)*bucket + class], the class
// a branch-free 0/1 (labels are as good as random to a branch predictor).
func (g bucketGrid) countBinary(cnt []int32, xs, labels []float64) (n int) {
	labels = labels[:len(xs)]
	for i, v := range xs {
		if v != v {
			continue
		}
		n++
		c := 0
		if labels[i] > 0.5 {
			c = 1
		}
		cnt[g.bucket(v)*(binaryClasses+1)+c]++
	}
	return n
}

// countClasses is count into cnt[(k+1)*bucket + class].
func (g bucketGrid) countClasses(cnt []int32, xs, labels []float64, k int) (n int) {
	labels = labels[:len(xs)]
	for i, v := range xs {
		if v != v {
			continue
		}
		n++
		cnt[g.bucket(v)*(k+1)+classIndex(labels[i], k)]++
	}
	return n
}

// gather copies the members of the cut buckets (slot[bucket] >= 0) to their
// bucket's segment of dst, pos[slot] being the segment's write cursor.
func (g bucketGrid) gather(dst []float64, pos []int, slot []int16, xs []float64) {
	for _, v := range xs {
		if v != v {
			continue
		}
		if sl := slot[g.bucket(v)]; sl >= 0 {
			dst[pos[sl]] = v
			pos[sl]++
		}
	}
}

// gatherLabelled is gather with each member's class alongside its value.
func (g bucketGrid) gatherLabelled(dst []float64, class []int32, pos []int, slot []int16, xs, labels []float64, k int, binary bool) {
	for i, v := range xs {
		if v != v {
			continue
		}
		if sl := slot[g.bucket(v)]; sl >= 0 {
			p := pos[sl]
			dst[p] = v
			class[p] = int32(labelClass(labels[i], k, binary))
			pos[sl] = p + 1
		}
	}
}

// cutBucket is one bucket that holds at least one target rank (and so at
// least one cut): its members are gathered and selected exactly.
type cutBucket struct {
	bucket int
	first  int // index into ranks of the first rank in this bucket
	count  int // how many ranks land in this bucket
	start  int // segment start in the gather buffer
	size   int // bucket population
}

// QuantileScratch reuses working buffers across Quantiles computations so a
// caller binning hundreds of columns allocates O(1) instead of O(columns).
// The zero value is ready to use. Not safe for concurrent use; hot paths
// keep one per worker.
type QuantileScratch struct {
	buf    []float64 // rankValuesSelect's working copy
	ranks  []int
	cuts   []float64
	sample []float64
	counts []int32 // numBuckets × stride counting table
	needs  []cutBucket
	slot   []int16 // bucket → index into needs, -1 for a bucket without a cut
	local  []int   // ranks rewritten as offsets into their bucket
	pos    []int
	gather []float64 // members of the cut buckets, bucket by bucket
	class  []int32   // their class indices, in the same order
	sel    []float64 // selection permutes: it runs on a copy when class pairs with gather
	bins   []int32   // per-bin class counts handed to the criteria

	// Left behind by the last call for Bin: binLo[b] is the number of cuts in
	// buckets below b (numBuckets+1 entries). gridded is false after a call
	// answered by the fallback, whose Bin is SearchCuts.
	grid    bucketGrid
	gridded bool
	binLo   []int32
}

// Quantiles is Quantiles with buffer reuse: the returned slice aliases the
// scratch and is only valid until the next call.
func (s *QuantileScratch) Quantiles(xs []float64, q int) []float64 {
	cuts, _ := s.cutsAndCounts(xs, nil, 0, false, q)
	return cuts
}

// Bin returns SearchCuts(cuts, v) for the cuts of the last Quantiles call,
// for a non-NaN v: one table load, and a comparison only when v's bucket
// holds a cut.
func (s *QuantileScratch) Bin(v float64) int {
	if !s.gridded {
		return SearchCuts(s.cuts, v)
	}
	b := s.grid.bucket(v)
	j, hi := int(s.binLo[b]), int(s.binLo[b+1])
	for j < hi && s.cuts[j] < v {
		j++
	}
	return j
}

// labelClass maps a label to its column of the count table: the binary
// criterion thresholds at 0.5 (anything else, NaN included, is negative),
// the multiclass one takes the class index.
func labelClass(l float64, k int, binary bool) int {
	if !binary {
		return classIndex(l, k)
	}
	c := 0
	if l > 0.5 {
		c = 1
	}
	return c
}

// classIndex truncates a label to its class index, with every label outside
// [0,k) — NaN included — in the extra column k, so that bucket populations
// still count the row as Quantiles does. The range test is on the float: an
// out-of-range float→int conversion is implementation-defined.
func classIndex(l float64, k int) int {
	if l > -1 && l < float64(k) {
		return int(l)
	}
	return k
}

// cutsAndCounts is the kernel behind Quantiles and the two classification
// criteria. It returns the deduplicated nearest-rank q-quantile cuts of xs
// (nil when q < 2 or xs has no non-NaN value) and, when labels is non-nil,
// the class counts of the bins those cuts delimit: counts[bin*(k+1)+c] rows
// of class c (labelClass) among the non-NaN rows, c = k collecting the
// out-of-range labels; binary selects the binary criterion's thresholding
// and requires k = binaryClasses. The counts ride the counting scan — per
// bucket, then prefix-summed into bins — so a labelled call reads xs twice,
// like an unlabelled one. Both results alias the scratch.
func (s *QuantileScratch) cutsAndCounts(xs, labels []float64, k int, binary bool, q int) ([]float64, []int32) {
	s.cuts = s.cuts[:0]
	s.gridded = false
	if q < 2 {
		return nil, nil
	}
	stride := 1
	if labels != nil {
		stride = k + 1
	}
	g, ok := s.sampleGrid(xs, q)
	if !ok {
		return s.cutsAndCountsSelect(xs, labels, k, binary, q)
	}

	// Scan 1: bucket (× class) counts, and the non-NaN count the ranks need.
	s.counts = zeroed(s.counts, numBuckets*stride)
	cnt := s.counts
	var n int
	switch {
	case labels == nil:
		n = g.count(cnt, xs)
	case binary:
		n = g.countBinary(cnt, xs, labels)
	default:
		n = g.countClasses(cnt, xs, labels, k)
	}
	if n == 0 {
		return nil, nil
	}
	ranks := s.nearestRanks(n, q)

	// Locate the bucket each rank falls into and rewrite the rank as an
	// offset local to its bucket. Ranks are ascending, so one cumulative
	// scan serves all of them; each cut bucket gets a segment of the shared
	// gather buffer.
	s.slot = grown(s.slot, numBuckets)
	slot := s.slot
	for i := range slot {
		slot[i] = -1
	}
	s.local = grown(s.local, len(ranks))
	localRanks := s.local
	needs := s.needs[:0]
	cum, ri, total := 0, 0, 0
	for b := 0; b < numBuckets && ri < len(ranks); b++ {
		c := 0
		for _, v := range cnt[b*stride : (b+1)*stride] {
			c += int(v)
		}
		first := ri
		for ri < len(ranks) && ranks[ri] < cum+c {
			localRanks[ri] = ranks[ri] - cum
			ri++
		}
		if ri > first {
			slot[b] = int16(len(needs))
			needs = append(needs, cutBucket{bucket: b, first: first, count: ri - first, start: total, size: c})
			total += c
		}
		cum += c
	}
	s.needs = needs

	// Scan 2: gather the members of every cut bucket, with their classes.
	s.gather = grown(s.gather, total)
	gather := s.gather
	s.pos = grown(s.pos, len(needs))
	pos := s.pos
	for i, nd := range needs {
		pos[i] = nd.start
	}
	if labels == nil {
		g.gather(gather, pos, slot, xs)
	} else {
		s.class = grown(s.class, total)
		g.gatherLabelled(gather, s.class, pos, slot, xs, labels, k, binary)
	}

	// Exact selection inside each cut bucket (typically ~n/numBuckets values
	// each). Equal values share a bucket, so deduplicating against the last
	// cut is the global deduplication; binLo counts the cuts below a bucket.
	s.binLo = grown(s.binLo, numBuckets+1)
	binLo := s.binLo
	nb := 0
	for _, nd := range needs {
		for ; nb <= nd.bucket; nb++ {
			binLo[nb] = int32(len(s.cuts))
		}
		seg := gather[nd.start : nd.start+nd.size]
		if labels != nil {
			s.sel = append(s.sel[:0], seg...)
			seg = s.sel
		}
		local := localRanks[nd.first : nd.first+nd.count]
		selectRanks(seg, local)
		for _, r := range local {
			if c := seg[r]; len(s.cuts) == 0 || c != s.cuts[len(s.cuts)-1] {
				s.cuts = append(s.cuts, c)
			}
		}
	}
	for ; nb <= numBuckets; nb++ {
		binLo[nb] = int32(len(s.cuts))
	}
	s.grid, s.gridded = g, true
	if labels == nil {
		return s.cuts, nil
	}

	// Per-bin class counts: a bucket without a cut adds its counts to the
	// one bin it lies in; the gathered rows are resolved one by one.
	s.bins = zeroed(s.bins, (len(s.cuts)+1)*stride)
	bins := s.bins
	for b := 0; b < numBuckets; b++ {
		if slot[b] >= 0 {
			continue
		}
		dst := bins[int(binLo[b])*stride:][:stride]
		for c, v := range cnt[b*stride:][:stride] {
			dst[c] += v
		}
	}
	class := s.class
	for _, nd := range needs {
		lo, hi := int(binLo[nd.bucket]), int(binLo[nd.bucket+1])
		for p := nd.start; p < nd.start+nd.size; p++ {
			v, j := gather[p], lo
			for j < hi && s.cuts[j] < v {
				j++
			}
			bins[j*stride+int(class[p])]++
		}
	}
	return s.cuts, bins
}

// sampleGrid lays the grid over the range of a strided sample of xs: at most
// sampleSize non-NaN values at a fixed stride (no RNG, so a column always
// gets the same grid), bracketed at the order statistics half a bin in from
// each end — beyond the outermost cuts, so the catch-all end buckets stay
// clean, but inside the tails. ok is false when the range is unusable and
// the caller must fall back to selection over the whole column: fewer than
// two samples, a zero width (a constant or one-value-dominated column), a
// non-finite end or width, or a width so small that the scale overflows.
func (s *QuantileScratch) sampleGrid(xs []float64, q int) (g bucketGrid, ok bool) {
	stride := len(xs) / sampleSize
	if stride < 1 {
		stride = 1
	}
	s.sample = grown(s.sample, sampleSize)
	sample := s.sample[:0]
	for i := 0; i < len(xs) && len(sample) < sampleSize; i += stride {
		if v := xs[i]; v == v {
			sample = append(sample, v)
		}
	}
	m := len(sample)
	if m < 2 {
		return g, false
	}
	r := m / q / 2
	selectRanks(sample, []int{r, m - 1 - r})
	lo, hi := sample[r], sample[m-1-r]
	width := hi - lo
	if !(width > 0) || math.IsInf(width, 0) {
		return g, false
	}
	scale := numBuckets / width
	if math.IsInf(scale, 0) {
		// A subnormal width: lo's own bucket would be 0 × Inf = NaN.
		return g, false
	}
	return bucketGrid{lo: lo, scale: scale}, true
}

// cutsAndCountsSelect is the fallback for a column without a usable sampled
// range: copy the non-NaN values, run multi-rank quickselect in place, and
// bin the rows by binary search in row order.
func (s *QuantileScratch) cutsAndCountsSelect(xs, labels []float64, k int, binary bool, q int) ([]float64, []int32) {
	s.buf = grown(s.buf, len(xs))
	clean := s.buf[:0]
	for _, v := range xs {
		if v == v { // !IsNaN without the call
			clean = append(clean, v)
		}
	}
	if len(clean) == 0 {
		return nil, nil
	}
	ranks := s.nearestRanks(len(clean), q)
	selectRanks(clean, ranks)
	for _, r := range ranks {
		if c := clean[r]; len(s.cuts) == 0 || c != s.cuts[len(s.cuts)-1] {
			s.cuts = append(s.cuts, c)
		}
	}
	if labels == nil {
		return s.cuts, nil
	}
	stride := k + 1
	s.bins = zeroed(s.bins, (len(s.cuts)+1)*stride)
	bins := s.bins
	for i, v := range xs {
		if v == v {
			bins[SearchCuts(s.cuts, v)*stride+labelClass(labels[i], k, binary)]++
		}
	}
	return s.cuts, bins
}

// nearestRanks returns the nearest-rank indices of the q-quantiles of n
// values, deduplicated and clamped exactly as a sorted implementation would.
func (s *QuantileScratch) nearestRanks(n, q int) []int {
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
	return s.ranks
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
func zeroed(buf []int32, n int) []int32 {
	buf = grown(buf, n)
	for i := range buf {
		buf[i] = 0
	}
	return buf
}
