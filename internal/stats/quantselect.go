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
// truncation are each monotone, so v ≤ w implies Bucket(v) ≤ Bucket(w).
func (g Grid) Bucket(v float64) int {
	return int(max(0, min((v-g.Lo)*g.Scale, NumBuckets-1)))
}

// Count adds the non-NaN values of xs to cnt[bucket] (NumBuckets counters),
// returning how many — the counting scan of both engines.
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

// binaryClasses is k of the binary criterion's count table: negative,
// positive, and — as for any k — an out-of-range column, here never used.
const binaryClasses = 2

// countBinary is Count into cnt[(binaryClasses+1)*bucket + class], the class
// a branch-free 0/1 (labels are as good as random to a branch predictor).
func (g Grid) countBinary(cnt []int32, xs, labels []float64) (n int) {
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
		cnt[g.Bucket(v)*(binaryClasses+1)+c]++
	}
	return n
}

// countClasses is Count into cnt[(k+1)*bucket + class].
func (g Grid) countClasses(cnt []int32, xs, labels []float64, k int) (n int) {
	labels = labels[:len(xs)]
	for i, v := range xs {
		if v != v {
			continue
		}
		n++
		cnt[g.Bucket(v)*(k+1)+classIndex(labels[i], k)]++
	}
	return n
}

// gather copies the members of the cut buckets (slot[bucket] >= 0) to their
// bucket's segment of dst, pos[slot] being the segment's write cursor.
func (g Grid) gather(dst []float64, pos []int, slot []int16, xs []float64) {
	for _, v := range xs {
		if v != v {
			continue
		}
		if sl := slot[g.Bucket(v)]; sl >= 0 {
			dst[pos[sl]] = v
			pos[sl]++
		}
	}
}

// gatherLabelled is gather with each member's class alongside its value.
func (g Grid) gatherLabelled(dst []float64, class []int32, pos []int, slot []int16, xs, labels []float64, k int, binary bool) {
	for i, v := range xs {
		if v != v {
			continue
		}
		if sl := slot[g.Bucket(v)]; sl >= 0 {
			p := pos[sl]
			dst[p] = v
			class[p] = int32(labelClass(labels[i], k, binary))
			pos[sl] = p + 1
		}
	}
}

// CutBucket is one bucket that holds at least one target rank (and so at
// least one cut): its members are gathered and selected exactly.
type CutBucket struct {
	Bucket int // the grid bucket
	First  int // index into ranks of the first rank in this bucket
	Count  int // how many ranks land in this bucket
	Start  int // segment start in the gather buffer
	Size   int // bucket population
}

// LocateRanks is the step between the two scans: from per-bucket counts
// (stride counters per bucket, summed), it finds the bucket that holds each
// of the ascending, deduplicated ranks, rewrites the rank as an offset into
// that bucket (local[i], len(ranks) entries), and appends one CutBucket per
// bucket holding a rank to needs[:0], each given the next segment of a gather
// buffer; total is the segments' length. Ranks are ascending, so one
// cumulative scan serves all of them. A rank at or past the counted rows is
// left unplaced.
func LocateRanks(needs []CutBucket, local []int, cnt []int32, stride int, ranks []int) (_ []CutBucket, total int) {
	needs = needs[:0]
	cum, ri := 0, 0
	for b := 0; b*stride < len(cnt) && ri < len(ranks); b++ {
		c := 0
		for _, v := range cnt[b*stride : (b+1)*stride] {
			c += int(v)
		}
		first := ri
		for ri < len(ranks) && ranks[ri] < cum+c {
			local[ri] = ranks[ri] - cum
			ri++
		}
		if ri > first {
			needs = append(needs, CutBucket{Bucket: b, First: first, Count: ri - first, Start: total, Size: c})
			total += c
		}
		cum += c
	}
	return needs, total
}

// SelectInBuckets resolves every located rank exactly: multi-rank selection
// over each cut bucket's segment of gather (its members, in any order) leaves
// at[i] the value of rank i. Selection permutes: the segments are permuted in
// place, or, when scratch is non-nil, a copy of each in turn in *scratch,
// which leaves gather as it was.
func SelectInBuckets(at []float64, needs []CutBucket, local []int, gather []float64, scratch *[]float64) {
	for _, nd := range needs {
		seg := gather[nd.Start : nd.Start+nd.Size]
		if scratch != nil {
			*scratch = append((*scratch)[:0], seg...)
			seg = *scratch
		}
		loc := local[nd.First : nd.First+nd.Count]
		selectRanks(seg, loc)
		for i, r := range loc {
			at[nd.First+i] = seg[r]
		}
	}
}

// AppendCuts appends the values of ranks, bucket by bucket (at[i] the value
// of rank i, as SelectInBuckets leaves them), to cuts with repeats dropped,
// and sets ends[j] to how many cuts the first j+1 cut buckets hold. Equal
// values share a bucket, so deduplicating against the last cut is the global
// deduplication.
func AppendCuts(cuts []float64, ends []int, at []float64, needs []CutBucket) []float64 {
	for j, nd := range needs {
		for _, c := range at[nd.First : nd.First+nd.Count] {
			if len(cuts) == 0 || c != cuts[len(cuts)-1] {
				cuts = append(cuts, c)
			}
		}
		ends[j] = len(cuts)
	}
	return cuts
}

// BinClassCounts fills bins ((len(cuts)+1)·stride counters, zeroed) with the
// class counts of the bins the cuts delimit. Span s is the rows of the
// buckets strictly between cut buckets s−1 and s (spans[s·stride+c] of class
// c, len(needs)+1 spans): it lies in one bin, the one above every cut of the
// first s cut buckets. A member of cut bucket j (gather and class at its
// segment) is placed by comparison with that bucket's own cuts,
// cuts[ends[j−1]:ends[j]] — a cut in another bucket is below or above every
// member by monotonicity.
func BinClassCounts(bins []int32, stride int, cuts []float64, ends []int, spans []int32, needs []CutBucket, gather []float64, class []int32) {
	lo := 0
	for s := 0; ; s++ {
		dst := bins[lo*stride:][:stride]
		for c, v := range spans[s*stride:][:stride] {
			dst[c] += v
		}
		if s == len(needs) {
			return
		}
		nd, hi := needs[s], ends[s]
		for p := nd.Start; p < nd.Start+nd.Size; p++ {
			j := lo + SearchCuts(cuts[lo:hi], gather[p])
			bins[j*stride+int(class[p])]++
		}
		lo = hi
	}
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
	counts []int32 // NumBuckets × stride counting table
	needs  []CutBucket
	slot   []int16 // bucket → index into needs, -1 for a bucket without a cut
	local  []int   // ranks rewritten as offsets into their bucket
	pos    []int
	gather []float64 // members of the cut buckets, bucket by bucket
	class  []int32   // their class indices, in the same order
	sel    []float64 // selection permutes: it runs on a copy when class pairs with gather
	spans  []int32   // class counts of the runs of buckets between cut buckets
	bins   []int32   // per-bin class counts handed to the criteria

	// Left behind by the last call for Bin: binLo[b] is the number of cuts in
	// buckets below b (NumBuckets+1 entries). gridded is false after a call
	// answered by the fallback, whose Bin is SearchCuts.
	grid    Grid
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
	b := s.grid.Bucket(v)
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
// bucket, then summed into the spans between cut buckets — so a labelled
// call reads xs twice, like an unlabelled one. Between the scans and after
// them it runs the steps the out-of-core engine runs across its two passes:
// LocateRanks, SelectInBuckets, AppendCuts, BinClassCounts. Both results
// alias the scratch.
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
	s.counts = zeroed(s.counts, NumBuckets*stride)
	cnt := s.counts
	var n int
	switch {
	case labels == nil:
		n = g.Count(cnt, xs)
	case binary:
		n = g.countBinary(cnt, xs, labels)
	default:
		n = g.countClasses(cnt, xs, labels, k)
	}
	if n == 0 {
		return nil, nil
	}
	ranks := s.nearestRanks(n, q)
	s.local = grown(s.local, len(ranks))
	needs, total := LocateRanks(s.needs, s.local, cnt, stride, ranks)
	s.needs = needs
	s.slot = grown(s.slot, NumBuckets)
	slot := s.slot
	for i := range slot {
		slot[i] = -1
	}
	for j, nd := range needs {
		slot[nd.Bucket] = int16(j)
	}

	// Scan 2: gather the members of every cut bucket, with their classes.
	s.gather = grown(s.gather, total)
	gather := s.gather
	s.pos = grown(s.pos, len(needs))
	pos := s.pos
	for i, nd := range needs {
		pos[i] = nd.Start
	}
	if labels == nil {
		g.gather(gather, pos, slot, xs)
	} else {
		s.class = grown(s.class, total)
		g.gatherLabelled(gather, s.class, pos, slot, xs, labels, k, binary)
	}

	// Exact selection inside each cut bucket (typically ~n/NumBuckets values
	// each), on a copy when the classes must stay paired with the members.
	var sel *[]float64
	if labels != nil {
		sel = &s.sel
	}
	// The rank values and the per-bucket cut counts take buffers the scans
	// are done with: the sample's (the grid is laid) and the gather cursors'.
	s.sample = grown(s.sample, len(ranks))
	at, ends := s.sample, pos
	SelectInBuckets(at, needs, s.local, gather, sel)
	s.cuts = AppendCuts(s.cuts, ends, at, needs)
	s.binLo = grown(s.binLo, NumBuckets+1)
	nb, below := 0, 0
	for j, nd := range needs {
		for ; nb <= nd.Bucket; nb++ {
			s.binLo[nb] = int32(below)
		}
		below = ends[j]
	}
	for ; nb <= NumBuckets; nb++ {
		s.binLo[nb] = int32(len(s.cuts))
	}
	s.grid, s.gridded = g, true
	if labels == nil {
		return s.cuts, nil
	}

	// Per-bin class counts: the buckets between two cut buckets add their
	// counts to the one bin they lie in; the gathered rows are resolved one by
	// one.
	s.spans = zeroed(s.spans, (len(needs)+1)*stride)
	si := 0
	for b := 0; b < NumBuckets; b++ {
		if si < len(needs) && needs[si].Bucket == b {
			si++
			continue
		}
		dst := s.spans[si*stride:][:stride]
		for c, v := range cnt[b*stride:][:stride] {
			dst[c] += v
		}
	}
	s.bins = zeroed(s.bins, (len(s.cuts)+1)*stride)
	BinClassCounts(s.bins, stride, s.cuts, ends, s.spans, needs, gather, s.class)
	return s.cuts, s.bins
}

// sampleGrid lays the grid over a strided sample of xs: at most SampleSize
// non-NaN values at a fixed stride (no RNG, so a column always gets the same
// grid). ok is false when the caller must fall back to selection over the
// whole column (see SampleGrid).
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
// buckets stay clean, but inside the tails. It permutes sample. ok is false
// when the range is unusable and the caller must select over the whole
// column: fewer than two samples, a zero width (a constant or
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
