package sketch

import (
	"math"
	"sort"
)

// DefaultSize is the default per-level summary size of a Quantile sketch.
// Larger sizes buy tighter rank bounds linearly at linearly more memory; a
// sketch that is fed at most its own size in distinct values summarises them
// losslessly.
const DefaultSize = 8192

// wpoint is one weighted coreset point: a representative value standing in
// for w original values at adjacent ranks.
type wpoint struct {
	v float64
	w int64
}

// Quantile is a deterministic mergeable quantile summary. Values arrive as
// sorted runs — AddSortedScratch after SortNonNaN, or AddAll, which sorts a
// column into one — and partitions summarised independently combine
// with Merge. Count, Min, Max and NaNCount are exact; rank queries
// (Cuts, BinnerCuts) are exact while the data fits one level and carry a
// tracked worst-case rank error (ErrorBound) beyond that.
//
// Internally the sketch is an LSM over weighted coresets: each run becomes a
// level-0 summary — lossless, or compacted once to size points when it has
// more distinct values — and equal-level summaries merge like a binary
// counter. Merging two levels concatenates their sorted point lists exactly;
// only when the result exceeds size is it compacted to at most size points,
// each new point absorbing a run of at most W = ceil(weight/size) original
// values — the single source of rank error, accumulated per summary in errs.
// No step is randomised.
//
// Retired point-slice backings recycle through an internal free list and the
// full merged summary is memoised between mutations, so a sketch that is
// queried repeatedly (or Reset and refilled) allocates only during warm-up. None of the reuse changes any computed summary: the
// arithmetic is identical to a freshly allocated sketch.
type Quantile struct {
	size     int
	count    int64 // non-NaN values observed
	nan      int64
	min, max float64
	levels   [][]wpoint
	errs     []int64

	free [][]wpoint // retired level backings, reused for new point lists
	bulk []float64  // AddAll sort scratch

	mcache      []wpoint // memoised merged(); may alias a level slice
	mcacheOwned bool     // mcache backing is scratch (not a level alias)
	mvalid      bool
}

// maxFree bounds the retained free-list backings per sketch.
const maxFree = 8

// NewQuantile creates a quantile sketch with the given per-level summary
// size; size <= 0 selects DefaultSize.
func NewQuantile(size int) *Quantile {
	if size <= 0 {
		size = DefaultSize
	}
	return &Quantile{size: size, min: math.Inf(1), max: math.Inf(-1)}
}

// Size returns the per-level summary size the sketch was built with.
func (q *Quantile) Size() int { return q.size }

// Reset clears the sketch for reuse with the same size, keeping its internal
// buffers so a recycled sketch allocates nothing in steady state. A reset
// sketch behaves exactly like a fresh NewQuantile(Size()).
func (q *Quantile) Reset() {
	q.count, q.nan = 0, 0
	q.min, q.max = math.Inf(1), math.Inf(-1)
	q.dirty()
	for i := range q.levels {
		q.putFree(q.levels[i])
		q.levels[i] = nil
		q.errs[i] = 0
	}
	q.levels = q.levels[:0]
	q.errs = q.errs[:0]
}

// dirty invalidates the memoised merged summary, retiring an owned backing.
func (q *Quantile) dirty() {
	if q.mcache == nil {
		return
	}
	if q.mcacheOwned {
		q.putFree(q.mcache)
	}
	q.mcache, q.mcacheOwned, q.mvalid = nil, false, false
}

// takeFree returns a zero-length point slice with capacity at least n,
// reusing the best-fitting retired backing when one fits.
func (q *Quantile) takeFree(n int) []wpoint {
	best := -1
	for i, s := range q.free {
		if cap(s) >= n && (best < 0 || cap(s) < cap(q.free[best])) {
			best = i
		}
	}
	if best >= 0 {
		s := q.free[best]
		last := len(q.free) - 1
		q.free[best] = q.free[last]
		q.free[last] = nil
		q.free = q.free[:last]
		return s[:0]
	}
	return make([]wpoint, 0, n)
}

// putFree retires a point-slice backing for reuse. A full list evicts its
// smallest backing — the merge cascade reuses the large ones, and keeping
// only early small retirees was measurably re-allocating the big buffers.
func (q *Quantile) putFree(s []wpoint) {
	if cap(s) == 0 {
		return
	}
	if len(q.free) < maxFree {
		q.free = append(q.free, s[:0])
		return
	}
	small := 0
	for i := 1; i < len(q.free); i++ {
		if cap(q.free[i]) < cap(q.free[small]) {
			small = i
		}
	}
	if cap(s) > cap(q.free[small]) {
		q.free[small] = s[:0]
	}
}

// AddAll observes a column of values: NaNs are counted separately and never
// contribute to ranks, matching stats.Quantiles' NaN handling; the rest are
// sorted in the sketch's scratch and taken in as one run.
func (q *Quantile) AddAll(vs []float64) {
	if cap(q.bulk) < len(vs) {
		q.bulk = make([]float64, 0, len(vs))
	}
	b := q.bulk[:0]
	for _, v := range vs {
		if !math.IsNaN(v) {
			b = append(b, v)
		}
	}
	q.bulk = b
	sort.Float64s(b)
	q.addSorted(b, len(vs)-len(b), nil)
}

// AddSortedScratch observes a pre-sorted ascending NaN-free run of values plus
// the NaN count stripped from it (the shape SortNonNaN produces), building the
// summary run directly: dedup in one linear walk, at most one compaction, one
// push. The dedup walk runs in caller-owned scratch: only the final summary
// run — at most size+1 points after the compaction — is copied into
// sketch-owned memory. Recycled partials therefore retain compact backings
// instead of chunk-length ones, which is what keeps a pool of hundreds of
// partials cheap to hold.
func (q *Quantile) AddSortedScratch(sorted []float64, nan int, s *SortScratch) {
	q.addSorted(sorted, nan, s)
}

// addSorted is AddSortedScratch; a nil s runs the dedup walk in a sketch-owned
// backing that becomes the run itself.
func (q *Quantile) addSorted(sorted []float64, nan int, s *SortScratch) {
	q.nan += int64(nan)
	if len(sorted) == 0 {
		return
	}
	q.dirty()
	q.count += int64(len(sorted))
	if sorted[0] < q.min {
		q.min = sorted[0]
	}
	if sorted[len(sorted)-1] > q.max {
		q.max = sorted[len(sorted)-1]
	}
	var pts []wpoint
	if s != nil {
		if cap(s.pts) < len(sorted) {
			s.pts = make([]wpoint, 0, len(sorted))
		}
		pts = s.pts[:0]
	} else {
		pts = q.takeFree(len(sorted))
	}
	for _, v := range sorted {
		if n := len(pts); n > 0 && pts[n-1].v == v {
			pts[n-1].w++
			continue
		}
		pts = append(pts, wpoint{v: v, w: 1})
	}
	if s != nil {
		s.pts = pts // retain the grown scratch for the next call
	}
	var err int64
	if len(pts) > q.size {
		pts, err = compactPoints(pts, q.size)
	}
	if s != nil {
		own := q.takeFree(len(pts))
		pts = append(own, pts...)
	}
	q.push(0, pts, err)
}

// Count returns the exact number of non-NaN values observed.
func (q *Quantile) Count() int64 { return q.count }

// NaNCount returns the exact number of NaNs observed.
func (q *Quantile) NaNCount() int64 { return q.nan }

// Min returns the exact minimum (+Inf when empty).
func (q *Quantile) Min() float64 { return q.min }

// Max returns the exact maximum (-Inf when empty).
func (q *Quantile) Max() float64 { return q.max }

// ErrorBound returns the current worst-case rank error of a query, in ranks
// (not a fraction). Zero means the summary is lossless.
func (q *Quantile) ErrorBound() int64 {
	var e int64
	for _, le := range q.errs {
		e += le
	}
	return e
}

// Merge folds another sketch into q. The sizes need not agree: o's levels are
// concatenated into q's exactly, carrying their own error bounds, and only a
// level that outgrows q's size is compacted, to q's size. A small o therefore
// merges into a larger q with no recompaction and no error beyond its own.
// o is unchanged.
func (q *Quantile) Merge(o *Quantile) {
	if o == nil {
		return
	}
	q.dirty()
	q.count += o.count
	q.nan += o.nan
	if o.min < q.min {
		q.min = o.min
	}
	if o.max > q.max {
		q.max = o.max
	}
	for level, pts := range o.levels {
		if len(pts) == 0 {
			continue
		}
		cp := q.takeFree(len(pts))
		cp = cp[:len(pts)]
		copy(cp, pts)
		q.push(level, cp, o.errs[level])
	}
}

// push installs a summary at the given level, carrying binary-counter style
// into higher levels: an occupied slot merges, compacts when oversized, and
// the result moves one level up.
func (q *Quantile) push(level int, pts []wpoint, err int64) {
	for {
		for len(q.levels) <= level {
			q.levels = append(q.levels, nil)
			q.errs = append(q.errs, 0)
		}
		if len(q.levels[level]) == 0 {
			q.levels[level] = pts
			q.errs[level] = err
			return
		}
		old := q.levels[level]
		merged := q.mergeInto(old, pts)
		err += q.errs[level]
		q.levels[level] = nil
		q.errs[level] = 0
		q.putFree(old)
		q.putFree(pts)
		pts = merged
		if len(pts) > q.size {
			var addErr int64
			pts, addErr = compactPoints(pts, q.size)
			err += addErr
		}
		level++
	}
}

// mergeInto merge-joins two sorted weighted point lists exactly into a
// free-list backing, summing weights of equal values. The result never
// aliases a or b.
func (q *Quantile) mergeInto(a, b []wpoint) []wpoint {
	out := q.takeFree(len(a) + len(b))
	return mergePointsInto(out, a, b)
}

// mergePointsInto appends the exact merge of a and b to out, which must be
// empty and alias neither input.
func mergePointsInto(out, a, b []wpoint) []wpoint {
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		var p wpoint
		switch {
		case i == len(a):
			p = b[j]
			j++
		case j == len(b):
			p = a[i]
			i++
		case a[i].v <= b[j].v:
			p = a[i]
			i++
		default:
			p = b[j]
			j++
		}
		if n := len(out); n > 0 && out[n-1].v == p.v {
			out[n-1].w += p.w
			continue
		}
		out = append(out, p)
	}
	return out
}

// compactPoints reduces a sorted weighted list to at most size points by
// absorbing runs of at most W = ceil(weight/size) values into their weighted
// median point. Every surviving rank estimate moves by less than W, the
// returned error bound. Compaction is in place: the output reuses pts'
// backing (safe because the write index never passes the read index).
func compactPoints(pts []wpoint, size int) ([]wpoint, int64) {
	var total int64
	for _, p := range pts {
		total += p.w
	}
	w := (total + int64(size) - 1) / int64(size)
	if w < 1 {
		w = 1
	}
	out := pts[:0]
	i := 0
	for i < len(pts) {
		// Absorb a run of up to w weight starting at i.
		var runW int64
		j := i
		for j < len(pts) {
			if runW > 0 && runW+pts[j].w > w {
				break
			}
			runW += pts[j].w
			j++
		}
		// Representative: the point containing the run's weighted median.
		var cum int64
		rep := i
		for k := i; k < j; k++ {
			cum += pts[k].w
			if 2*cum >= runW {
				rep = k
				break
			}
		}
		out = append(out, wpoint{v: pts[rep].v, w: runW})
		i = j
	}
	return out, w
}

// merged returns the sketch's full summary as one sorted weighted list,
// without mutating the sketch's logical content. The result is memoised
// until the next mutation and must not be retained across one.
func (q *Quantile) merged() []wpoint {
	if q.mvalid {
		return q.mcache
	}
	var all []wpoint
	owned := false
	for _, pts := range q.levels {
		if len(pts) == 0 {
			continue
		}
		if all == nil {
			all = pts
			continue
		}
		m := q.mergeInto(all, pts)
		if owned {
			q.putFree(all)
		}
		all, owned = m, true
	}
	q.mcache, q.mcacheOwned, q.mvalid = all, owned, true
	return all
}

// Cuts returns the k interior cut points of a k+1-quantile split — the same
// nearest-rank cut values stats.Quantiles(xs, bins) yields (0-based ranks
// i*n/bins for i in 1..bins-1, deduplicated by rank then by value), within
// ErrorBound ranks. It returns nil when the sketch is empty or bins < 2.
func (q *Quantile) Cuts(bins int) []float64 {
	if bins < 2 || q.count == 0 {
		return nil
	}
	n := q.count
	ranks := make([]int64, 0, bins-1)
	for k := 1; k < bins; k++ {
		idx := int64(k) * n / int64(bins)
		if idx >= n {
			idx = n - 1
		}
		if m := len(ranks); m == 0 || ranks[m-1] != idx {
			ranks = append(ranks, idx)
		}
	}
	pts := q.merged()
	out := make([]float64, 0, len(ranks))
	var cum int64
	pi := 0
	for _, r := range ranks {
		for pi < len(pts) && r >= cum+pts[pi].w {
			cum += pts[pi].w
			pi++
		}
		v := pts[len(pts)-1].v
		if pi < len(pts) {
			v = pts[pi].v
		}
		if m := len(out); m == 0 || out[m-1] != v {
			out = append(out, v)
		}
	}
	return out
}

// BinnerCuts returns GBDT binner cut points: Cuts(maxBins) with a trailing
// cut equal to the exact maximum dropped (it would create an empty bin),
// mirroring the in-memory binner's quantileCuts.
func (q *Quantile) BinnerCuts(maxBins int) []float64 {
	cuts := q.Cuts(maxBins)
	if len(cuts) == 0 {
		return nil
	}
	if cuts[len(cuts)-1] >= q.max {
		cuts = cuts[:len(cuts)-1]
	}
	return cuts
}
