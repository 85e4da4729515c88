package sketch

import (
	"fmt"
	"math"
	"sort"
)

// Refiner turns a merged (approximate) Quantile sketch into exact order
// statistics with one more streaming pass over the data. The sketch brackets
// every requested rank r inside a value interval [lo, hi] guaranteed to
// contain the true rank-r value: lo is the summary's value at rank
// r − ErrorBound, hi its value at r + ErrorBound, and the exact Min or Max
// where that rank falls off either end. The bound licenses exactly this — a
// value the summary places at rank ρ has an occurrence whose true rank is
// within ErrorBound of ρ, so the one at r − ErrorBound sits at or below the
// rank-r order statistic and the one at r + ErrorBound at or above it. The
// refinement pass then gathers only the values that fall inside a bracket —
// O(targets · ErrorBound) values in total, independent of n — plus an exact
// count of values below each bracket. Value() afterwards returns exact
// nearest-rank order statistics, bit-identical to sorting the full column,
// and Err() confirms that every bracket did hold its order statistic.
//
// Brackets that collapse to a single value (duplicate-heavy regions,
// constant columns) resolve without gathering, so heavy duplication cannot
// inflate the gather buffers; strictly-interior values per target are
// bounded by the bracket's rank span. AddChunk is one-pass streaming and
// Merge combines refiners built over disjoint partitions, keeping the whole
// construction mergeable.
type Refiner struct {
	ranks    []int64 // requested target ranks, ascending, deduplicated
	lo, hi   []float64
	resolved []bool // bracket collapsed: value known without gathering

	lowDelta []int64     // per-target prefix deltas for the below-bracket count
	loEq     []int64     // gathered: count of values == lo
	hiEq     []int64     // gathered: count of values == hi
	mid      [][]float64 // gathered: values strictly inside the bracket

	finalized bool
	lowCount  []int64
	err       error // set by finalize: the first target outside its bracket

	idx *edgeIndex // shared bucket table over lo (nil: binary search)
}

// edgeIndex is a uniform bucket table over a refiner's ascending lo edges,
// the CutIndexer trick specialised to AddChunk's upper-bound search: find(v)
// returns the number of edges <= v with one multiply and a short corrective
// scan, exact for every finite v regardless of rounding in the bucket
// mapping. Built once per refiner and shared read-only by its shadows.
type edgeIndex struct {
	lo      []float64
	base    float64
	invStep float64
	table   []int32
}

// newEdgeIndex builds the table, or returns nil when the layout defeats it
// (too few edges, non-finite or zero span, or a bucket spanning so many
// edges the corrective scan would approach binary-search cost).
func newEdgeIndex(lo []float64) *edgeIndex {
	nt := len(lo)
	if nt < 4 {
		return nil
	}
	span := lo[nt-1] - lo[0]
	if !(span > 0) || math.IsInf(span, 0) {
		return nil
	}
	k := 4 * nt
	invStep := float64(k) / span
	if math.IsInf(invStep, 0) {
		return nil
	}
	e := &edgeIndex{lo: lo, base: lo[0], invStep: invStep, table: make([]int32, k)}
	step := span / float64(k)
	prev, widest := int32(0), int32(0)
	for t := range e.table {
		v := lo[0] + float64(t)*step
		// Upper bound: first index with lo[j] > v.
		a, b := 0, nt
		for a < b {
			m := int(uint(a+b) >> 1)
			if lo[m] > v {
				b = m
			} else {
				a = m + 1
			}
		}
		j := int32(a)
		e.table[t] = j
		if t > 0 && j-prev > widest {
			widest = j - prev
		}
		prev = j
	}
	if widest > maxEdgeBucketScan {
		return nil
	}
	return e
}

// maxEdgeBucketScan bounds the corrective scan per lookup, mirroring
// stats.CutIndexer's fallback for clustered layouts.
const maxEdgeBucketScan = 16

// find returns the number of edges <= v (the lowDelta bucket AddChunk's
// inlined binary search computes). v must not be NaN.
func (e *edgeIndex) find(v float64) int {
	lo := e.lo
	if v < e.base {
		return 0
	}
	t := int((v - e.base) * e.invStep)
	if t >= len(e.table) {
		t = len(e.table) - 1
	} else if t < 0 {
		t = 0
	}
	j := int(e.table[t])
	for j < len(lo) && lo[j] <= v {
		j++
	}
	for j > 0 && lo[j-1] > v {
		j--
	}
	return j
}

// NewRefiner brackets the given target ranks (ascending, in [0, Count))
// using the sketch's current summary. A lossless sketch resolves every
// target immediately — NeedsPass reports whether a gather pass is required.
func NewRefiner(q *Quantile, ranks []int64) *Refiner {
	r := &Refiner{
		ranks:    append([]int64(nil), ranks...),
		lo:       make([]float64, len(ranks)),
		hi:       make([]float64, len(ranks)),
		resolved: make([]bool, len(ranks)),
		lowDelta: make([]int64, len(ranks)+1),
		loEq:     make([]int64, len(ranks)),
		hiEq:     make([]int64, len(ranks)),
		mid:      make([][]float64, len(ranks)),
	}
	e := q.ErrorBound()
	pts := q.merged()
	// Both bracket edges are values at ascending ranks, so each fills in one
	// cumulative walk of the merged list instead of one walk per target.
	fillValuesAtRanks(pts, r.ranks, -e, r.lo)
	fillValuesAtRanks(pts, r.ranks, +e, r.hi)
	for t, rank := range r.ranks {
		// Within e ranks of either end the summary's end point vouches for
		// nothing beyond itself (a compacted run is represented by its median,
		// not its extreme); the exact extremum is the edge that always holds.
		if rank-e < 0 {
			r.lo[t] = q.min
		}
		if rank+e >= q.count {
			r.hi[t] = q.max
		}
		if r.lo[t] == r.hi[t] {
			// The bracket pinches to one value, which must be the answer.
			r.resolved[t] = true
		}
	}
	r.idx = newEdgeIndex(r.lo)
	return r
}

// fillValuesAtRanks sets dst[t] to the value covering rank ranks[t]+off
// (clamped) in the merged weighted list — valueAtRank for every target in a
// single walk, valid because ranks is ascending.
func fillValuesAtRanks(pts []wpoint, ranks []int64, off int64, dst []float64) {
	if len(pts) == 0 {
		for t := range dst {
			dst[t] = math.NaN()
		}
		return
	}
	pi := 0
	cum := pts[0].w
	for t, rk := range ranks {
		rank := rk + off
		if rank < 0 {
			rank = 0
		}
		for pi < len(pts) && rank >= cum {
			pi++
			if pi < len(pts) {
				cum += pts[pi].w
			}
		}
		if pi < len(pts) {
			dst[t] = pts[pi].v
		} else {
			dst[t] = pts[len(pts)-1].v
		}
	}
}

// Shadow returns a refiner sharing r's targets and brackets (read-only) with
// fresh accumulators, so partitions can gather concurrently and fold back in
// order with r.Merge. A shadow must not outlive r.
func (r *Refiner) Shadow() *Refiner {
	return &Refiner{
		ranks:    r.ranks,
		lo:       r.lo,
		hi:       r.hi,
		resolved: r.resolved,
		lowDelta: make([]int64, len(r.ranks)+1),
		loEq:     make([]int64, len(r.ranks)),
		hiEq:     make([]int64, len(r.ranks)),
		mid:      make([][]float64, len(r.ranks)),
		idx:      r.idx,
	}
}

// NeedsPass reports whether any target still needs gathered values.
func (r *Refiner) NeedsPass() bool {
	for t := range r.resolved {
		if !r.resolved[t] {
			return true
		}
	}
	return false
}

// AddChunk streams one chunk of the column (NaNs skipped, as everywhere).
func (r *Refiner) AddChunk(vals []float64) {
	nt := len(r.ranks)
	if nt == 0 {
		return
	}
	lo, hi := r.lo, r.hi
	idx := r.idx
	for _, v := range vals {
		if math.IsNaN(v) {
			continue
		}
		// Targets with lo > v form a suffix; record one delta at its start.
		// The shared bucket table answers the upper-bound search in O(1) for
		// the overwhelmingly common outside-every-bracket case; skewed edge
		// layouts fall back to the inlined binary search (closure-based
		// sort.Search showed up in profiles).
		var a int
		if idx != nil {
			a = idx.find(v)
		} else {
			var b int
			a, b = 0, nt
			for a < b {
				m := int(uint(a+b) >> 1)
				if lo[m] > v {
					b = m
				} else {
					a = m + 1
				}
			}
		}
		r.lowDelta[a]++
		// Brackets containing v are the run [t, a): lo ascending limits it
		// to t < a, hi ascending starts it at the first hi >= v. Most values
		// fall outside every bracket — one compare against hi[a-1] rejects
		// them without the second binary search.
		if a == 0 || hi[a-1] < v {
			continue
		}
		t, y := 0, a
		for t < y {
			m := int(uint(t+y) >> 1)
			if hi[m] >= v {
				y = m
			} else {
				t = m + 1
			}
		}
		for ; t < a && lo[t] <= v; t++ {
			if r.resolved[t] {
				continue
			}
			switch {
			case v == r.lo[t]:
				r.loEq[t]++
			case v == r.hi[t]:
				r.hiEq[t]++
			default:
				r.mid[t] = append(r.mid[t], v)
			}
		}
	}
}

// SkipBucket reports whether a block of the column whose non-NaN values all
// lie in [min, max] provably contributes nothing to any gather bracket, and
// if so which single lowDelta bucket all of those values count into. The
// conditions mirror AddChunk's accumulation exactly: every value must land
// in the same bucket a (no lo edge inside (min, max]), and the run must
// avoid every bracket (a == 0 means max < lo[0]; otherwise min > hi[a-1],
// which with hi ascending clears all brackets t < a). When ok, the block's
// entire effect on the refiner is AddOutside(bucket, nonNaNCount) — the
// stat-only fold the sharded engine applies for skipped blocks.
func (r *Refiner) SkipBucket(min, max float64) (bucket int, ok bool) {
	if math.IsNaN(min) || math.IsNaN(max) {
		return 0, false
	}
	nt := len(r.ranks)
	if nt == 0 {
		return 0, true
	}
	// a = #{t : lo[t] <= max}, b = #{t : lo[t] <= min}; one bucket iff a == b.
	a := sort.SearchFloat64s(r.lo, max)
	for a < nt && r.lo[a] == max {
		a++
	}
	b := sort.SearchFloat64s(r.lo, min)
	for b < nt && r.lo[b] == min {
		b++
	}
	if a != b {
		return 0, false
	}
	if a == 0 {
		return 0, true // max < lo[0]: below every bracket
	}
	if min > r.hi[a-1] {
		return a, true // above every bracket the bucket could touch
	}
	return 0, false
}

// AddOutside folds n values known (from block stats, via SkipBucket) to land
// in the given lowDelta bucket without entering any bracket. It is the exact
// contribution AddChunk would have accumulated for those values, so a pass
// over the surviving blocks plus AddOutside for the skipped ones yields
// bit-identical order statistics to a full pass.
func (r *Refiner) AddOutside(bucket int, n int64) {
	r.lowDelta[bucket] += n
}

// Merge folds a refiner built over another partition (with identical
// targets and brackets) into r. Only o's gather accumulators are read, so o
// may be a decoded wire partial, which has nothing else.
func (r *Refiner) Merge(o *Refiner) {
	nt := len(r.ranks)
	for t := 0; t < nt; t++ {
		r.lowDelta[t] += o.lowDelta[t]
		r.loEq[t] += o.loEq[t]
		r.hiEq[t] += o.hiEq[t]
		r.mid[t] = append(r.mid[t], o.mid[t]...)
	}
	r.lowDelta[nt] += o.lowDelta[nt]
}

func (r *Refiner) finalize() {
	if r.finalized {
		return
	}
	r.finalized = true
	r.lowCount = make([]int64, len(r.ranks))
	var cum int64
	for t := range r.ranks {
		cum += r.lowDelta[t]
		r.lowCount[t] = cum
	}
	for t := range r.mid {
		sort.Float64s(r.mid[t])
	}
	for t, rank := range r.ranks {
		if r.resolved[t] {
			continue
		}
		gathered := r.loEq[t] + int64(len(r.mid[t])) + r.hiEq[t]
		if local := rank - r.lowCount[t]; local < 0 || local >= gathered {
			r.err = &BracketError{Target: t, Rank: rank, Lo: r.lo[t], Hi: r.hi[t], Below: r.lowCount[t], Gathered: gathered}
			return
		}
	}
}

// BracketError reports a refinement target whose bracket did not hold its
// order statistic: after the gather pass, the target rank lies outside the
// ranks the bracket's values occupy. The sketch the refiner was opened on
// understated its error bound, or the gathered data is not the data it
// summarised; either way the target has no exact value.
type BracketError struct {
	Target   int     // index of the target among the refiner's ranks
	Rank     int64   // the requested 0-based rank
	Lo, Hi   float64 // the bracket
	Below    int64   // values counted below Lo
	Gathered int64   // values counted inside [Lo, Hi]
}

func (e *BracketError) Error() string {
	return fmt.Sprintf("sketch: target %d (rank %d) outside its bracket [%v, %v]: %d values below, %d inside",
		e.Target, e.Rank, e.Lo, e.Hi, e.Below, e.Gathered)
}

// Err reports, once the gather pass has completed, whether every unresolved
// target's rank falls inside the values its bracket gathered — nil when all
// do, else a *BracketError naming the first that does not. Value on such a
// target can only answer with the nearer bracket edge, so callers that need
// exact order statistics check Err before reading any.
func (r *Refiner) Err() error {
	r.finalize()
	return r.err
}

// Value returns the exact value at the target rank (which must be one of
// the ranks given to NewRefiner, after the gather pass completed).
func (r *Refiner) Value(rank int64) float64 {
	t := sort.Search(len(r.ranks), func(i int) bool { return r.ranks[i] >= rank })
	if t == len(r.ranks) || r.ranks[t] != rank {
		return math.NaN()
	}
	if r.resolved[t] {
		return r.lo[t]
	}
	r.finalize()
	// A rank outside the gathered range — a bracket that missed its order
	// statistic, which Err reports — answers with the nearer edge.
	local := rank - r.lowCount[t]
	switch {
	case local < r.loEq[t]:
		return r.lo[t]
	case local < r.loEq[t]+int64(len(r.mid[t])):
		return r.mid[t][local-r.loEq[t]]
	default:
		return r.hi[t]
	}
}

// CutRanks returns the 0-based nearest-rank targets of a bins-quantile
// split over n values — the ranks stats.Quantiles reads — deduplicated.
func CutRanks(n int64, bins int) []int64 {
	if bins < 2 || n <= 0 {
		return nil
	}
	out := make([]int64, 0, bins-1)
	for k := 1; k < bins; k++ {
		idx := int64(k) * n / int64(bins)
		if idx >= n {
			idx = n - 1
		}
		if m := len(out); m == 0 || out[m-1] != idx {
			out = append(out, idx)
		}
	}
	return out
}
