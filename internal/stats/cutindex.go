package stats

import "math"

// CutIndexer accelerates repeated SearchCuts lookups against one fixed cut
// array. A uniform bucket table over [cuts[0], cuts[last]] maps a value to a
// starting bin with one multiply; a short local scan then lands on the exact
// SearchCuts answer. Exactness never depends on float rounding in the bucket
// mapping — the scan corrects the starting point in either direction — so
// Find(v) == SearchCuts(cuts, v) for every non-NaN v. Skewed cut layouts
// that would make the scan long (many cuts per bucket) fall back to binary
// search at Reset time.
//
// Its callers bin values against cuts that came from somewhere else: the
// sharded engine's label/moment histograms and bin codes (internal/sketch,
// shard.fillCodes) and the GBDT binner's code fill (gbdt.newBinner). The
// criteria that cut a column at its own quantiles do not use it — the quantile
// kernel's bucket grid already knows each row's bin (QuantileScratch,
// quantselect.go) — and neither does the combination scorer, which reads the
// binner's codes and searches nothing per row (core.ScoreCombos).
//
// The zero value is ready for Reset. Not safe for concurrent use; hot paths
// keep one per worker next to their other scratch.
type CutIndexer struct {
	cuts    []float64
	lo      float64
	invStep float64
	table   []int32
}

// maxBucketCuts bounds the local scan: when any bucket would cover more
// cuts than this, the table buys little and Find falls back to SearchCuts.
const maxBucketCuts = 16

// Reset prepares the indexer for a new cut array, reusing the table buffer.
// The cuts slice is retained and must stay ascending and unmodified until
// the next Reset.
func (ix *CutIndexer) Reset(cuts []float64) {
	ix.cuts = cuts
	ix.table = ix.table[:0]
	if len(cuts) < 4 {
		return // binary search over a handful of cuts is already cheap
	}
	lo, hi := cuts[0], cuts[len(cuts)-1]
	span := hi - lo
	if !(span > 0) || math.IsInf(span, 0) {
		return
	}
	k := 4 * len(cuts)
	invStep := float64(k) / span
	if math.IsInf(invStep, 0) {
		return
	}
	if cap(ix.table) < k {
		ix.table = make([]int32, k)
	} else {
		ix.table = ix.table[:k]
	}
	step := span / float64(k)
	prev := int32(0)
	widest := int32(0)
	for t := range ix.table {
		j := int32(SearchCuts(cuts, lo+float64(t)*step))
		ix.table[t] = j
		if t > 0 && j-prev > widest {
			widest = j - prev
		}
		prev = j
	}
	if widest > maxBucketCuts {
		ix.table = ix.table[:0] // clustered cuts: scans would be long
		return
	}
	ix.lo = lo
	ix.invStep = invStep
}

// Find returns SearchCuts(cuts, v) for the cut array given to Reset.
// v must not be NaN (call sites filter NaN before binning).
func (ix *CutIndexer) Find(v float64) int {
	cuts := ix.cuts
	if len(ix.table) == 0 {
		return SearchCuts(cuts, v)
	}
	if v <= ix.lo {
		return 0
	}
	t := int((v - ix.lo) * ix.invStep)
	if t >= len(ix.table) {
		t = len(ix.table) - 1
	} else if t < 0 {
		t = 0
	}
	j := int(ix.table[t])
	for j < len(cuts) && cuts[j] < v {
		j++
	}
	for j > 0 && cuts[j-1] >= v {
		j--
	}
	return j
}
