package sketch

import (
	"math"

	"repro/internal/stats"
)

// ClassHist is LabelHist generalised to K classes: bin b of class c counts
// the rows of class c whose value falls in (cuts[b-1], cuts[b]]. NaN values
// (and out-of-range class labels) are counted separately and excluded from
// bins. No fit uses it: it is the multiclass kernel the repository
// benchmark's sketch.hist_ns_per_row probe times.
type ClassHist struct {
	k      int
	counts [][]float64 // class-major: counts[c][b]
	flat   []float64
	nan    []float64 // per-class NaN count
	ix     stats.CutIndexer
}

// NewClassHist creates a K-class histogram over ascending cut points
// (len(cuts)+1 bins; nil cuts yield a single bin). The cuts slice is
// retained and must not be modified.
func NewClassHist(cuts []float64, k int) *ClassHist {
	nb := len(cuts) + 1
	h := &ClassHist{
		k:    k,
		flat: make([]float64, k*nb),
		nan:  make([]float64, k),
	}
	h.counts = make([][]float64, k)
	for c := 0; c < k; c++ {
		h.counts[c] = h.flat[c*nb : (c+1)*nb]
	}
	h.ix.Reset(cuts)
	return h
}

// Add observes one (value, class-index) observation.
func (h *ClassHist) Add(v, label float64) {
	c := int(label)
	if c < 0 || c >= h.k {
		return
	}
	if math.IsNaN(v) {
		h.nan[c]++
		return
	}
	h.counts[c][h.ix.Find(v)]++
}

// AddCol observes a column of values against parallel class labels.
func (h *ClassHist) AddCol(vals, labels []float64) {
	for i, v := range vals {
		h.Add(v, labels[i])
	}
}

// MomentHist accumulates per-bin moments (count, Σy, Σy²) of a continuous
// target over fixed cut points — the regression counterpart of LabelHist.
// NaN feature values are counted separately and excluded from bins. The sums
// depend on the order the rows arrive in, so a partitioned pass bins its
// partitions in parallel (BinIDs) and replays the ids in row order
// (AddBinned).
type MomentHist struct {
	cuts  []float64
	cnt   []float64
	sum   []float64
	sumsq []float64
	nanN  float64
	ix    stats.CutIndexer
}

// NewMomentHist creates a moment histogram over ascending cut points
// (len(cuts)+1 bins). The cuts slice is retained and must not be modified.
func NewMomentHist(cuts []float64) *MomentHist {
	nb := len(cuts) + 1
	h := &MomentHist{
		cuts:  cuts,
		cnt:   make([]float64, nb),
		sum:   make([]float64, nb),
		sumsq: make([]float64, nb),
	}
	h.ix.Reset(cuts)
	return h
}

// Add observes one (value, target) observation.
func (h *MomentHist) Add(v, y float64) {
	if math.IsNaN(v) {
		h.nanN++
		return
	}
	b := h.ix.Find(v)
	h.cnt[b]++
	h.sum[b] += y
	h.sumsq[b] += y * y
}

// AddCol observes a column of values against parallel targets.
func (h *MomentHist) AddCol(vals, targets []float64) {
	for i, v := range vals {
		h.Add(v, targets[i])
	}
}

// BinIDs fills dst (len(vals)) with each value's bin index, -1 for NaN,
// without touching the accumulators. It only reads the cut index, so
// concurrent BinIDs calls on one histogram are safe — this is how partitions
// bin in parallel while AddBinned keeps the float sums in row order.
func (h *MomentHist) BinIDs(vals []float64, dst []int32) {
	for i, v := range vals {
		if math.IsNaN(v) {
			dst[i] = -1
			continue
		}
		dst[i] = int32(h.ix.Find(v))
	}
}

// AddBinned replays precomputed bin ids against parallel targets in row
// order — the exact float additions AddCol(vals, targets) would perform, so
// a partition-parallel binning pass folded through AddBinned in partition
// order stays bit-identical to a single sequential pass.
func (h *MomentHist) AddBinned(ids []int32, targets []float64) {
	for i, b := range ids {
		if b < 0 {
			h.nanN++
			continue
		}
		y := targets[i]
		h.cnt[b]++
		h.sum[b] += y
		h.sumsq[b] += y * y
	}
}

// Criterion returns the correlation ratio η² of the binned target,
// reproducing stats.CritScratch.CorrelationRatio exactly given the same
// cuts and row order.
func (h *MomentHist) Criterion() float64 {
	if len(h.cuts) == 0 {
		return 0
	}
	return stats.CorrelationRatioFromMoments(h.cnt, h.sum, h.sumsq)
}
