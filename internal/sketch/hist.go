package sketch

import (
	"fmt"
	"math"

	"repro/internal/stats"
)

// LabelHist is a mergeable binned label-count histogram over fixed cut
// points: bin b counts the positive and negative labels of rows whose value
// falls in (cuts[b-1], cuts[b]] — the convention stats.Digitize and the GBDT
// binner share. NaN values are counted separately and excluded from bins,
// matching stats.InformationValue. Counts are integers stored in float64, so
// Merge is exact and exactly order-invariant.
type LabelHist struct {
	cuts     []float64
	pos, neg []float64 // len(cuts)+1 bins
	nanPos   float64
	nanNeg   float64
	ix       stats.CutIndexer
	slab     []int32 // AddColBits scratch: interleaved neg/pos counts
}

// NewLabelHist creates a histogram over the given ascending cut points
// (len(cuts)+1 bins; nil cuts yield a single bin). The cuts slice is
// retained and must not be modified.
func NewLabelHist(cuts []float64) *LabelHist {
	h := &LabelHist{
		cuts: cuts,
		pos:  make([]float64, len(cuts)+1),
		neg:  make([]float64, len(cuts)+1),
	}
	h.ix.Reset(cuts)
	return h
}

// Shadow returns a histogram sharing h's cut points and bucket index
// (read-only) with fresh counts, so partitions can accumulate concurrently
// and fold back with Merge — counts are integral, so the fold is exact. A
// shadow must not outlive h.
func (h *LabelHist) Shadow() *LabelHist {
	sh := &LabelHist{
		cuts: h.cuts,
		pos:  make([]float64, len(h.pos)),
		neg:  make([]float64, len(h.neg)),
	}
	sh.ix = h.ix
	return sh
}

// Add observes one (value, binary label) observation.
func (h *LabelHist) Add(v, label float64) {
	if math.IsNaN(v) {
		if label > 0.5 {
			h.nanPos++
		} else {
			h.nanNeg++
		}
		return
	}
	b := h.ix.Find(v)
	if label > 0.5 {
		h.pos[b]++
	} else {
		h.neg[b]++
	}
}

// AddCol observes a column of values against parallel labels.
func (h *LabelHist) AddCol(vals, labels []float64) {
	for i, v := range vals {
		h.Add(v, labels[i])
	}
}

// AddColBits is AddCol with the labels pre-thresholded to 0/1 bits (bit =
// 1 iff label > 0.5). Random binary labels make Add's label branch
// mispredict on every other row, so the hot pass precomputes the bits once
// and this path accumulates into an interleaved count slab with no
// label-dependent branch. The counts folded into pos/neg are identical to
// AddCol's — integer arithmetic, exactly order-invariant.
func (h *LabelHist) AddColBits(vals []float64, bits []uint8) {
	nb := len(h.pos)
	if cap(h.slab) < 2*nb {
		h.slab = make([]int32, 2*nb)
	}
	slab := h.slab[:2*nb]
	for i := range slab {
		slab[i] = 0
	}
	var nanPos, nanNeg int32
	for i, v := range vals {
		if math.IsNaN(v) {
			bit := int32(bits[i])
			nanPos += bit
			nanNeg += 1 - bit
			continue
		}
		b := h.ix.Find(v)
		slab[2*b+int(bits[i])]++
	}
	for b := 0; b < nb; b++ {
		h.neg[b] += float64(slab[2*b])
		h.pos[b] += float64(slab[2*b+1])
	}
	h.nanPos += float64(nanPos)
	h.nanNeg += float64(nanNeg)
}

// Merge folds another histogram into h. The cut arrays must be identical.
func (h *LabelHist) Merge(o *LabelHist) error {
	if len(o.cuts) != len(h.cuts) {
		return fmt.Errorf("sketch: merge label hists with %d vs %d cuts", len(o.cuts), len(h.cuts))
	}
	for i := range h.cuts {
		if h.cuts[i] != o.cuts[i] {
			return fmt.Errorf("sketch: merge label hists with different cut %d", i)
		}
	}
	for b := range h.pos {
		h.pos[b] += o.pos[b]
		h.neg[b] += o.neg[b]
	}
	h.nanPos += o.nanPos
	h.nanNeg += o.nanNeg
	return nil
}

// Counts returns the per-bin positive and negative counts (not copies).
func (h *LabelHist) Counts() (pos, neg []float64) { return h.pos, h.neg }

// MergeHist implements CriterionHist.
func (h *LabelHist) MergeHist(o CriterionHist) error {
	oh, ok := o.(*LabelHist)
	if !ok {
		return fmt.Errorf("sketch: merge %T into *LabelHist", o)
	}
	return h.Merge(oh)
}

// Criterion implements CriterionHist: the binary Information Value.
func (h *LabelHist) Criterion() float64 { return h.IV() }

// IV returns the Information Value of the binned feature, reproducing
// stats.InformationValue's Laplace smoothing exactly given the same cuts: a
// histogram with no cuts (a single bin, e.g. an all-NaN column) scores 0.
func (h *LabelHist) IV() float64 {
	if len(h.cuts) == 0 {
		return 0
	}
	var np, nn float64
	for b := range h.pos {
		np += h.pos[b]
		nn += h.neg[b]
	}
	return stats.IVFromCounts(h.pos, h.neg, np, nn)
}
