package sketch

import (
	"math"

	"repro/internal/stats"
)

// LabelHist is a binned label-count histogram over fixed cut points: bin b
// counts the positive and negative labels of rows whose value falls in
// (cuts[b-1], cuts[b]] — the convention stats.Digitize and the GBDT binner
// share. NaN values are counted separately and excluded from bins, matching
// stats.InformationValue. No fit uses it: it is the binary-task kernel the
// repository benchmark's sketch.hist_ns_per_row probe times.
type LabelHist struct {
	pos, neg []float64 // len(cuts)+1 bins
	nanPos   float64
	nanNeg   float64
	ix       stats.CutIndexer
}

// NewLabelHist creates a histogram over the given ascending cut points
// (len(cuts)+1 bins; nil cuts yield a single bin). The cuts slice is
// retained and must not be modified.
func NewLabelHist(cuts []float64) *LabelHist {
	h := &LabelHist{
		pos: make([]float64, len(cuts)+1),
		neg: make([]float64, len(cuts)+1),
	}
	h.ix.Reset(cuts)
	return h
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
