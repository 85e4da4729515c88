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
// target over fixed cut points — the regression counterpart of LabelHist,
// kept for the benchmark's ingest probes: no fit path reads it, the
// regression criterion tallies coded targets (stats.TargetCode). NaN feature
// values are counted separately and excluded from bins.
type MomentHist struct {
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
		cnt:   make([]float64, nb),
		sum:   make([]float64, nb),
		sumsq: make([]float64, nb),
	}
	h.ix.Reset(cuts)
	return h
}

// AddCol observes a column of values against parallel targets.
func (h *MomentHist) AddCol(vals, targets []float64) {
	for i, v := range vals {
		if math.IsNaN(v) {
			h.nanN++
			continue
		}
		b, y := h.ix.Find(v), targets[i]
		h.cnt[b]++
		h.sum[b] += y
		h.sumsq[b] += y * y
	}
}
