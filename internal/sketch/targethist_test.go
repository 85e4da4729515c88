package sketch

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/stats"
)

func targetData(n int, seed int64) (vals, classes, targets []float64) {
	rng := rand.New(rand.NewSource(seed))
	vals = make([]float64, n)
	classes = make([]float64, n)
	targets = make([]float64, n)
	for i := range vals {
		vals[i] = rng.NormFloat64()
		classes[i] = float64(rng.Intn(3))
		targets[i] = 2*vals[i] + rng.NormFloat64()
	}
	for i := 0; i < n; i += 41 {
		vals[i] = math.NaN()
	}
	return vals, classes, targets
}

// TestClassHistMatchesScratch: a ClassHist over the same cuts holds the
// counts the in-memory CritScratch criterion is computed from.
func TestClassHistMatchesScratch(t *testing.T) {
	vals, classes, _ := targetData(3000, 1)
	cuts := stats.Quantiles(vals, 10)

	var s stats.CritScratch
	want := s.MulticlassIV(vals, classes, 3, 10)

	whole := NewClassHist(cuts, 3)
	whole.AddCol(vals, classes)
	if got := stats.MulticlassIVFromCounts(whole.counts); got != want {
		t.Fatalf("ClassHist counts: %g, scratch %g", got, want)
	}
}

// TestLabelHistMatchesInformationValue: a LabelHist over the cuts
// stats.InformationValue bins on holds the counts it is computed from.
func TestLabelHistMatchesInformationValue(t *testing.T) {
	vals, classes, _ := targetData(3000, 4)
	labels := make([]float64, len(classes))
	for i, c := range classes {
		if c == 2 || (c == 1 && vals[i] > 0) {
			labels[i] = 1
		}
	}
	cuts := stats.Quantiles(vals, 10)
	h := NewLabelHist(cuts)
	h.AddCol(vals, labels)
	var np, nn float64
	for b := range h.pos {
		np += h.pos[b]
		nn += h.neg[b]
	}
	want := stats.InformationValue(vals, labels, 10)
	if got := stats.IVFromCounts(h.pos, h.neg, np, nn); got != want {
		t.Fatalf("LabelHist counts: IV %g, stats.InformationValue %g", got, want)
	}
}

// TestMomentHistMatchesScratch: a MomentHist over the cuts the in-memory
// kernel bins on holds each bin's rows and row-order target sums, and counts
// the NaN rows apart.
func TestMomentHistMatchesScratch(t *testing.T) {
	vals, _, targets := targetData(3000, 2)
	cuts := stats.Quantiles(vals, 10)
	nb := len(cuts) + 1
	cnt, sum, sumsq := make([]float64, nb), make([]float64, nb), make([]float64, nb)
	var nan float64
	for i, v := range vals {
		if v != v {
			nan++
			continue
		}
		b := stats.SearchCuts(cuts, v)
		cnt[b]++
		sum[b] += targets[i]
		sumsq[b] += targets[i] * targets[i]
	}
	h := NewMomentHist(cuts)
	h.AddCol(vals, targets)
	for b := range cnt {
		if h.cnt[b] != cnt[b] || h.sum[b] != sum[b] || h.sumsq[b] != sumsq[b] {
			t.Fatalf("bin %d: MomentHist (%g, %g, %g), reference (%g, %g, %g)", b, h.cnt[b], h.sum[b], h.sumsq[b], cnt[b], sum[b], sumsq[b])
		}
	}
	if h.nanN != nan {
		t.Fatalf("MomentHist counted %g NaN rows, want %g", h.nanN, nan)
	}
}

// TestClassHistAbsentClass: a class that no row carries counts zero in every
// bin, and the counts still give the scratch criterion.
func TestClassHistAbsentClass(t *testing.T) {
	vals, classes, _ := targetData(2000, 3)
	for i := range classes {
		if classes[i] == 2 {
			classes[i] = float64(i % 2)
		}
	}
	cuts := stats.Quantiles(vals, 10)
	h := NewClassHist(cuts, 3)
	h.AddCol(vals, classes)
	for b, n := range h.counts[2] {
		if n != 0 {
			t.Fatalf("absent class counts %v in bin %d", n, b)
		}
	}
	var s stats.CritScratch
	if got, want := stats.MulticlassIVFromCounts(h.counts), s.MulticlassIV(vals, classes, 3, 10); got != want {
		t.Fatalf("absent class: %g vs scratch %g", got, want)
	}
}
