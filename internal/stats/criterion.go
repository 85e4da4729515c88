package stats

import "math"

// This file generalises the binary Information Value / gain-ratio criteria
// to the other task families of core.Task:
//
//   - multiclass: a one-vs-rest Information Value averaged over classes,
//     computed from per-class binned label counts (reduces to the binary IV
//     at K=2 up to floating-point symmetry), and an entropy gain ratio over
//     K-class cell counts;
//   - regression: the correlation ratio η² (one-way ANOVA between-group
//     share of variance) over binned targets, and a variance-reduction gain
//     ratio over cells, both over integer tallies of the coded target
//     (target.go).
//
// Every criterion has a count-space entry point operating on the exact
// integer statistics the sharded engine accumulates, so the in-memory and
// sharded fit paths score candidates through the same arithmetic.

// MulticlassIVFromCounts folds class-major binned label counts
// (counts[c][b] = rows of class c in bin b) into the multiclass Information
// Value: the mean over classes of the one-vs-rest binary IV, with the same
// 0.5 Laplace smoothing as IVFromCounts. Degenerate classes (empty, or
// covering every row) contribute 0, matching the binary convention. At K=2
// the result equals the binary IV up to floating-point rounding (the two
// one-vs-rest IVs are the same quantity with pos/neg swapped).
func MulticlassIVFromCounts(counts [][]float64) float64 {
	k := len(counts)
	if k == 0 || len(counts[0]) <= 1 {
		return 0
	}
	nb := len(counts[0])
	totals := make([]float64, k)
	binTotal := make([]float64, nb)
	var n float64
	for c := range counts {
		for b, v := range counts[c] {
			totals[c] += v
			binTotal[b] += v
		}
		n += totals[c]
	}
	// One-vs-rest counts come from the per-bin totals (exact: counts are
	// integer-valued), keeping the sweep O(K·B) rather than O(K²·B).
	neg := make([]float64, nb)
	var sum float64
	for c := 0; c < k; c++ {
		if totals[c] == 0 || totals[c] == n {
			continue
		}
		for b := 0; b < nb; b++ {
			neg[b] = binTotal[b] - counts[c][b]
		}
		sum += ivFromCounts(counts[c], neg, totals[c], n-totals[c])
	}
	return sum / float64(k)
}

// entropyK returns the Shannon entropy (nats) of class counts summing to n.
func entropyK(counts []int64, n float64) float64 {
	if n <= 0 {
		return 0
	}
	h := 0.0
	for _, c := range counts {
		if c <= 0 {
			continue
		}
		p := float64(c) / n
		h -= p * math.Log(p)
	}
	return h
}

// GainRatioClasses computes the information gain ratio of a partition of
// rows with K-class labels (class indices 0..k-1): the multiclass analogue
// of GainRatio. Rows with part id < 0 or an out-of-range class are excluded.
func GainRatioClasses(labels []float64, parts []int, numParts, k int) float64 {
	code := TargetCode{Classes: k, W: k}
	cells := make([]int64, numParts*k)
	for i, p := range parts {
		if p < 0 || p >= numParts {
			continue
		}
		c := int(labels[i])
		if c < 0 || c >= k {
			continue
		}
		cells[p*k+c]++
	}
	return code.GainRatio(cells)
}

// VarGainRatio computes the variance-reduction gain ratio of a partition of
// rows against a continuous target: the target coded (TargetCode), then
// TargetCode.VarGainRatio over the per-cell tallies. Rows with part id < 0
// are excluded.
func VarGainRatio(target []float64, parts []int, numParts int) float64 {
	var code TargetCode
	code.Encode(target)
	cells := make([]int64, numParts*Tally)
	for i, p := range parts {
		if p >= 0 && p < numParts {
			code.Add(cells[p*Tally:], code.Q[i])
		}
	}
	return code.VarGainRatio(cells)
}

// CritScratch computes every task's relevance criterion with reusable
// buffers: one instance amortises the quantile working buffers and the
// counters across a column sweep. The zero value is ready to use; not safe
// for concurrent use.
type CritScratch struct {
	q    QuantileScratch
	code TargetCode // the label-taking entry points' code of their labels
}

// Criterion is the task's relevance criterion (TargetCode.Criterion) of a
// feature binned equal-frequency into at most bins bins against the target
// the code was built from, row for row. NaN feature values are excluded.
// The per-bin counters come out of the quantile kernel's own two scans:
// integers, so the value is the one a row-order count would give.
func (s *CritScratch) Criterion(feature []float64, code *TargetCode, bins int) float64 {
	_, counters := s.q.cutsAndCounts(feature, code, bins)
	return code.Criterion(counters)
}

// encode codes labels into the scratch's code, for a count task of the given
// classes or, with none, a regression target.
func (s *CritScratch) encode(labels []float64, classes int, binary bool) *TargetCode {
	s.code.Classes, s.code.Binary = classes, binary
	s.code.Encode(labels)
	return &s.code
}

// MulticlassIV computes the multiclass Information Value of a feature
// against class-index labels (0..k-1) using equal-frequency binning into at
// most bins bins — the same cuts InformationValue uses, so the binary and
// multiclass criteria see identical partitions. NaN feature values and
// out-of-range classes are excluded.
func (s *CritScratch) MulticlassIV(feature, labels []float64, k, bins int) float64 {
	if k < 2 {
		return 0
	}
	return s.Criterion(feature, s.encode(labels, k, false), bins)
}

// CorrelationRatio computes η² of a continuous target against a feature
// binned equal-frequency into at most bins bins: the target coded in the
// scratch (TargetCode.Encode), then Criterion. A caller scoring many
// features against one target codes it once and calls Criterion.
func (s *CritScratch) CorrelationRatio(feature, target []float64, bins int) float64 {
	return s.Criterion(feature, s.encode(target, 0, false), bins)
}
