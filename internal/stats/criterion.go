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
func entropyK(counts []float64, n float64) float64 {
	if n <= 0 {
		return 0
	}
	h := 0.0
	for _, c := range counts {
		if c <= 0 {
			continue
		}
		p := c / n
		h -= p * math.Log(p)
	}
	return h
}

// GainRatioFromClassCounts computes the information gain ratio of a
// partition over K-class labels from flattened cell-major class counts:
// counts[cell*k+class] rows of that class in that cell. It is the K-class
// generalisation of GainRatioFromCounts and the count-space equivalent of
// GainRatioClasses; cell counts are integers, so per-partition counts merged
// by addition reproduce the single-pass value bit-for-bit.
func GainRatioFromClassCounts(counts []float64, cells, k int) float64 {
	tot := make([]float64, cells)
	classTot := make([]float64, k)
	var n float64
	for p := 0; p < cells; p++ {
		for c := 0; c < k; c++ {
			v := counts[p*k+c]
			tot[p] += v
			classTot[c] += v
		}
		n += tot[p]
	}
	if n == 0 {
		return 0
	}
	split := 0.0
	for p := 0; p < cells; p++ {
		if tot[p] == 0 {
			continue
		}
		f := tot[p] / n
		split -= f * math.Log(f)
	}
	if split <= 0 {
		return 0
	}
	base := entropyK(classTot, n)
	cond := 0.0
	for p := 0; p < cells; p++ {
		if tot[p] == 0 {
			continue
		}
		cond += tot[p] / n * entropyK(counts[p*k:(p+1)*k], tot[p])
	}
	gain := base - cond
	if gain < 0 {
		gain = 0
	}
	return gain / split
}

// GainRatioClasses computes the information gain ratio of a partition of
// rows with K-class labels (class indices 0..k-1): the multiclass analogue
// of GainRatio. Rows with part id < 0 or an out-of-range class are excluded.
func GainRatioClasses(labels []float64, parts []int, numParts, k int) float64 {
	counts := make([]float64, numParts*k)
	for i, p := range parts {
		if p < 0 || p >= numParts {
			continue
		}
		c := int(labels[i])
		if c < 0 || c >= k {
			continue
		}
		counts[p*k+c]++
	}
	return GainRatioFromClassCounts(counts, numParts, k)
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

// CritScratch computes task-aware relevance criteria with reusable buffers,
// the multiclass/regression counterpart of IVScratch: one instance amortises
// the quantile working buffers and the count/tally arrays across a column
// sweep. The zero value is ready to use; not safe for concurrent use.
type CritScratch struct {
	q      QuantileScratch
	counts [][]float64 // class-major class counts
	flat   []float64   // backing storage for counts
	code   TargetCode  // CorrelationRatio's coded target
	tally  []int64     // per-bin regression tallies
}

// MulticlassIV computes the multiclass Information Value of a feature
// against class-index labels (0..k-1) using equal-frequency binning into at
// most bins bins — the same cuts InformationValue uses, so the binary and
// multiclass criteria see identical partitions. NaN feature values and
// out-of-range classes are excluded. Like the binary criterion it takes its
// (integer) counts from the quantile kernel's two scans.
func (s *CritScratch) MulticlassIV(feature, labels []float64, k, bins int) float64 {
	if k < 2 {
		return 0
	}
	cuts, binned := s.q.cutsAndCounts(feature, labels, k, false, bins)
	numBins := len(cuts) + 1
	if numBins <= 1 {
		return 0
	}
	counts := s.classCounts(k, numBins)
	for b := 0; b < numBins; b++ {
		for c, v := range binned[b*(k+1):][:k] {
			counts[c][b] = float64(v)
		}
	}
	return MulticlassIVFromCounts(counts)
}

// CorrelationRatio computes η² of a continuous target against a feature
// binned equal-frequency into at most bins bins: the target coded in the
// scratch (TargetCode.Encode), then CodedCorrelationRatio. A caller scoring
// many features against one target codes it once and calls that.
func (s *CritScratch) CorrelationRatio(feature, target []float64, bins int) float64 {
	s.code.Encode(target)
	return s.CodedCorrelationRatio(feature, &s.code, bins)
}

// CodedCorrelationRatio computes η² of a coded target (built by Encode from
// the target's rows) against a feature binned equal-frequency into at most
// bins bins. NaN feature values are excluded. Each row is binned through the
// bucket the Quantiles call recorded for it and the bucket table it leaves
// behind, and its codes are added to its bin's tally: integers, so the row
// order does not matter.
func (s *CritScratch) CodedCorrelationRatio(feature []float64, code *TargetCode, bins int) float64 {
	cuts := s.q.Quantiles(feature, bins)
	numBins := len(cuts) + 1
	if numBins <= 1 {
		return 0
	}
	s.tally = grown(s.tally, numBins*Tally)
	clear(s.tally)
	for i, v := range feature {
		if v != v {
			continue
		}
		t := s.tally[s.q.binRow(i, v)*Tally:]
		t[0]++
		t[1] += code.Q[i]
		t[2] += code.Q2[i]
	}
	return code.CorrelationRatio(s.tally)
}

// classCounts returns a zeroed class-major count matrix from the scratch.
func (s *CritScratch) classCounts(k, bins int) [][]float64 {
	if cap(s.flat) < k*bins {
		s.flat = make([]float64, k*bins)
	}
	flat := s.flat[:k*bins]
	for i := range flat {
		flat[i] = 0
	}
	if cap(s.counts) < k {
		s.counts = make([][]float64, k)
	}
	counts := s.counts[:k]
	for c := 0; c < k; c++ {
		counts[c] = flat[c*bins : (c+1)*bins]
	}
	return counts
}
