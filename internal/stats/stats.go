package stats

import (
	"math"
)

// Thresholds from the paper's rules of thumb (Tables I and II).
const (
	// IVUseless .. IVExtremeStrong delimit the Information Value predictive
	// power bands of Table I.
	IVUseless       = 0.02
	IVWeak          = 0.1
	IVMedium        = 0.3
	IVStrong        = 0.5
	DefaultIVCutoff = 0.1 // α in Algorithm 3

	// Pearson correlation bands of Table II.
	PearsonVeryWeak      = 0.2
	PearsonWeak          = 0.4
	PearsonModerate      = 0.6
	PearsonStrong        = 0.8
	DefaultPearsonCutoff = 0.8 // θ in Algorithm 4
)

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// MeanStd returns the mean and the population standard deviation of the
// non-NaN values of xs, and how many there are; all three are 0 when xs
// holds no value. It makes two passes — the sum, then the squared
// deviations from the mean — and allocates nothing. Every column mean and
// deviation in the product is read from it, so standardised values agree
// bit for bit wherever they are computed; CI's lint keeps it the only
// two-pass deviation.
func MeanStd(xs []float64) (mean, std float64, n int) {
	var sum float64
	for _, v := range xs {
		if !math.IsNaN(v) {
			sum += v
			n++
		}
	}
	if n == 0 {
		return 0, 0, 0
	}
	mean = sum / float64(n)
	var ss float64
	for _, v := range xs {
		if !math.IsNaN(v) {
			d := v - mean
			ss += d * d
		}
	}
	return mean, math.Sqrt(ss / float64(n)), n
}

// entropyFromCounts is the Shannon entropy (nats) of a binary split of
// pos + neg labels.
func entropyFromCounts(pos, neg int) float64 {
	n := pos + neg
	if n == 0 || pos == 0 || neg == 0 {
		return 0
	}
	p := float64(pos) / float64(n)
	q := 1 - p
	return -p*math.Log(p) - q*math.Log(q)
}

// SplitEntropy is the intrinsic information of the partition itself
// (denominator of the gain ratio): -sum |part|/n log |part|/n.
func SplitEntropy(parts []int, numParts int) float64 {
	if numParts <= 0 {
		return 0
	}
	tot := make([]int, numParts)
	n := 0
	for _, p := range parts {
		if p < 0 || p >= numParts {
			continue
		}
		tot[p]++
		n++
	}
	if n == 0 {
		return 0
	}
	h := 0.0
	for p := 0; p < numParts; p++ {
		if tot[p] == 0 {
			continue
		}
		f := float64(tot[p]) / float64(n)
		h -= f * math.Log(f)
	}
	return h
}

// GainRatio computes the information gain ratio of a partition of rows with
// binary labels: (H(Y) - H(Y|partition)) / SplitEntropy(partition). Rows
// with part id < 0 (missing values) are excluded from both terms. It
// returns 0 when the split entropy is 0 (a degenerate one-part split).
func GainRatio(labels []float64, parts []int, numParts int) float64 {
	split := SplitEntropy(parts, numParts)
	if split <= 0 {
		return 0
	}
	base, cond := baseAndConditionalEntropy(labels, parts, numParts)
	gain := base - cond
	if gain < 0 {
		gain = 0
	}
	return gain / split
}

// InformationGain computes H(Y) - H(Y|partition) over the rows with a valid
// part id.
func InformationGain(labels []float64, parts []int, numParts int) float64 {
	base, cond := baseAndConditionalEntropy(labels, parts, numParts)
	g := base - cond
	if g < 0 {
		return 0
	}
	return g
}

// baseAndConditionalEntropy computes H(Y) and H(Y|partition) over the rows
// whose part id is valid, so both terms see the same population.
func baseAndConditionalEntropy(labels []float64, parts []int, numParts int) (base, cond float64) {
	pos := make([]int, numParts)
	tot := make([]int, numParts)
	n, allPos := 0, 0
	for i, p := range parts {
		if p < 0 || p >= numParts {
			continue
		}
		tot[p]++
		n++
		if labels[i] > 0.5 {
			pos[p]++
			allPos++
		}
	}
	if n == 0 {
		return 0, 0
	}
	base = entropyFromCounts(allPos, n-allPos)
	for p := 0; p < numParts; p++ {
		if tot[p] == 0 {
			continue
		}
		cond += float64(tot[p]) / float64(n) * entropyFromCounts(pos[p], tot[p]-pos[p])
	}
	return base, cond
}

// Pearson returns the Pearson correlation coefficient of x and y (Eq. 7).
// It returns 0 when either vector is constant.
func Pearson(x, y []float64) float64 {
	n := len(x)
	if n == 0 || n != len(y) {
		return 0
	}
	mx, my := Mean(x), Mean(y)
	var sxy, sxx, syy float64
	for i := 0; i < n; i++ {
		dx := x[i] - mx
		dy := y[i] - my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}

// Dot returns Σ x[i]·y[i] over i < len(x) (y may be longer). Four
// accumulators take every fourth term, so the adds overlap instead of waiting
// on one another: x·y reassociated, the same bits for the same inputs.
func Dot(x, y []float64) float64 {
	y = y[:len(x)]
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= len(x); i += 4 {
		s0 += x[i] * y[i]
		s1 += x[i+1] * y[i+1]
		s2 += x[i+2] * y[i+2]
		s3 += x[i+3] * y[i+3]
	}
	for ; i < len(x); i++ {
		s0 += x[i] * y[i]
	}
	return (s0 + s1) + (s2 + s3)
}

// Quantiles returns the q-quantile cut points of xs (q-1 interior points)
// using the nearest-rank method. NaNs are skipped. The cut values are the
// same a sorted copy would yield, but computed by multi-rank selection in
// expected O(n log q). Hot paths should use QuantileScratch to amortise the
// working buffers.
func Quantiles(xs []float64, q int) []float64 {
	var s QuantileScratch
	cuts := s.Quantiles(xs, q)
	if cuts == nil {
		return nil
	}
	return append([]float64(nil), cuts...)
}

// Digitize maps each value to its bin index given ascending cut points:
// bin b holds values in (cuts[b-1], cuts[b]]; values above the last cut go
// to bin len(cuts). NaNs map to -1.
func Digitize(xs []float64, cuts []float64) []int {
	out := make([]int, len(xs))
	for i, v := range xs {
		if math.IsNaN(v) {
			out[i] = -1
			continue
		}
		// SearchCuts returns the first index with cuts[j] >= v, which puts
		// v == cuts[j] into bin j: the (.., cuts[j]] convention.
		out[i] = SearchCuts(cuts, v)
	}
	return out
}

// EqualWidthBins assigns values to bins of equal width across [min,max].
func EqualWidthBins(xs []float64, bins int) ([]int, int) {
	if bins < 1 {
		bins = 1
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range xs {
		if math.IsNaN(v) {
			continue
		}
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	out := make([]int, len(xs))
	if !finiteRange(lo, hi) {
		for i, v := range xs {
			if math.IsNaN(v) {
				out[i] = -1
			}
		}
		return out, 1
	}
	w := (hi - lo) / float64(bins)
	for i, v := range xs {
		if math.IsNaN(v) {
			out[i] = -1
			continue
		}
		b := int((v - lo) / w)
		if b >= bins {
			b = bins - 1
		}
		out[i] = b
	}
	return out, bins
}

// finiteRange reports whether [lo, hi] can be cut into equal-width bins: a
// positive, finite width. An infinite end or a width that overflows would
// turn (v-lo)/w into NaN and the bin index into garbage, so such a column is
// treated like a constant one.
func finiteRange(lo, hi float64) bool {
	w := hi - lo
	return w > 0 && !math.IsInf(w, 0)
}

// InformationValue computes the IV of a feature against binary labels
// (Eq. 6) using equal-frequency binning into at most bins bins. Counts are
// Laplace-smoothed by 0.5 to keep the WoE finite on empty cells. Hot paths
// computing IVs for many columns should use IVScratch.
func InformationValue(feature, labels []float64, bins int) float64 {
	var s IVScratch
	return s.InformationValue(feature, labels, bins)
}

// InformationValueWidth is InformationValue with equal-width binning; used
// by the binning ablation.
func InformationValueWidth(feature, labels []float64, bins int) float64 {
	var s IVScratch
	return s.InformationValueWidth(feature, labels, bins)
}

// IVScratch computes Information Values with reusable buffers: one instance
// amortises the quantile working buffers and the bin-count arrays across an
// entire column sweep. The zero value is ready to use; not safe for
// concurrent use (hot paths keep one per worker).
type IVScratch struct {
	crit     CritScratch
	pos, neg []float64
}

// InformationValue is InformationValue with buffer reuse: the labels coded
// as a binary target (TargetCode), then CritScratch.Criterion.
func (s *IVScratch) InformationValue(feature, labels []float64, bins int) float64 {
	return s.crit.Criterion(feature, s.crit.encode(labels, 2, true), bins)
}

// InformationValueWidth is InformationValueWidth with buffer reuse.
func (s *IVScratch) InformationValueWidth(feature, labels []float64, bins int) float64 {
	if bins < 1 {
		bins = 1
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range feature {
		if math.IsNaN(v) {
			continue
		}
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if !finiteRange(lo, hi) {
		return 0
	}
	w := (hi - lo) / float64(bins)
	pos, neg := s.counts(bins)
	var np, nn float64
	for i, v := range feature {
		if math.IsNaN(v) {
			continue
		}
		b := int((v - lo) / w)
		if b >= bins {
			b = bins - 1
		}
		if labels[i] > 0.5 {
			pos[b]++
			np++
		} else {
			neg[b]++
			nn++
		}
	}
	return ivFromCounts(pos, neg, np, nn)
}

// counts returns zeroed pos/neg count slices of the given length.
func (s *IVScratch) counts(n int) (pos, neg []float64) {
	if cap(s.pos) < n {
		s.pos = make([]float64, n)
		s.neg = make([]float64, n)
	}
	pos, neg = s.pos[:n], s.neg[:n]
	for i := range pos {
		pos[i] = 0
		neg[i] = 0
	}
	return pos, neg
}

// IVFromCounts folds per-bin positive/negative label counts into the
// Information Value, with the same 0.5 Laplace smoothing as
// InformationValue. np and nn are the total positive/negative counts across
// the bins. It is the count-space entry point the mergeable sketches of the
// sharded fit engine use: counts accumulated per partition and summed give
// exactly the IV a single pass over the concatenated rows yields.
func IVFromCounts(pos, neg []float64, np, nn float64) float64 {
	return ivFromCounts(pos, neg, np, nn)
}

// ivFromCounts folds per-bin positive/negative counts into the IV, with the
// same 0.5 Laplace smoothing as ivFromAssignment.
func ivFromCounts(pos, neg []float64, np, nn float64) float64 {
	if np == 0 || nn == 0 {
		return 0
	}
	numBins := float64(len(pos))
	iv := 0.0
	for b := range pos {
		if pos[b]+neg[b] == 0 {
			continue
		}
		dp := (pos[b] + 0.5) / (np + 0.5*numBins)
		dn := (neg[b] + 0.5) / (nn + 0.5*numBins)
		iv += (dp - dn) * math.Log(dp/dn)
	}
	return iv
}

func ivFromAssignment(assign []int, numBins int, labels []float64) float64 {
	if numBins <= 1 {
		return 0
	}
	pos := make([]float64, numBins)
	neg := make([]float64, numBins)
	var np, nn float64
	for i, b := range assign {
		if b < 0 {
			continue
		}
		if labels[i] > 0.5 {
			pos[b]++
			np++
		} else {
			neg[b]++
			nn++
		}
	}
	if np == 0 || nn == 0 {
		return 0
	}
	iv := 0.0
	for b := 0; b < numBins; b++ {
		if pos[b]+neg[b] == 0 {
			continue
		}
		dp := (pos[b] + 0.5) / (np + 0.5*float64(numBins))
		dn := (neg[b] + 0.5) / (nn + 0.5*float64(numBins))
		iv += (dp - dn) * math.Log(dp/dn)
	}
	return iv
}

// KLD computes the Kullback-Leibler divergence sum_i p_i ln(p_i/q_i)
// (Eq. 15). Terms with p_i == 0 contribute 0; q_i == 0 with p_i > 0 yields
// +Inf, matching the mathematical definition.
func KLD(p, q []float64) float64 {
	d := 0.0
	for i := range p {
		if p[i] <= 0 {
			continue
		}
		if i >= len(q) || q[i] <= 0 {
			return math.Inf(1)
		}
		d += p[i] * math.Log(p[i]/q[i])
	}
	return d
}

// JSD computes the Jensen-Shannon divergence (Eq. 14) between two
// distributions padded to a common length.
func JSD(p, q []float64) float64 {
	n := len(p)
	if len(q) > n {
		n = len(q)
	}
	pp := padTo(p, n)
	qq := padTo(q, n)
	m := make([]float64, n)
	for i := 0; i < n; i++ {
		m[i] = 0.5 * (pp[i] + qq[i])
	}
	return 0.5 * (KLD(pp, m) + KLD(qq, m))
}

func padTo(p []float64, n int) []float64 {
	if len(p) == n {
		return p
	}
	out := make([]float64, n)
	copy(out, p)
	return out
}

// Normalize scales xs so it sums to 1; all-zero input is returned unchanged.
func Normalize(xs []float64) []float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	if s == 0 {
		return xs
	}
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x / s
	}
	return out
}
