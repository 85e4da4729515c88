package sketch

import "math"

// Moments is a mergeable count/mean/M2 accumulator over the non-NaN values
// of a column (Welford update, Chan et al. pairwise merge). Rows holds the
// total observations including NaNs, so a merged Moments knows the full
// column length.
type Moments struct {
	Rows int64   // all observations, NaN included
	N    int64   // non-NaN observations
	Mean float64 // running mean of the non-NaN values
	M2   float64 // sum of squared deviations from the mean
	NaNs int64   // NaN observations
}

// AddAll observes a column of values, one Welford update each, in order,
// with the fields held in locals.
func (m *Moments) AddAll(vs []float64) {
	rows, n, nans := m.Rows, m.N, m.NaNs
	mean, m2 := m.Mean, m.M2
	for _, v := range vs {
		rows++
		if math.IsNaN(v) {
			nans++
			continue
		}
		n++
		d := v - mean
		mean += d / float64(n)
		m2 += d * (v - mean)
	}
	m.Rows, m.N, m.NaNs, m.Mean, m.M2 = rows, n, nans, mean, m2
}

// Merge folds another accumulator into m (Chan et al. parallel update).
func (m *Moments) Merge(o *Moments) {
	if o == nil || o.Rows == 0 {
		return
	}
	m.Rows += o.Rows
	m.NaNs += o.NaNs
	if o.N == 0 {
		return
	}
	if m.N == 0 {
		m.N, m.Mean, m.M2 = o.N, o.Mean, o.M2
		return
	}
	n1, n2 := float64(m.N), float64(o.N)
	d := o.Mean - m.Mean
	n := n1 + n2
	m.Mean += d * n2 / n
	m.M2 += o.M2 + d*d*n1*n2/n
	m.N += o.N
}

// Variance returns the population variance of the non-NaN values (0 when
// fewer than one value).
func (m *Moments) Variance() float64 {
	if m.N == 0 {
		return 0
	}
	return m.M2 / float64(m.N)
}

// Std returns the population standard deviation.
func (m *Moments) Std() float64 { return math.Sqrt(m.Variance()) }
