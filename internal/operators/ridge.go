package operators

import (
	"errors"
	"fmt"
	"math"
)

// RidgeOp returns the ridge-regression binary operator of Section III
// (after AutoLearn): the generated feature is the residual of regressing
// the second input on the first, capturing the part of b not linearly
// explained by a.
func RidgeOp(alpha float64) Operator { return &ridgeOp{alpha: alpha} }

type ridgeOp struct{ alpha float64 }

func (*ridgeOp) Name() string { return "ridge" }
func (*ridgeOp) Arity() Arity { return Binary }
func (o *ridgeOp) Fit(cols [][]float64) (Applier, error) {
	if len(cols) != 2 {
		return nil, errors.New("operators: ridge wants 2 inputs")
	}
	model, err := trainRidge(cols[:1], cols[1], o.alpha)
	if err != nil {
		return nil, fmt.Errorf("operators: ridge fit: %w", err)
	}
	return &ridgeApplier{model: model}, nil
}

type ridgeApplier struct{ model *ridge }

// newRidgeApplier reconstructs a ridge applier from serialised weights.
func newRidgeApplier(w []float64, b float64) Applier {
	return &ridgeApplier{model: &ridge{w: w, b: b}}
}

func (a *ridgeApplier) TransformInto(cols [][]float64, dst []float64) {
	var row [1]float64
	for i := range dst {
		row[0] = cols[0][i]
		dst[i] = cols[1][i] - a.model.predictRow(row[:])
	}
}
func (a *ridgeApplier) Formula(names []string) string {
	return fmt.Sprintf("ridge_resid(%s ~ %s; w=%.4g, b=%.4g)",
		names[1], names[0], a.model.w[0], a.model.b)
}

// ridge is a closed-form ridge regression of one target feature on one (or
// more) source features.
type ridge struct {
	w []float64
	b float64
}

// trainRidge solves (X'X + alpha I) w = X'y with Gaussian elimination. cols
// is column-major; y is the regression target.
func trainRidge(cols [][]float64, y []float64, alpha float64) (*ridge, error) {
	m := len(cols)
	if m == 0 {
		return nil, errors.New("ridge: no features")
	}
	n := len(y)
	for j := range cols {
		if len(cols[j]) != n {
			return nil, fmt.Errorf("ridge: column %d has %d rows, want %d", j, len(cols[j]), n)
		}
	}
	if alpha <= 0 {
		alpha = 1e-6
	}
	// Build the (m+1)x(m+1) normal system including a bias column.
	d := m + 1
	a := make([][]float64, d)
	for i := range a {
		a[i] = make([]float64, d+1)
	}
	get := func(j, i int) float64 {
		if j == m {
			return 1
		}
		v := cols[j][i]
		if math.IsNaN(v) {
			return 0
		}
		return v
	}
	for p := 0; p < d; p++ {
		for q := p; q < d; q++ {
			s := 0.0
			for i := 0; i < n; i++ {
				s += get(p, i) * get(q, i)
			}
			a[p][q] = s
			a[q][p] = s
		}
		if p < m {
			a[p][p] += alpha
		}
		s := 0.0
		for i := 0; i < n; i++ {
			s += get(p, i) * y[i]
		}
		a[p][d] = s
	}
	w, err := solve(a)
	if err != nil {
		return nil, err
	}
	return &ridge{w: w[:m], b: w[m]}, nil
}

// predictRow evaluates the regression for one row; a NaN input adds
// nothing.
func (r *ridge) predictRow(row []float64) float64 {
	s := r.b
	for j, v := range row {
		if math.IsNaN(v) {
			continue
		}
		s += r.w[j] * v
	}
	return s
}

// solve performs Gaussian elimination with partial pivoting on an augmented
// matrix a (d x d+1), returning the solution vector.
func solve(a [][]float64) ([]float64, error) {
	d := len(a)
	for p := 0; p < d; p++ {
		// Pivot.
		max, arg := math.Abs(a[p][p]), p
		for r := p + 1; r < d; r++ {
			if v := math.Abs(a[r][p]); v > max {
				max, arg = v, r
			}
		}
		if max < 1e-12 {
			return nil, errors.New("ridge: singular system")
		}
		a[p], a[arg] = a[arg], a[p]
		for r := p + 1; r < d; r++ {
			f := a[r][p] / a[p][p]
			for c := p; c <= d; c++ {
				a[r][c] -= f * a[p][c]
			}
		}
	}
	x := make([]float64, d)
	for p := d - 1; p >= 0; p-- {
		s := a[p][d]
		for c := p + 1; c < d; c++ {
			s -= a[p][c] * x[c]
		}
		x[p] = s / a[p][p]
	}
	return x, nil
}
