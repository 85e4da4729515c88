package operators

import (
	"math"
	"math/rand"
	"testing"
)

func TestRidgeExactFit(t *testing.T) {
	// y = 2x + 3 exactly; tiny alpha recovers the coefficients.
	n := 50
	x := make([]float64, n)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		x[i] = float64(i)
		y[i] = 2*x[i] + 3
	}
	r, err := trainRidge([][]float64{x}, y, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.w[0]-2) > 1e-3 {
		t.Errorf("slope = %v, want 2", r.w[0])
	}
	if math.Abs(r.b-3) > 1e-2 {
		t.Errorf("intercept = %v, want 3", r.b)
	}
}

func TestRidgeMultiFeature(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	n := 500
	x1 := make([]float64, n)
	x2 := make([]float64, n)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		x1[i] = rng.NormFloat64()
		x2[i] = rng.NormFloat64()
		y[i] = 1.5*x1[i] - 0.5*x2[i] + 0.01*rng.NormFloat64()
	}
	r, err := trainRidge([][]float64{x1, x2}, y, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.w[0]-1.5) > 0.05 || math.Abs(r.w[1]+0.5) > 0.05 {
		t.Errorf("weights = %v, want [1.5, -0.5]", r.w)
	}
}

func TestRidgeRegularisationShrinks(t *testing.T) {
	n := 100
	x := make([]float64, n)
	y := make([]float64, n)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < n; i++ {
		x[i] = rng.NormFloat64()
		y[i] = 4 * x[i]
	}
	small, err := trainRidge([][]float64{x}, y, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	large, err := trainRidge([][]float64{x}, y, 1e4)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(large.w[0]) >= math.Abs(small.w[0]) {
		t.Errorf("alpha=1e4 weight %v not smaller than alpha=1e-6 weight %v", large.w[0], small.w[0])
	}
}

func TestRidgeValidation(t *testing.T) {
	if _, err := trainRidge(nil, []float64{1}, 1); err == nil {
		t.Error("accepted no features")
	}
	if _, err := trainRidge([][]float64{{1, 2}}, []float64{1}, 1); err == nil {
		t.Error("accepted length mismatch")
	}
}
