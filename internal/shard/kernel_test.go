package shard

import (
	"math"
	"testing"

	"repro/internal/stats"
)

// TestGridKernelsMatchBuiltinForms holds the two per-value grid kernels,
// written with plain comparisons, to the float min and max builtins they
// replaced, bit for bit: valueRange's ends (the builtins order -0 below +0,
// which the constant-column test reads off the ends' bits) and the bucket
// stats.Grid.Bucket gives each value, over NaN, signed zeros, infinities,
// subnormals, an all-NaN column and a single value.
func TestGridKernelsMatchBuiltinForms(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	negZero := math.Copysign(0, -1)
	sub := math.SmallestNonzeroFloat64
	builtinRange := func(xs []float64) (lo, hi float64) {
		lo, hi = math.Inf(1), math.Inf(-1)
		for _, v := range xs {
			if v == v {
				lo, hi = min(lo, v), max(hi, v)
			}
		}
		return lo, hi
	}
	columns := map[string][]float64{
		"empty":                {},
		"all NaN":              {nan, nan, nan},
		"one value":            {42},
		"one NaN":              {nan},
		"+0":                   {0},
		"-0":                   {negZero},
		"+0 then -0":           {0, negZero},
		"-0 then +0":           {negZero, 0},
		"zeros inside":         {1, negZero, 0, 2},
		"zeros at the top":     {-1, 0, nan, negZero},
		"zeros at the bottom":  {negZero, 3, 0, 7},
		"-0 alone with NaN":    {nan, negZero, nan, negZero},
		"infinities":           {inf, -inf, 0.5},
		"+Inf alone":           {inf, inf},
		"-Inf and a value":     {-inf, 3},
		"subnormals":           {sub, -sub, 3 * sub, nan},
		"subnormals and zeros": {negZero, sub, 0, -sub},
		"extremes":             {math.MaxFloat64, -math.MaxFloat64, nan, 1e-300},
		"NaN around values":    {nan, 3, -2, nan, 7, nan},
	}
	for name, xs := range columns {
		lo, hi := valueRange(xs)
		wlo, whi := builtinRange(xs)
		if math.Float64bits(lo) != math.Float64bits(wlo) || math.Float64bits(hi) != math.Float64bits(whi) {
			t.Errorf("valueRange(%s %v) = [%v, %v], the builtins give [%v, %v]", name, xs, lo, hi, wlo, whi)
		}
	}
	grids := []stats.Grid{
		{Lo: 0, Scale: 1},
		{Lo: -1, Scale: 512},
		{Lo: 2.5, Scale: 1e-3},
		{Lo: -1e300, Scale: 1e-297},
		{Lo: sub, Scale: 1e300},
		{Lo: negZero, Scale: stats.NumBuckets},
	}
	for _, g := range grids {
		vals := []float64{g.Lo, g.Lo + 1/g.Scale, g.Lo + (stats.NumBuckets-1)/g.Scale, g.Lo + stats.NumBuckets/g.Scale, g.Lo - 1/g.Scale}
		for _, xs := range columns {
			vals = append(vals, xs...)
		}
		for _, v := range vals {
			want := int(max(0, min((v-g.Lo)*g.Scale, stats.NumBuckets-1)))
			if got := g.Bucket(v); got != want {
				t.Errorf("grid %+v: Bucket(%v) = %d, the builtins give %d", g, v, got, want)
			}
		}
	}
}
