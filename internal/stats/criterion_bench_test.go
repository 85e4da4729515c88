package stats

import (
	"math/rand"
	"testing"
)

var criterionSink float64

// BenchmarkCriterion times CritScratch.Criterion for the three tasks, each
// over a target code built once as a fit builds it, on the three arithmetic
// candidate kinds of a generation round, 20k rows each, in ns per row. The
// ratio column is the heavy-tailed case (a Cauchy-like quotient of
// two normals) that a probe over a base column cannot see: a finder whose
// cost depends on the tails reads it several times slower than the sum.
func BenchmarkCriterion(b *testing.B) {
	const n = 20000
	rng := rand.New(rand.NewSource(18))
	x, y := make([]float64, n), make([]float64, n)
	for i := range x {
		x[i], y[i] = rng.NormFloat64(), rng.NormFloat64()
	}
	kinds := []struct {
		name string
		f    func(a, b float64) float64
	}{
		{"sum", func(a, b float64) float64 { return a + b }},
		{"product", func(a, b float64) float64 { return a * b }},
		{"ratio", func(a, b float64) float64 { return a / b }},
	}
	binary, classes, target := make([]float64, n), make([]float64, n), make([]float64, n)
	for i := range binary {
		if x[i]+0.5*rng.NormFloat64() > 0 {
			binary[i] = 1
		}
		classes[i] = float64(rng.Intn(3))
		target[i] = x[i] - y[i] + rng.NormFloat64()
	}
	var crit CritScratch
	criteria := []struct {
		name   string
		code   *TargetCode
		labels []float64
	}{
		{"binary", &TargetCode{Classes: 2, Binary: true}, binary},
		{"multiclass:3", &TargetCode{Classes: 3}, classes},
		{"regression", &TargetCode{}, target},
	}
	for _, c := range criteria {
		c.code.Encode(c.labels)
	}
	for _, kind := range kinds {
		col := make([]float64, n)
		for i := range col {
			col[i] = kind.f(x[i], y[i])
		}
		for _, c := range criteria {
			b.Run(kind.name+"/"+c.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					criterionSink = crit.Criterion(col, c.code, 10)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/row")
			})
		}
	}
}
