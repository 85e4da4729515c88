package gbdt

import (
	"math"
	"math/rand"
	"testing"
)

// trainSink keeps the benchmarked models live.
var trainSink *Model

// benchColumns builds n rows of m standard-normal columns, every fifth one
// with 5% missing cells, and labels from a noisy interaction of the first
// four: {0,1} when classes is 0, else class indices in [0,classes).
func benchColumns(n, m, classes int) ([][]float64, []float64) {
	rng := rand.New(rand.NewSource(17))
	cols := make([][]float64, m)
	for j := range cols {
		cols[j] = make([]float64, n)
		for i := range cols[j] {
			if j%5 == 4 && rng.Float64() < 0.05 {
				cols[j][i] = math.NaN()
				continue
			}
			cols[j][i] = rng.NormFloat64()
		}
	}
	labels := make([]float64, n)
	for i := range labels {
		s := cols[0][i] + cols[1][i]*cols[2][i] - 0.5*cols[3][i] + 0.5*rng.NormFloat64()
		switch {
		case classes == 0 && s > 0:
			labels[i] = 1
		case classes > 0:
			c := int((math.Tanh(s) + 1) / 2 * float64(classes))
			labels[i] = float64(min(c, classes-1))
		}
	}
	return cols, labels
}

// BenchmarkTrainBinned times TrainBinned in the shape the SAFE miner and
// ranker train on the mem-binary and mem-mc3-iter2 benchmark workloads: the
// paper's booster (20 trees of depth 4, as core.PaperBooster) on 20k×50
// binary and 12k×50 three-class columns, binned once outside the timer.
func BenchmarkTrainBinned(b *testing.B) {
	for _, bc := range []struct {
		name          string
		n, m, classes int
	}{
		{"binary-20kx50", 20000, 50, 0},
		{"softmax3-12kx50", 12000, 50, 3},
	} {
		b.Run(bc.name, func(b *testing.B) {
			cols, labels := benchColumns(bc.n, bc.m, bc.classes)
			cfg := DefaultConfig()
			cfg.NumTrees, cfg.MaxDepth = 20, 4
			if bc.classes > 0 {
				cfg.Objective, cfg.NumClass = Softmax, bc.classes
			}
			pb, err := BinColumns(cols, cfg)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if trainSink, err = TrainBinned(pb, labels, nil, cfg); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Microseconds())/1e3/float64(b.N), "ms/model")
		})
	}
}
