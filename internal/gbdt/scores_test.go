package gbdt

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// TestTrainingScoresMatchPredict: the raw scores the booster keeps while it
// trains — added leaf by leaf on the rows the partition placed — are, bit for
// bit, the base score plus the sum of every tree's PredictRow on the raw row,
// for every objective, and equal to the one-worker scores on any worker
// count. The rows outnumber rowGrain, so the softmax is split into chunks
// whenever there is more than one worker, and a level's nodes and histogram
// tasks are shared with the pool. The columns carry NaN and ±Inf cells, so
// missing-value directions and the extreme bins are placed too.
func TestTrainingScoresMatchPredict(t *testing.T) {
	const n, m = 3*rowGrain + 100, 6
	rng := rand.New(rand.NewSource(29))
	cols := make([][]float64, m)
	for j := range cols {
		cols[j] = make([]float64, n)
		for i := range cols[j] {
			switch u := rng.Float64(); {
			case u < 0.04:
				cols[j][i] = math.NaN()
			case u < 0.05:
				cols[j][i] = math.Inf(1 - 2*(i%2))
			default:
				cols[j][i] = rng.NormFloat64()
			}
		}
	}
	signal := func(i int) float64 {
		s := 0.0
		for _, j := range []int{0, 1, 2} {
			if v := cols[j][i]; !math.IsNaN(v) && !math.IsInf(v, 0) {
				s += v * float64(j+1)
			}
		}
		return s
	}
	labels := map[Objective][]float64{}
	for _, obj := range []Objective{Logistic, Squared, Softmax} {
		y := make([]float64, n)
		for i := range y {
			s := signal(i)
			switch {
			case obj == Squared:
				y[i] = s
			case s > 1 && obj == Softmax:
				y[i] = 2
			case s > 0 && obj == Logistic, s > -1 && obj == Softmax:
				y[i] = 1
			}
		}
		labels[obj] = y
	}

	// Depth 1 leaves hold more than rowGrain rows each, and their leaf updates
	// run side by side on the pool; depth 5 gives deep paths.
	row := make([]float64, m)
	for _, obj := range []Objective{Logistic, Squared, Softmax} {
		for _, depth := range []int{1, 5} {
			var serial [][]float64 // the one-worker scores
			for _, workers := range []int{1, 2, 3, 8} {
				name := fmt.Sprintf("objective=%d depth=%d workers=%d", obj, depth, workers)
				cfg := DefaultConfig()
				cfg.NumTrees, cfg.MaxDepth, cfg.Workers = 6, depth, workers
				if obj == Softmax {
					cfg.NumClass = 3
				}
				cfg.Objective = obj
				pb, err := BinColumns(cols, cfg)
				if err != nil {
					t.Fatal(err)
				}
				model, raw, err := trainBinned(context.Background(), pb, labels[obj], nil, cfg)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				groups := model.NumGroups()
				if len(raw) != groups {
					t.Fatalf("%s: %d score groups, want %d", name, len(raw), groups)
				}
				if serial == nil {
					serial = raw
				}
				for i := 0; i < n; i++ {
					for j := range cols {
						row[j] = cols[j][i]
					}
					for g := range raw {
						want := model.BaseScore
						if obj == Softmax {
							want = model.BaseScores[g]
						}
						for ti := g; ti < len(model.Trees); ti += groups {
							want += model.Trees[ti].PredictRow(row)
						}
						if math.Float64bits(raw[g][i]) != math.Float64bits(want) {
							t.Fatalf("%s: row %d group %d: training score %v, trees say %v", name, i, g, raw[g][i], want)
						}
						if math.Float64bits(raw[g][i]) != math.Float64bits(serial[g][i]) {
							t.Fatalf("%s: row %d group %d: score %v, one worker gave %v", name, i, g, raw[g][i], serial[g][i])
						}
					}
				}
			}
		}
	}
}
