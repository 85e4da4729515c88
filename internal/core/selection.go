package core

import (
	"context"
	"math"
	"sync/atomic"

	"repro/internal/parallel"
	"repro/internal/stats"
)

// criterionScratch is the working state of one goroutine computing
// relevance criteria: the buffers of whichever criterion the task selects.
type criterionScratch struct {
	iv   stats.IVScratch
	crit stats.CritScratch
}

// criterion calculates the task-appropriate relevance criterion of a column
// against the labels using equal-frequency binning — the Information Value
// of Algorithm 3 for the binary task, its per-class generalisation for
// multiclass, the correlation ratio η² for regression.
func (s *criterionScratch) criterion(col, labels []float64, task Task, bins int, equalWidth bool) float64 {
	switch task.Kind {
	case TaskMulticlass:
		return s.crit.MulticlassIV(col, labels, task.Classes, bins)
	case TaskRegression:
		return s.crit.CorrelationRatio(col, labels, bins)
	}
	if equalWidth {
		return s.iv.InformationValueWidth(col, labels, bins)
	}
	return s.iv.InformationValue(col, labels, bins)
}

// computeCriteria calculates the criterion of every column, column-parallel
// on the shared pool. Each chunk amortises one scratch from the list across
// its columns.
func computeCriteria(cols [][]float64, labels []float64, task Task, bins int, equalWidth bool, pool *parallel.Pool, scratches *scratchList) []float64 {
	out := make([]float64, len(cols))
	pool.ForChunks(len(cols), pool.Grain(len(cols)), func(lo, hi int) {
		sc := scratches.get()
		defer scratches.put(sc)
		for j := lo; j < hi; j++ {
			out[j] = sc.criterion(cols[j], labels, task, bins, equalWidth)
		}
	})
	return out
}

// pearsonDedup is Algorithm 4 over resident columns: greedyDedup under the
// test pearsonTest builds.
func pearsonDedup(ctx context.Context, cols [][]float64, ivs []float64, candidates []int, theta float64, pool *parallel.Pool) ([]int, error) {
	correlated, err := pearsonTest(ctx, append([][]float64(nil), cols...), candidates, theta, pool)
	if err != nil {
		return nil, err
	}
	return greedyDedup(ctx, ivs, candidates, correlated)
}

// pearsonTest standardises the candidates' columns once up front
// (column-parallel), so each pairwise correlation is a single dot product
// (Pearson(x,y) = x̃·ỹ/n), and returns greedyDedup's test over them: the
// scan of one candidate against the kept set, on the shared pool. It takes
// cols over: a candidate's entry becomes its standardised column.
func pearsonTest(ctx context.Context, cols [][]float64, candidates []int, theta float64, pool *parallel.Pool) (func(j int, among []int) bool, error) {
	std := cols // NaN -> 0 == the mean after standardisation
	err := pool.ForChunksCtx(ctx, len(candidates), pool.Grain(len(candidates)), func(lo, hi int) {
		for _, j := range candidates[lo:hi] {
			std[j] = standardizeCol(cols[j])
		}
	})
	if err != nil {
		return nil, err
	}
	return func(j int, among []int) bool {
		// A constant column (std[j] == nil) correlates with nothing by
		// convention (stats.Pearson returns 0); kept, the ranker buries it.
		return std[j] != nil && corrAny(std, j, among, theta, pool)
	}, nil
}

// standardizeCol returns (x - mean)/std with NaNs mapped to 0, or nil for a
// constant column.
func standardizeCol(col []float64) []float64 {
	var sum float64
	n := 0
	for _, v := range col {
		if !math.IsNaN(v) {
			sum += v
			n++
		}
	}
	if n == 0 {
		return nil
	}
	mean := sum / float64(n)
	var ss float64
	for _, v := range col {
		if !math.IsNaN(v) {
			d := v - mean
			ss += d * d
		}
	}
	stdv := math.Sqrt(ss / float64(n))
	if stdv < 1e-12 {
		return nil
	}
	out := make([]float64, len(col))
	for i, v := range col {
		if math.IsNaN(v) {
			out[i] = 0
			continue
		}
		out[i] = (v - mean) / stdv
	}
	return out
}

// corrAny reports whether standardised column j correlates above theta
// (absolute) with any column in kept. The scan is chunk-parallel with a
// shared early-exit flag; the answer (a pure any-of) is independent of
// which chunk finds a correlate first.
func corrAny(std [][]float64, j int, kept []int, theta float64, pool *parallel.Pool) bool {
	if len(kept) == 0 {
		return false
	}
	x := std[j]
	limit := theta * float64(len(x))
	check := func(k int) bool {
		y := std[k]
		if y == nil {
			return false
		}
		var dot float64
		for i, v := range x {
			dot += v * y[i]
		}
		return math.Abs(dot) > limit
	}
	var found atomic.Bool
	pool.ForChunks(len(kept), 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if found.Load() {
				return
			}
			if check(kept[i]) {
				found.Store(true)
				return
			}
		}
	})
	return found.Load()
}
