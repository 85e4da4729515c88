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
// multiclass, the correlation ratio η² for regression, over the target coded
// once per fit (codeTarget).
func (s *criterionScratch) criterion(col, labels []float64, code *stats.TargetCode, task Task, bins int, equalWidth bool) float64 {
	switch task.Kind {
	case TaskMulticlass:
		return s.crit.MulticlassIV(col, labels, task.Classes, bins)
	case TaskRegression:
		return s.crit.CodedCorrelationRatio(col, code, bins)
	}
	if equalWidth {
		return s.iv.InformationValueWidth(col, labels, bins)
	}
	return s.iv.InformationValue(col, labels, bins)
}

// codeTarget codes a regression task's labels for its criterion, once per
// fit; nil for a count task.
func codeTarget(labels []float64, task Task) *stats.TargetCode {
	if task.Kind != TaskRegression {
		return nil
	}
	code := new(stats.TargetCode)
	code.Encode(labels)
	return code
}

// computeCriteria calculates the criterion of every column, column-parallel
// on the shared pool. Each chunk amortises one scratch from the list across
// its columns.
func computeCriteria(cols [][]float64, labels []float64, code *stats.TargetCode, task Task, bins int, equalWidth bool, pool *parallel.Pool, scratches *scratchList) []float64 {
	out := make([]float64, len(cols))
	pool.ForChunks(len(cols), pool.Grain(len(cols)), func(lo, hi int) {
		sc := scratches.get()
		defer scratches.put(sc)
		for j := lo; j < hi; j++ {
			out[j] = sc.criterion(cols[j], labels, code, task, bins, equalWidth)
		}
	})
	return out
}

// pearsonDedup is Algorithm 4 over resident columns: greedyDedup under the
// test pearsonTest builds over standardised copies of the candidates'
// columns. The caller's columns are left as they are.
func pearsonDedup(ctx context.Context, cols [][]float64, ivs []float64, candidates []int, theta float64, pool *parallel.Pool) ([]int, error) {
	correlated, err := pearsonTest(ctx, len(cols), candidates, theta, pool, func(j int) []float64 {
		return append([]float64(nil), cols[j]...)
	})
	if err != nil {
		return nil, err
	}
	return greedyDedup(ctx, ivs, candidates, correlated)
}

// pearsonTest standardises the candidates' columns once up front
// (column-parallel), so each pairwise correlation is a single dot product
// (Pearson(x,y) = x̃·ỹ/n), and returns greedyDedup's test over them: the
// scan of one candidate against the kept set, on the shared pool. column(j)
// returns candidate j's values (of n) in a buffer the test may standardise
// in place; it runs on the pool, once per candidate.
func pearsonTest(ctx context.Context, n int, candidates []int, theta float64, pool *parallel.Pool, column func(j int) []float64) (func(j int, among []int) bool, error) {
	std := make([][]float64, n) // NaN -> 0 == the mean after standardisation
	err := pool.ForChunksCtx(ctx, len(candidates), pool.Grain(len(candidates)), func(lo, hi int) {
		for _, j := range candidates[lo:hi] {
			if col := column(j); standardizeCol(col) {
				std[j] = col
			}
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

// standardizeCol replaces col by (x - mean)/std in place, NaNs mapped to 0,
// and reports true; a constant column is left as it is and reports false.
func standardizeCol(col []float64) bool {
	var sum float64
	n := 0
	for _, v := range col {
		if !math.IsNaN(v) {
			sum += v
			n++
		}
	}
	if n == 0 {
		return false
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
		return false
	}
	for i, v := range col {
		if math.IsNaN(v) {
			col[i] = 0
			continue
		}
		col[i] = (v - mean) / stdv
	}
	return true
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
		return math.Abs(stats.Dot(x, y)) > limit
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
