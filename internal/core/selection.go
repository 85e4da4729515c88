package core

import (
	"context"
	"math"
	"sort"
	"sync/atomic"

	"repro/internal/gbdt"
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

// ivFilter implements Algorithm 3: drop features whose IV is at or below the
// threshold alpha. To keep the pipeline robust on datasets where every
// feature is weak (possible with synthetic noise-heavy data), it falls back
// to the minKeep highest-IV features when fewer survive.
func ivFilter(ivs []float64, alpha float64, minKeep int) []int {
	kept := make([]int, 0, len(ivs))
	for j, iv := range ivs {
		if iv > alpha {
			kept = append(kept, j)
		}
	}
	if minKeep > len(ivs) {
		minKeep = len(ivs)
	}
	if len(kept) >= minKeep {
		return kept
	}
	// Fallback: top-minKeep by IV.
	idx := make([]int, len(ivs))
	for j := range idx {
		idx[j] = j
	}
	sort.Slice(idx, func(a, b int) bool {
		if ivs[idx[a]] != ivs[idx[b]] {
			return ivs[idx[a]] > ivs[idx[b]]
		}
		return idx[a] < idx[b]
	})
	out := append([]int(nil), idx[:minKeep]...)
	sort.Ints(out)
	return out
}

// pearsonDedup implements the intent of Algorithm 4: among features whose
// absolute Pearson correlation exceeds theta, keep the one with the higher
// IV. (The paper's pseudo-code as printed only *adds* the winner of each
// correlated pair and never admits uncorrelated features; the standard — and
// clearly intended — semantics implemented here is a greedy scan in
// descending-IV order that keeps a feature unless it correlates above theta
// with an already-kept feature.)
//
// Candidate columns are standardised once up front (column-parallel) so
// each pairwise correlation is a single dot product (Pearson(x,y) = x̃·ỹ/n),
// and the scans against the kept set run on the shared pool. The context is
// checked per candidate scan; a cancelled context returns ctx.Err().
func pearsonDedup(ctx context.Context, cols [][]float64, ivs []float64, candidates []int, theta float64, pool *parallel.Pool) ([]int, error) {
	order := append([]int(nil), candidates...)
	sort.Slice(order, func(a, b int) bool {
		if ivs[order[a]] != ivs[order[b]] {
			return ivs[order[a]] > ivs[order[b]]
		}
		return order[a] < order[b]
	})

	// Standardise candidates (NaN -> 0 == the mean after standardisation).
	stdByPos := make([][]float64, len(order))
	err := pool.ForChunksCtx(ctx, len(order), pool.Grain(len(order)), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			stdByPos[i] = standardizeCol(cols[order[i]])
		}
	})
	if err != nil {
		return nil, err
	}
	std := make(map[int][]float64, len(order))
	for i, j := range order {
		std[j] = stdByPos[i]
	}

	kept := make([]int, 0, len(order))
	for _, j := range order {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if std[j] == nil {
			// Constant column: correlates with nothing by convention
			// (stats.Pearson returns 0); keep it — the ranker will bury it.
			kept = append(kept, j)
			continue
		}
		if corrAny(std, j, kept, theta, pool) {
			continue
		}
		kept = append(kept, j)
	}
	sort.Ints(kept)
	return kept, nil
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
func corrAny(std map[int][]float64, j int, kept []int, theta float64, pool *parallel.Pool) bool {
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

// rankByGain trains the ranking XGBoost on the candidates' bin codes
// (feats[i] is candidate candidates[i]) and orders them by average split gain
// (Section IV-C3), returning candidate indices in descending importance. A
// feature that comes with codes at the ranker's bin count — a base candidate,
// binned for the miner — is taken as it is; the rest are binned here.
// Features the model never splits on rank last, tie broken by IV then index
// for determinism.
func rankByGain(ctx context.Context, feats []*liveFeature, labels []float64, ivs []float64, candidates []int, cfg gbdt.Config) ([]int, error) {
	model, err := trainBinned(ctx, feats, labels, nil, cfg)
	if err != nil {
		return nil, err
	}
	return OrderByGain(model.GainImportance(), ivs, candidates), nil
}
