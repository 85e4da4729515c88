package core

import (
	"math"
	"sync/atomic"

	"repro/internal/operators"
	"repro/internal/parallel"
	"repro/internal/stats"
)

// criterionScratch is the working state of one goroutine computing
// relevance criteria.
type criterionScratch struct {
	crit stats.CritScratch
	iv   stats.IVScratch // the equal-width ablation's
}

// criterion calculates the task's relevance criterion of a column over the
// fit's target code, using equal-frequency binning — the Information Value
// of Algorithm 3 for the binary task, its per-class generalisation for
// multiclass, the correlation ratio η² for regression — or, in the binary
// equal-width ablation, the IV of equal-width bins of the labels.
func (s *criterionScratch) criterion(col, labels []float64, code *stats.TargetCode, bins int, equalWidth bool) float64 {
	if equalWidth {
		return s.iv.InformationValueWidth(col, labels, bins)
	}
	return s.crit.Criterion(col, code, bins)
}

// computeCriteria calculates the criterion of every column, column-parallel
// on the shared pool. Each chunk amortises one scratch from the list across
// its columns.
func computeCriteria(cols [][]float64, labels []float64, code *stats.TargetCode, bins int, equalWidth bool, pool *parallel.Pool, scratches *scratchList) []float64 {
	out := make([]float64, len(cols))
	pool.ForChunks(len(cols), pool.Grain(len(cols)), func(lo, hi int) {
		sc := scratches.get()
		defer scratches.put(sc)
		for j := lo; j < hi; j++ {
			out[j] = sc.criterion(cols[j], labels, code, bins, equalWidth)
		}
	})
	return out
}

// pearsonScan is Algorithm 4's test over columns standardised only as the
// greedy scan reaches them, so a round holds the kept candidates' buffers and
// one window instead of every IV survivor's. On standardised columns
// Pearson(x,y) = x̃·ỹ/n, a single dot product. The scan walks the
// candidates in greedyDedup's order (IV descending): the first test of a
// candidate no window has reached takes it and the next untaken candidates
// of that order, up to a window, each into an arena buffer the pool fills
// and standardises in place, one task per column. A candidate found
// correlated gives its buffer back before the next test, and so does a
// constant one, which correlates with nothing (stats.Pearson returns 0;
// kept, the ranker buries it). The order only decides what a window takes
// ahead: a candidate tested out of it is standardised alone, on demand, so
// the answers never depend on it and the scan never holds more than the
// kept buffers and one window. A kept candidate's buffer stays in its std
// for Bin or Carry.
type pearsonScan struct {
	theta float64
	pool  *parallel.Pool
	arena *operators.Arena
	cols  []*liveFeature // by candidate index
	order []int          // the candidates in greedyDedup's order
	next  int            // order[next:] is what no window has passed yet
	taken []bool         // by candidate index: a window has standardised it
	win   []*liveFeature // the window being standardised
	flat  []bool         // win[i] is constant
}

// newPearsonScan prepares the scan of candidates, whose criteria ivs are
// indexed like cols. A window is two columns per pool worker: enough for
// one pool region to keep every worker busy, few enough that what the scan
// holds ahead of its tests stays a handful of columns.
func newPearsonScan(cols []*liveFeature, ivs []float64, candidates []int, theta float64, pool *parallel.Pool, arena *operators.Arena) *pearsonScan {
	order := append([]int(nil), candidates...)
	sortByIVDesc(order, ivs)
	window := 2 * pool.Workers()
	return &pearsonScan{
		theta: theta, pool: pool, arena: arena, cols: cols, order: order,
		taken: make([]bool, len(cols)),
		win:   make([]*liveFeature, 0, window),
		flat:  make([]bool, window),
	}
}

// correlated is greedyDedup's test, called once per candidate: does
// candidate j correlate above θ, in absolute value, with any of among?
func (s *pearsonScan) correlated(j int, among []int) bool {
	if !s.taken[j] {
		s.take(j)
	}
	lf := s.cols[j]
	if lf.std == nil || !corrAny(lf.std, s.cols, among, s.theta, s.pool) {
		return false
	}
	s.arena.Put(lf.std)
	lf.std = nil
	return true
}

// take standardises candidate j on the pool: with the next untaken
// candidates of the order, up to a window, when j is the order's next one,
// alone when a test runs out of the order. A constant column's buffer goes
// back to the arena at once.
func (s *pearsonScan) take(j int) {
	for s.next < len(s.order) && s.taken[s.order[s.next]] {
		s.next++
	}
	inOrder := s.next < len(s.order) && s.order[s.next] == j
	win := append(s.win[:0], s.cols[j])
	s.taken[j] = true
	for ; inOrder && s.next < len(s.order) && len(win) < cap(win); s.next++ {
		if k := s.order[s.next]; !s.taken[k] {
			win = append(win, s.cols[k])
			s.taken[k] = true
		}
	}
	for _, lf := range win {
		lf.std = s.arena.Get()
	}
	s.pool.ForChunks(len(win), 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			win[i].values(win[i].std)
			s.flat[i] = !standardizeCol(win[i].std)
		}
	})
	for i, lf := range win {
		if s.flat[i] {
			s.arena.Put(lf.std)
			lf.std = nil
		}
	}
}

// standardizeCol replaces col by (x - mean)/std in place, NaNs mapped to 0,
// and reports true; a constant column is left as it is and reports false.
func standardizeCol(col []float64) bool {
	mean, stdv, _ := stats.MeanStd(col)
	if stdv < 1e-12 { // constant, or no value at all
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

// corrAny reports whether the standardised column x correlates above theta
// (absolute) with the standardised column of any candidate in kept; a kept
// constant one (std nil) correlates with nothing. The scan is
// chunk-parallel with a shared early-exit flag; the answer (a pure any-of)
// is independent of which chunk finds a correlate first.
func corrAny(x []float64, cols []*liveFeature, kept []int, theta float64, pool *parallel.Pool) bool {
	if len(kept) == 0 {
		return false
	}
	limit := theta * float64(len(x))
	check := func(k int) bool {
		y := cols[k].std
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
