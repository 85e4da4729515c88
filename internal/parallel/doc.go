// Package parallel provides the one bounded, reusable worker pool every hot
// path of this repository shares. It replaces the ad-hoc
// runtime.NumCPU()-goroutine spawns that used to live in candidate scoring,
// IV/Pearson selection and GBDT split finding with a single chunked
// parallel-for primitive.
//
// Design constraints, in order:
//
//  1. Determinism: results must be identical for any worker count.
//     ForChunks therefore hands callers disjoint index ranges and expects
//     outputs to be written to per-index (or per-chunk) slots; chunk
//     boundaries depend only on n, never on the worker count or on
//     scheduling.
//  2. Bounded concurrency: a pool owns a fixed set of long-lived worker
//     goroutines. Submitting work never spawns; a saturated pool simply
//     leaves the caller to chew through the chunks itself, which also makes
//     nested ForChunks calls deadlock-free.
//  3. Reuse: pools are cached per size (Get), so repeated Fit calls do not
//     churn goroutines.
//
// The canonical usage — score one slot per index, any worker count:
//
//	pool := parallel.Get(0) // GOMAXPROCS workers, cached
//	out := make([]float64, len(cols))
//	pool.ForChunks(len(cols), pool.Grain(len(cols)), func(lo, hi int) {
//		for j := lo; j < hi; j++ {
//			out[j] = score(cols[j]) // j touched by exactly one chunk
//		}
//	})
//
// Accumulators that are NOT per-index (e.g. the combination scorer's cell
// counts) follow the one-worker-per-accumulator pattern instead: chunk
// the accumulator axis with grain 1 so each accumulator is only ever
// touched by one worker, keeping accumulation order deterministic.
package parallel
