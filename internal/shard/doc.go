// Package shard is the sharded, out-of-core fit engine: it runs the SAFE
// algorithm over a frame.ChunkSource whose partitions never coexist in
// memory, by replacing every full-column statistic of the in-memory path
// with a mergeable sketch (internal/sketch) accumulated per partition and
// merged by the fit loop.
//
// Every streaming pass is stated once, in three steps:
//
//	PassSpec → WorkerState.ComputePartial(ctx, spec, chunk) → fold(*Partial)
//
// The fit loop reifies the pass into a PassSpec (passes.go), an Executor
// pushes each chunk through the pass kind's one kernel (dispatch.go), and
// the fit loop folds the resulting Partials in partition-index order. Fit
// installs the in-process executor (runner.go), which hands partials to the
// fold by pointer; internal/dist's Coordinator is the same seam with a wire
// in the middle. The two differ in transport only, which is why selection
// is bit-identical across them.
//
// Passes run partition-serial and column-parallel: one chunk at a time, with
// the kernel's per-column loop and the fold's per-candidate loop spread over
// the internal/parallel pool. Every column is computed, and every candidate
// folded, by exactly one goroutine in the serial loop's arithmetic order, so
// selection is bit-identical across worker counts too.
//
// The engine makes a small number of streaming passes: two before the first
// iteration,
//
//  1. live stats — per-feature quantile sketches + moments, and the labels
//  2. live codes — bin the live features into resident uint8 codes
//
// and three per iteration,
//
//  3. candidate sketches — quantile sketches + moments of generated columns
//  4. candidate counts   — binned label histograms → Information Values
//  5. redundancy    — pairwise co-moments (Gram) of IV survivors + codes
//
// plus an exact-cut refinement gather after each sketch pass (skipped by
// Config.ApproxCuts): seven passes for a one-iteration fit.
//
// Everything the XGBoost miner and ranker consume is the resident binned
// matrix (1 byte per value, ~8× smaller than raw float64 columns) plus the
// labels — histogram GBDT training never touches raw values, and
// gbdt.TrainBinned is bit-identical to gbdt.Train given equal bins. Scoring
// the mined combinations needs no rows either: their split values are cuts of
// that matrix, so core.ScoreCombos — the scorer the in-memory engine runs —
// reads the cell of every row off the resident codes. IV and Pearson
// decisions are reproduced from merged counts and co-moments through the same
// exported core logic the in-memory path runs, so the only divergence from
// core.Fit is quantile-sketch cut placement, bounded by
// sketch.Quantile.ErrorBound. See docs/sharding.md for the error model and
// when to prefer each path.
package shard
