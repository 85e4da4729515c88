// Package shard is the sharded, out-of-core fit engine: passes, kernels and
// folds, and the out-of-core columns they add up to. The SAFE algorithm
// itself is not here — Fit hands core.RunRounds, the one round loop, an
// implementation of core.WorkingSet (the fitter, shard.go) over a
// frame.ChunkSource whose partitions never coexist in memory, which answers
// every question the loop asks about a column with mergeable statistics
// (internal/sketch, stats.Grid counts) accumulated per partition and merged
// in partition order.
// This package trains no booster, opens no stage and emits no event.
//
// Every streaming pass is stated once, in three steps:
//
//	PassSpec → WorkerState.ComputePartial(ctx, spec, chunk) → fold(*Partial)
//
// The fitter reifies the pass into a PassSpec (passes.go), an Executor
// pushes each chunk through the pass kind's one kernel (dispatch.go), and
// the fitter folds the resulting Partials in partition-index order. Fit
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
// The engine makes a small number of streaming passes: three before the
// first iteration (WorkingSet.Open),
//
//  1. live stats  — per-feature quantile sketches + moments, the labels and
//     the row sample
//  2. live refine — the exact-cut gather of the sketches' brackets (skipped
//     while the sketches are lossless)
//  3. live codes  — bin the live features into resident uint8 codes (Bin)
//
// and three per iteration for a binary or multiclass task, four for
// regression,
//
//  4. candidate counts — each generated column's counts on the in-memory
//     kernel's grid, laid over the row sample, + moments (Generate)
//  5. candidate gather — the cut buckets' values (and, for a count task,
//     classes), which resolve exact cuts and the criterion counts, beside the
//     live features' criterion histograms (Criteria)
//  6. regression criterion — bin ids replayed in row order (Criteria;
//     regression only)
//  7. redundancy — pairwise co-moments (Gram) of IV survivors + codes
//     (Correlated)
//
// so six passes for a one-iteration binary or multiclass fit and seven for
// regression. grid.go is passes 4 and 5: the two scans of
// stats.QuantileScratch with the pass seam between them.
//
// Everything the XGBoost miner and ranker consume is the resident binned
// matrix (1 byte per value, ~8× smaller than raw float64 columns) plus the
// labels — GBDT training never touches raw values: gbdt.Train is BinColumns
// then TrainBinned, the one boosting loop, which reads only codes. Scoring
// the mined combinations needs no rows either: their split values are cuts of
// that matrix, so the loop's scorer reads the cell of every row off the
// resident codes. IV and Pearson decisions are the loop's, made on merged
// counts and co-moments, and every cut is an exact order statistic, so the
// selection is core.Fit's. See docs/sharding.md for the cut model and when
// to prefer each path.
package shard
