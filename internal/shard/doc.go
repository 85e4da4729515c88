// Package shard is the sharded, out-of-core fit engine: passes, kernels and
// folds, and the out-of-core columns they add up to. The SAFE algorithm
// itself is not here — Fit hands core.RunRounds, the one round loop, an
// implementation of core.WorkingSet (the fitter, shard.go) over a
// frame.ChunkSource whose partitions never coexist in memory, which answers
// every question the loop asks about a column with mergeable statistics
// (moments and the Gram from internal/sketch, stats.Grid counts, cut-bucket
// gathers) accumulated per partition and merged in partition order.
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
// The engine makes a small number of streaming passes: four before the
// first iteration (WorkingSet.Open),
//
//  1. base        — the labels, the row sample and each source column's
//     moments
//  2. live counts — each source column's counts on the in-memory kernel's
//     grid, laid over the row sample, + its range
//  3. live gather — the cut buckets' values and target codes, which resolve
//     exact cuts and the criterion's per-bin counters; a live feature keeps
//     that criterion for the rest of the fit. Every kernel and fold codes
//     and counts rows with the fit's one stats.TargetCode (core.Task.Code,
//     built once on the labels): a row's class id, or its fixed-point
//     regression code, which adds to its bin's W counters
//  4. live codes  — bin the live features into resident uint8 codes (Bin)
//
// and three per iteration, for every task,
//
//  5. candidate counts — passes 2 and 3 again, over each generated column
//     (Generate)
//  6. candidate gather — (Criteria)
//  7. redundancy — pairwise co-moments (Gram) of IV survivors + the
//     generated survivors' moments, the only ones read + codes (Correlated)
//
// so seven passes for a one-iteration fit. grid.go is the count and gather
// passes, one cut path for every column: the count pass counts each chunk on
// the grid (stats.Grid.Count), and the gather pass runs the in-memory
// kernel's own two scans on each chunk (stats.Grid.BucketRows,
// stats.GatherPlan.File). Between and after them, a column's cuts are laid
// out and resolved by the one type stats.QuantileScratch uses too,
// stats.CutTable: the fitter lays it from the summed counts, files the
// gathers into it and resolves it, and reads every cut of the column off it.
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
