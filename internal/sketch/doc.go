// Package sketch provides the per-partition statistics summaries of the
// sharded out-of-core fit engine (internal/shard) and the kernels the
// repository benchmark (bench/) probes.
//
// What a fit uses:
//
//   - Moments: count/mean/M2 accumulator (Welford update, Chan et al.
//     pairwise merge). Merge is order-invariant up to floating-point
//     rounding, which the property tests bound at a relative 1e-9.
//   - Gram: pairwise co-moment accumulator over a column set, restricted to
//     jointly non-NaN rows. Sums are plain additions, so Merge is
//     order-invariant up to floating-point rounding. Dot reproduces the
//     standardised dot product core's Pearson dedup computes.
//   - The Arena the partials' buffers and Grams are pooled in.
//   - The wire codecs of Moments and Gram, which the distributed fit ships.
//
// Benchmark probes only — no fit, CLI or server reaches them, and CI fails
// on a non-test Go file outside this package and bench/ that names them:
//
//   - Quantile: a deterministic weighted-coreset quantile summary (in the
//     GK/KLL family), fed sorted runs (AddAll, or SortNonNaN then
//     AddSortedScratch) and combined with Merge, with its wire codec.
//     Count, Min, Max and NaNCount are exact; Cuts carries a tracked
//     worst-case rank error (ErrorBound), none while the distinct values fit
//     in one level.
//   - Refiner: one gather pass (AddChunk) that turns a Quantile's ±ErrorBound
//     brackets into exact order statistics (Value), with Err reporting a
//     bracket that missed its order statistic.
//   - LabelHist, ClassHist and MomentHist: binary and K-class label-count
//     and target-moment histograms over fixed cut points (AddCol).
//
// The fit cuts every column on the in-memory quantile kernel's grid
// (internal/shard/grid.go), not on a Quantile summary, and reads its ranks
// off a stats.CutTable. CutRanks, the nearest-rank targets of a
// bins-quantile split, is left for the benchmark's probes; CI fails on a
// call to it in non-test internal/shard.
//
// None of the sketches use randomisation: identical input partitions in the
// same merge order produce identical bytes, which keeps the sharded fit
// deterministic and its tests stable.
package sketch
