// Package sketch provides mergeable statistics summaries. Each sketch is
// built independently per data partition and merged by the coordinator;
// Merge is associative and — within the documented error bounds —
// order-invariant, so a fit over partitions that never coexist in memory
// reaches the same decisions as a single-frame fit.
//
// The sharded out-of-core fit engine (internal/shard) uses Moments, Gram and
// MomentHist, and the Arena its partials are pooled in. It cuts every column
// on the in-memory quantile kernel's grid instead of a Quantile summary, so
// Quantile, Refiner and the count histograms (LabelHist, ClassHist) and their
// wire forms have no caller in the fit; they stay exported for the
// repository benchmark's probes (bench/).
//
// The four sketches and their guarantees:
//
//   - Quantile: a deterministic weighted-coreset quantile summary (in the
//     GK/KLL family). Count, Min, Max and NaNCount are exact and exactly
//     order-invariant. Rank queries carry a tracked worst-case rank error
//     (ErrorBound). A summary of n values at size B costs ceil(n/B) ranks
//     (none while the distinct values fit in B); Merge concatenates levels
//     exactly, adding the operands' bounds, and compacts only a level that
//     outgrows the receiving sketch's size S. So P partials of budget B < S
//     merge with no error beyond their own — P·ceil(n_chunk/B) ranks — until
//     about S/B of them meet in one level. A Refiner turns the bound into
//     exact order statistics with one more pass.
//   - LabelHist: per-bin positive/negative label counts over fixed cut
//     points. Counts are integers, so Merge is exact and exactly
//     order-invariant; IV reproduces stats.InformationValue's Laplace
//     smoothing bit-for-bit given the same cuts. The counts are also the
//     contingency-table input chi-merge discretisation consumes.
//   - Moments: count/mean/M2 accumulator (Welford update, Chan et al.
//     pairwise merge). Merge is order-invariant up to floating-point
//     rounding, which the property tests bound at a relative 1e-9.
//   - Gram: pairwise co-moment accumulator over a column set, restricted to
//     jointly non-NaN rows. Sums are plain additions, so Merge is
//     order-invariant up to floating-point rounding. Dot reproduces the
//     standardised dot product core's Pearson dedup computes.
//
// None of the sketches use randomisation: identical input partitions in the
// same merge order produce identical bytes, which keeps the sharded fit
// deterministic and its tests stable.
package sketch
