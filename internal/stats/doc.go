// Package stats implements the statistical primitives SAFE depends on:
// relevance criteria, partition scores, discretisation, correlation, and
// the divergences of the feature-stability protocol.
//
// # Relevance criteria (Algorithm 3's filter, per task)
//
//   - InformationValue / IVScratch — binary IV with equal-frequency binning
//     (Eq. 6), Laplace-smoothed.
//   - CritScratch.MulticlassIV — the K-class generalisation: mean
//     one-vs-rest IV from per-class binned label counts; reduces to the
//     binary IV at K=2.
//   - CritScratch.CorrelationRatio — the regression criterion η²
//     (one-way ANOVA between-group share of variance) over binned targets.
//
// # Partition scores (Algorithm 2's combination ranking, per task)
//
//   - GainRatio / InformationGain — binary information gain ratio.
//   - GainRatioClasses — the K-class entropy gain ratio.
//   - VarGainRatio — the regression variance-reduction ratio (η² over
//     cells divided by split entropy).
//
// Every criterion has a count- or moment-space entry point
// (IVFromCounts, MulticlassIVFromCounts, CorrelationRatioFromMoments,
// GainRatioFromCounts, GainRatioFromClassCounts, VarGainRatioFromMoments)
// operating on exactly the statistics the mergeable sketches of the
// sharded fit engine accumulate — per-partition statistics summed and
// folded through these functions reproduce the single-pass value, which is
// what keeps the sharded selection feature-for-feature identical to the
// in-memory one.
//
// # The quantile kernel
//
// Every equal-frequency criterion, the GBDT binner and the discretising
// operators cut a resident column at exact nearest-rank quantiles through
// QuantileScratch (quantselect.go). It reads the column twice, whatever the
// distribution: a counting scan over a grid of 1,024 equal-width buckets
// whose range comes from a 256-value strided sample (the end buckets catch
// the tails), then a gather of the few buckets a target rank falls into,
// which multi-rank quickselect resolves exactly. The bucket index is
// monotone in the value, so the cuts are the ones a full sort would give for
// any sample; a column without a usable sampled range (constant, dominated
// by one value, non-finite) falls back to selection over the whole column.
// The binary and multiclass criteria add the row's class to the counting
// scan's index and read their per-bin label counts off the bucket counts —
// integers, so the values equal a row-order count bit for bit; the
// regression criterion keeps a row-order pass (its moments are float sums)
// and bins each row with QuantileScratch.Bin, a bucket-table lookup.
// TestCriteriaMatchReference and FuzzCriterionExact hold all of them to a
// sort-and-binary-search reference with exact comparison.
//
// CutIndexer (cutindex.go) is the other lookup: SearchCuts against a fixed
// cut array that did not come from the caller's own column — the sharded
// engine's histograms and bin codes (internal/sketch, internal/shard), the
// GBDT binner's code fill, and core's combination cells.
//
// The package also provides Pearson correlation (Algorithm 4, Eq. 7),
// equal-frequency/equal-width binning, ChiMerge discretisation, and the
// KL/JS divergences of Eqs. 14-15. Scratch types (IVScratch, CritScratch,
// QuantileScratch) amortise working buffers across column sweeps; each
// instance is single-goroutine, hot paths keep one per worker.
package stats
