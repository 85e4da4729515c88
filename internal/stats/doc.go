// Package stats implements the statistical primitives SAFE depends on:
// relevance criteria, partition scores, discretisation, correlation, and
// the divergences of the feature-stability protocol.
//
// # Relevance criteria (Algorithm 3's filter, per task)
//
// A task's target is coded once (TargetCode): each row's class id, or a
// regression target's centred fixed-point code, which says what the row
// adds to the W counters of its bin. TargetCode.Criterion reads per-bin
// counters back as the task's criterion, and CritScratch.Criterion bins a
// feature equal-frequency and hands the kernel's counters to it:
//
//   - binary — the IV of Eq. 6, Laplace-smoothed (InformationValue and
//     IVScratch code their labels, then call it);
//   - multiclass — the mean one-vs-rest IV over the classes; reduces to the
//     binary IV at K=2 (CritScratch.MulticlassIV codes its labels);
//   - regression — η², the one-way ANOVA between-group share of variance
//     (CritScratch.CorrelationRatio codes its target).
//
// # Partition scores (Algorithm 2's combination ranking, per task)
//
// TargetCode.GainRatio reads per-cell counters as the task's gain ratio:
// the binary information gain ratio (row space: GainRatio /
// InformationGain), its K-class generalisation (GainRatioClasses), or the
// regression variance-reduction ratio, η² over cells divided by split
// entropy (VarGainRatio).
//
// Every count is an integer, so per-partition counters summed in any order
// and read back through the same code reproduce the single-pass value,
// which is what keeps the sharded selection feature-for-feature identical
// to the in-memory one: both engines count the same codes. IVFromCounts
// and MulticlassIVFromCounts are the float count-space forms of the two IVs.
//
// # The quantile kernel
//
// Every equal-frequency criterion, the GBDT binner and the discretising
// operators cut a resident column at exact nearest-rank quantiles through
// QuantileScratch (quantselect.go). It reads the column twice, whatever the
// distribution, through the grid kernel both engines share: the first scan
// (Grid.BucketRows) buckets every row on a grid of 1,024 equal-width buckets
// whose range comes from a 256-value strided sample (the end buckets catch
// the tails), records the bucket and adds the row's code to that bucket's
// counters; the column's cut table (CutTable, cuttable.go) is laid from the
// buckets' sizes, finding the few buckets a target rank falls into; the
// second scan (GatherPlan.File) files their members, with their codes, by
// the recorded buckets; the table resolves them exactly by multi-rank
// quickselect. Each value is bucketed once. The out-of-core gather pass runs the same two
// scans on each chunk (internal/shard). The bucket index is monotone in the
// value, so the cuts are the ones a full sort would give for any sample; a
// column without a usable sampled range (constant, dominated by one value,
// non-finite) is cut on the zero Grid, whose one bucket holds it whole and is
// gathered and selected like any cut bucket — the out-of-core engine's one
// bucket too. A criterion's per-bin counters are its buckets' counters summed
// over the runs between cut buckets (GatherPlan.SpanTallies), the gathered
// members' codes added one by one (CutTable.Resolve) — integers, so the
// values equal a row-order count bit for bit, for every task. The
// out-of-core engine lays one table per column at all the bin counts it
// cuts at, the criterion's marked, and reads each count's cuts off it
// (CutTable.AppendCuts); TestCutTableResolvesEveryBinCount holds such a
// table to Quantiles and to the in-memory counters.
// TestScratchReuseMatchesFresh holds a reused scratch to a fresh one's cuts
// and counters, so that no row reads a bucket recorded for an earlier column.
// TestCriteriaMatchReference and FuzzCriterionExact hold all of them to a
// sort-and-binary-search reference with exact comparison.
//
// CutIndexer (cutindex.go) is the other lookup: SearchCuts against a fixed
// cut array that did not come from the caller's own column. Its product use
// is FillCodes, the GBDT binner's code fill (gbdt.newBinner, and the
// out-of-core passes that code the live features and the Gram pass's
// entries); the benchmark's sketch probes (internal/sketch) call it too.
//
// The package also provides Pearson correlation (Algorithm 4, Eq. 7),
// equal-frequency/equal-width binning, ChiMerge discretisation, and the
// KL/JS divergences of Eqs. 14-15. Scratch types (IVScratch, CritScratch,
// QuantileScratch) amortise working buffers across column sweeps; each
// instance is single-goroutine, hot paths keep one per worker.
package stats
