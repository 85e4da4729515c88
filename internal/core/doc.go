// Package core implements SAFE itself (Algorithm 1 of the paper): iterative
// feature generation guided by XGBoost path mining (Section IV-B) followed
// by the three-stage selection pipeline (Section IV-C).
//
// The package is two things: Algorithm 1, written once, and the in-memory
// columns it runs over.
//
//   - RunRounds (rounds.go) is the loop, for every engine. Each iteration
//     trains a gradient boosting model on the current representation's bin
//     codes, mines frequently co-occurring feature combinations from its
//     tree paths and ranks them by gain ratio on those same codes
//     (combos.go, ScoreCombos — a split value is a cut, so a row's cell is
//     a function of its codes and no raw value is searched), expands the
//     kept ones through the operator registry (operators package) into
//     candidate features, filters them by Information Value, removes the
//     redundant ones in one greedy descending-IV scan, ranks the rest by
//     ranker gain and keeps the budget. Mining and scoring are the default
//     PairSource (pairs.go), the one seam through which the RAND and IMP
//     baselines choose their combinations instead and share the rest. The
//     loop also owns the clock, the FitEvent stream (events.go), early
//     stopping and the reports. A
//     feature is binned once for as long as it lives (Feature, binned): a
//     stage whose booster wants another bin count is the only thing that
//     bins again, and the loop is the only place that says so.
//
//   - WorkingSet (rounds.go) is the seam: what the loop asks of a column
//     representation — open the data, fit inputs, bin, materialise
//     candidates, their criteria, the redundancy test, carry the selection.
//     It has two implementations. This package's (stream.go; Engineer.Fit
//     and its variants construct it) keeps raw []float64 columns resident
//     and streams candidate generation through a recycling arena, holding
//     each candidate column once: scored columns return to the arena, and
//     the survivors are rebuilt from their appliers when Pearson and the
//     ranker need them;
//     internal/shard's answers the same questions with streaming passes
//     over a chunked source, and contains no loop of its own.
//
//   - Selection outside a fit (selection.go, select_api.go) is the
//     three-stage filter of Section IV-C over resident columns — an
//     Information Value screen, the Pearson-correlation dedup (the loop's
//     scan under a standardised-dot-product test), and a model-importance
//     ranking — behind the public safe.Select; no fit calls it.
//
//   - The result of a fit is a Pipeline — the learned feature generation
//     function Ψ, a DAG of FeatureNodes over the original columns. It runs
//     as a Program (program.go): names resolved to slots and the node list
//     validated once, walked by one evaluator whose apply-a-node step
//     (Apply: the operator, then NaN/±Inf → 0) is also how both working
//     sets compute a candidate — so Transform, TransformBatch and
//     TransformRow return what the fit saw.
//
//   - persist.go serialises a Pipeline, including every fitted operator's
//     learned parameters, so Ψ trains offline and loads — compiled, or
//     refused with the bad node named — in a serving process
//     (internal/serve) with no access to training data.
//
// Every generated feature carries an interpretable formula over the
// original columns (Pipeline.Formulas), per the paper's interpretability
// requirement.
package core
