// Package core implements SAFE itself (Algorithm 1 of the paper): iterative
// feature generation guided by XGBoost path mining (Section IV-B) followed
// by the three-stage selection pipeline (Section IV-C).
//
// The flow is:
//
//   - Engineer.Fit runs the offline loop. Each iteration trains a gradient
//     boosting model on the current representation, mines frequently
//     co-occurring feature pairs from its tree paths (base generation),
//     expands them through the operator registry (operators package) into
//     candidate features, and keeps the survivors of selection.
//
//   - A live feature is binned once for as long as it lives (engineer.go,
//     binned): the miner trains on its bin codes, the mined combinations are
//     ranked by gain ratio on those same codes (combos.go, ScoreCombos — a
//     split value is a cut, so a row's cell is a function of its codes and
//     no raw value is searched), the ranker takes them as they are and bins
//     only the generated survivors of selection, and what it selects carries
//     its codes into the next iteration and the validation evaluator. The
//     sharded engine (internal/shard) keeps the same representation resident
//     and calls the same scorer.
//
//   - Selection (selection.go, select_api.go) is the three-stage filter of
//     Section IV-C: an Information Value screen (stats.ChiMerge binning),
//     a Pearson-correlation dedup, and a model-importance ranking.
//
//   - The result of Fit is a Pipeline — the learned feature generation
//     function Ψ. A Pipeline is a DAG of FeatureNodes over the original
//     columns; it transforms whole frames (Transform), dense row batches in
//     one columnar pass (TransformBatch, the serving hot path), or single
//     rows (TransformRow, minimal-latency inference).
//
//   - persist.go serialises a Pipeline, including every fitted operator's
//     learned parameters, so Ψ trains offline and loads in a serving
//     process (internal/serve) with no access to training data.
//
// Every generated feature carries an interpretable formula over the
// original columns (Pipeline.Formulas), per the paper's interpretability
// requirement.
package core
