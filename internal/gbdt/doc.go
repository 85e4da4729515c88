// Package gbdt implements the XGBoost substrate of the SAFE reproduction: a
// second-order gradient-boosted tree learner with histogram-based exact
// greedy split finding, shrinkage, L2 regularisation and row/column
// subsampling. Beyond prediction it exposes the two artefacts SAFE consumes:
//
//   - Paths: the distinct split features (and their split values) on every
//     root-to-leaf path of every tree (Section IV-B of the paper), and
//   - GainImportance: the average gain across all splits per feature
//     (Section IV-C3).
//
// Three training losses cover the task families of the fit engine
// (core.Task):
//
//   - Logistic — binary cross-entropy on {0,1} labels; predictions are
//     probabilities in (0,1).
//   - Softmax — multiclass cross-entropy on class-index labels in
//     [0, Config.NumClass); each boosting round grows one tree per class,
//     and PredictRowVector returns the class-probability vector.
//   - Squared — squared error on arbitrary real labels; predictions are raw
//     values.
//
// Training accepts either raw float64 columns (Train, which quantises them
// internally) or a prebinned uint8 matrix (TrainBinned, the entry point of
// both SAFE fit engines). Both paths share the same boosting loop, so given
// equal bins they produce bit-identical models for every objective.
// BinColumns is the step between them — Train's quantisation on its own — for
// a caller that trains several models over overlapping columns and wants each
// column binned once; the bin codes are also what core.ScoreCombos ranks the
// mined combinations on. Prebinned.Validate bounds every code by its
// feature's bin count before anything indexes by it.
//
// A typical round trip:
//
//	cfg := gbdt.DefaultConfig()
//	cfg.Objective = gbdt.Softmax
//	cfg.NumClass = 3
//	model, err := gbdt.Train(cols, labels, names, cfg) // labels in {0,1,2}
//	probs := model.PredictRowVector(row)               // length-3 probabilities
//	class := model.PredictRow(row)                     // argmax class index
//
// The implementation is single-node but feature-parallel, mirroring the
// paper's "distributed computing" requirement at laptop scale; results are
// identical for any worker count.
package gbdt
