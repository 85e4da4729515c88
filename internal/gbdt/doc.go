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
// The booster trains one way. Train on raw float64 columns is BinColumns —
// equal-frequency quantisation to a uint8 code matrix — then TrainBinned on
// the codes, the entry point of both SAFE fit engines; a caller that trains
// several models over overlapping columns bins each column once and calls
// TrainBinned itself. One boosting loop serves every objective: each round
// draws its row and column subsamples once and grows one tree per output
// group (NumClass for Softmax, one otherwise), histograms, splits and score
// updates all on bin codes. The codes are also what core.ScoreCombos ranks
// the mined combinations on. Prebinned.Validate bounds every code by its
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
// The implementation is single-node but feature-parallel on the shared
// internal/parallel pool Config.Workers selects (1 serial, <= 0 GOMAXPROCS),
// mirroring the paper's "distributed computing" requirement at laptop scale;
// results are identical for any worker count.
package gbdt
