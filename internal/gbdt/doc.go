// Package gbdt implements the XGBoost substrate of the SAFE reproduction: a
// second-order gradient-boosted tree learner with histogram-based exact
// greedy split finding, shrinkage and L2 regularisation. It draws no random
// number: a model is a function of its data and configuration. Beyond
// prediction it exposes the two artefacts SAFE consumes:
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
// grows one tree per output group (NumClass for Softmax, one otherwise) over
// every row and every feature, histograms, splits and score updates all on
// bin codes. The codes are also what core.ScoreCombos ranks the mined
// combinations on. Prebinned.Validate bounds every code by its feature's bin
// count and holds every feature's cuts strictly ascending before anything
// indexes by them.
//
// The histogram kernel is laid out the way XGBoost and LightGBM pair with
// histogram splitting. A histogram bin is one record (gradient sum, hessian
// sum, row count), so adding a row to it touches one cache line. A tree grows
// one level at a time, as XGBoost's hist method grows it: every node's rows
// are one segment of a per-tree int32 row buffer, kept in a stable in-place
// partition. Of a split's two children only the one whose histograms are
// accumulated has its (gradient, hessian) pairs gathered, once, into the same
// segment of a buffer in that row order: every feature's loop then reads the
// pairs in sequence and only its codes at random, and every bin adds the same
// values in the same order as a per-feature gather would. That child is the
// smaller one when both can split; when only one can, it is built directly if
// it is the smaller, and otherwise derived by subtracting its built sibling
// from the parent. The partition also updates the training scores: each leaf
// adds its value to the raw scores of the rows it holds, so every row gets
// one addition of its leaf's value per tree, the one a walk of the tree
// gives. The nodes are numbered depth-first once the tree is grown, so a
// model's bytes are those of a depth-first grower.
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
// The implementation is single-node but parallel on the shared
// internal/parallel pool Config.Workers selects (1 serial, <= 0 GOMAXPROCS),
// mirroring the paper's "distributed computing" requirement at laptop scale.
// A level is two pool regions, whatever its width: the level's open nodes
// run across the pool, each its serial split scan (in feature order, which
// fixes the tie-breaks), its partition, its leaves and its child's gather on
// its own segment of the row buffers; then every (child, feature) pair whose
// histogram the level builds runs across the pool, accumulating the child's
// bins and subtracting them from the parent's for the derived sibling. The
// softmax is row-parallel above 2,048 rows.
// Every slot is written by one task, in one order, so results are identical
// for any worker count.
package gbdt
