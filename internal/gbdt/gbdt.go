package gbdt

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"

	"repro/internal/parallel"
	"repro/internal/stats"
)

// Objective selects the training loss.
type Objective int

const (
	// Logistic trains with binary cross-entropy; predictions are
	// probabilities in (0,1).
	Logistic Objective = iota
	// Squared trains with squared error; predictions are raw values.
	Squared
	// Softmax trains with multiclass cross-entropy over Config.NumClass
	// classes: labels are class indices in [0, NumClass), each boosting
	// round grows one tree per class, and PredictRowVector returns the
	// class-probability vector (PredictRow the argmax class index).
	Softmax
)

// Config holds the booster's hyper-parameters. The zero value is not usable;
// call DefaultConfig and override fields as needed.
type Config struct {
	NumTrees       int       // K: number of boosting rounds
	MaxDepth       int       // D: maximum tree depth (root = depth 0)
	LearningRate   float64   // eta shrinkage
	Lambda         float64   // L2 regularisation on leaf weights
	Gamma          float64   // minimum gain to split
	MinChildWeight float64   // minimum sum of hessians per child
	MinChildCount  int       // minimum rows per child
	MaxBins        int       // histogram bins per feature (<= 255)
	Objective      Objective // training loss
	NumClass       int       // number of classes (Softmax only; >= 2)
	// Workers bounds the shared worker pool binning, histogram building and
	// score updates run on: 1 runs serial, <= 0 selects GOMAXPROCS. Results
	// are identical for any worker count.
	Workers int
}

// pool returns the shared worker pool the configuration selects.
func (c *Config) pool() *parallel.Pool { return parallel.Get(c.Workers) }

// DefaultConfig returns settings close to XGBoost's defaults, scaled to the
// benchmark sizes used in this repository.
func DefaultConfig() Config {
	return Config{
		NumTrees:       50,
		MaxDepth:       4,
		LearningRate:   0.3,
		Lambda:         1.0,
		Gamma:          0.0,
		MinChildWeight: 1.0,
		MinChildCount:  1,
		MaxBins:        64,
		Objective:      Logistic,
	}
}

// check rejects an objective outside {Logistic, Squared, Softmax}, naming it.
func (o Objective) check() error {
	if o < Logistic || o > Softmax {
		return fmt.Errorf("gbdt: unknown objective %d (want 0 logistic, 1 squared or 2 softmax)", int(o))
	}
	return nil
}

func (c *Config) validate() error {
	if c.NumTrees <= 0 {
		return errors.New("gbdt: NumTrees must be positive")
	}
	if c.MaxDepth <= 0 {
		return errors.New("gbdt: MaxDepth must be positive")
	}
	if c.LearningRate <= 0 {
		return errors.New("gbdt: LearningRate must be positive")
	}
	if c.MaxBins < 2 || c.MaxBins > 255 {
		return fmt.Errorf("gbdt: MaxBins must be in [2,255], got %d", c.MaxBins)
	}
	if err := c.Objective.check(); err != nil {
		return err
	}
	if c.Objective == Softmax && c.NumClass < 2 {
		return fmt.Errorf("gbdt: Softmax needs NumClass >= 2, got %d", c.NumClass)
	}
	return nil
}

// Node is a tree node. Leaves have Feature == -1.
type Node struct {
	Feature   int     // split feature index, -1 for leaves
	Threshold float64 // go left when value <= Threshold
	Left      int     // index of left child in Tree.Nodes
	Right     int     // index of right child
	Value     float64 // leaf weight (already shrunk by eta)
	Gain      float64 // split gain (internal nodes)
	Count     int     // training rows reaching the node
	// DefaultRight sends missing (NaN) values to the right child. The
	// direction is learned per split (XGBoost's sparsity-aware algorithm);
	// the zero value preserves the historical missing-goes-left behaviour.
	DefaultRight bool
}

// IsLeaf reports whether the node is a leaf.
func (n *Node) IsLeaf() bool { return n.Feature < 0 }

// Tree is a single regression tree stored as a flat node array with the root
// at index 0.
type Tree struct {
	Nodes []Node
}

// PredictRow traverses the tree for one row of raw feature values.
func (t *Tree) PredictRow(row []float64) float64 {
	i := 0
	for {
		n := &t.Nodes[i]
		if n.IsLeaf() {
			return n.Value
		}
		v := row[n.Feature]
		switch {
		case math.IsNaN(v):
			if n.DefaultRight {
				i = n.Right
			} else {
				i = n.Left
			}
		case v <= n.Threshold:
			i = n.Left
		default:
			i = n.Right
		}
	}
}

// Model is a trained booster. For the Softmax objective (NumClass classes
// in Config) the trees are round-major: tree t*NumClass+k is round t's tree
// for class k, and BaseScores holds the per-class initial raw scores; other
// objectives use BaseScore and one tree per round.
type Model struct {
	Trees     []*Tree
	Config    Config
	BaseScore float64 // initial raw score (log-odds for Logistic)
	NumFeat   int
	Names     []string // optional column names for reporting

	// BaseScores is set for Softmax models only (len Config.NumClass).
	BaseScores []float64
}

// NumGroups returns how many values PredictRowVector emits per row:
// Config.NumClass for Softmax models, 1 otherwise.
func (m *Model) NumGroups() int {
	if m.Config.Objective == Softmax {
		return m.Config.NumClass
	}
	return 1
}

// Train fits a boosted model on column-major data: cols[j][i] is feature j of
// row i. labels are {0,1} for Logistic, arbitrary for Squared and class
// indices for Softmax. names may be nil. Train is BinColumns then
// TrainBinned, and does not retain cols or labels.
func Train(cols [][]float64, labels []float64, names []string, cfg Config) (*Model, error) {
	for j := range cols {
		if len(cols[j]) != len(labels) {
			return nil, fmt.Errorf("gbdt: column %d has %d rows, want %d", j, len(cols[j]), len(labels))
		}
	}
	pb, err := BinColumns(cols, cfg)
	if err != nil {
		return nil, err
	}
	return TrainBinned(pb, labels, names, cfg)
}

// Prebinned is a feature matrix already quantised to per-feature bin codes:
// Codes[j][i] is 0 for a missing value and 1+b for a value in bin b, where
// bin b spans (Cuts[j][b-1], Cuts[j][b]] — exactly the encoding the internal
// binner produces. Cuts must be strictly ascending per feature; Validate
// checks that they are.
type Prebinned struct {
	Codes [][]uint8
	Cuts  [][]float64
}

// BinColumns quantises raw columns as Train does before its first boosting
// round (cfg.MaxBins equal-frequency bins per column, on the pool cfg
// selects). It is how a caller that trains several models over overlapping
// column sets — the SAFE miner, ranker and evaluator — bins each column once.
func BinColumns(cols [][]float64, cfg Config) (*Prebinned, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	b := newBinner(cols, cfg.MaxBins, cfg.pool())
	return &Prebinned{Codes: b.codes, Cuts: b.cuts}, nil
}

// Validate checks the matrix's shape against n rows, that every feature's
// cuts are strictly ascending (so none is NaN), and bounds every code by its
// feature's bin count. Whoever indexes by a code — a histogram slot here, a
// cell table in core.ScoreCombos — may then do so unchecked, and a split after
// a code has the one threshold that sends the same rows left. Codes and cuts
// can be bytes a peer process sent, so this is a boundary check, not an
// assertion: one max scan per column.
func (pb *Prebinned) Validate(n int) error {
	if len(pb.Cuts) != len(pb.Codes) {
		return fmt.Errorf("gbdt: %d code columns but %d cut arrays", len(pb.Codes), len(pb.Cuts))
	}
	for j, codes := range pb.Codes {
		if len(codes) != n {
			return fmt.Errorf("gbdt: code column %d has %d rows, want %d", j, len(codes), n)
		}
		cuts := pb.Cuts[j]
		bins := len(cuts) + 1
		if bins > 255 {
			return fmt.Errorf("gbdt: feature %d has %d bins, max 255", j, bins)
		}
		for b, c := range cuts {
			if math.IsNaN(c) {
				return fmt.Errorf("gbdt: feature %d cut %d is NaN", j, b)
			}
			if b > 0 && c <= cuts[b-1] {
				return fmt.Errorf("gbdt: feature %d cut %d (%g) is not above cut %d (%g)", j, b, c, b-1, cuts[b-1])
			}
		}
		var top uint8
		for _, c := range codes {
			if c > top {
				top = c
			}
		}
		if int(top) > bins {
			return fmt.Errorf("gbdt: code column %d holds code %d outside its %d bins", j, top, bins)
		}
	}
	return nil
}

// TrainBinned fits a boosted model on a prebinned matrix; the booster reads
// only bin codes, and Train is BinColumns followed by TrainBinned. It is the
// entry point of both SAFE fit engines: the in-memory one bins each live
// column once (BinColumns), the sharded one builds its binned matrices
// out-of-core from merged quantile sketches, ~8× smaller than the raw float64
// columns. The model's split thresholds are real cut values, so Predict works
// on raw rows as usual.
func TrainBinned(pb *Prebinned, labels []float64, names []string, cfg Config) (*Model, error) {
	return TrainBinnedCtx(context.Background(), pb, labels, names, cfg)
}

// TrainBinnedCtx is TrainBinned with cooperative cancellation: the boosting
// loop checks ctx between rounds and returns ctx.Err() once it is cancelled or
// past its deadline, abandoning the partial model. A completed training run is
// never failed retroactively.
func TrainBinnedCtx(ctx context.Context, pb *Prebinned, labels []float64, names []string, cfg Config) (*Model, error) {
	model, _, err := trainBinned(ctx, pb, labels, names, cfg)
	return model, err
}

// trainBinned is TrainBinnedCtx that also returns the booster's final raw
// scores: raw[g][i] is output group g's score of row i.
func trainBinned(ctx context.Context, pb *Prebinned, labels []float64, names []string, cfg Config) (*Model, [][]float64, error) {
	if err := cfg.validate(); err != nil {
		return nil, nil, err
	}
	m := len(pb.Codes)
	if m == 0 {
		return nil, nil, errors.New("gbdt: no features")
	}
	n := len(labels)
	if n == 0 {
		return nil, nil, errors.New("gbdt: no rows")
	}
	if n > math.MaxInt32 {
		return nil, nil, fmt.Errorf("gbdt: %d rows, max %d", n, math.MaxInt32)
	}
	if err := pb.Validate(n); err != nil {
		return nil, nil, err
	}
	b := &binner{
		codes:   pb.Codes,
		cuts:    pb.Cuts,
		numBins: make([]int, m),
	}
	for j := range pb.Cuts {
		b.numBins[j] = len(pb.Cuts[j]) + 1
	}
	return boost(ctx, b, labels, names, cfg)
}

// boost is the boosting loop of every objective. Each round grows one tree per
// output group on that group's gradients — NumClass trees for Softmax, one for
// Logistic and Squared — over every row and every feature, and adds each
// tree's outputs to its group's raw scores. ctx is checked once per round, the
// granularity at which abandoning work stays cheap relative to the work
// itself.
func boost(ctx context.Context, b *binner, labels []float64, names []string, cfg Config) (*Model, [][]float64, error) {
	bases, err := baseScores(cfg, labels)
	if err != nil {
		return nil, nil, err
	}
	m, n := len(b.codes), len(labels)
	model := &Model{Config: cfg, NumFeat: m, Names: names}
	if cfg.Objective == Softmax {
		model.BaseScores = bases
	} else {
		model.BaseScore = bases[0]
	}
	raw := make([][]float64, len(bases)) // raw[c][i]: group-c raw score of row i
	for c := range raw {
		raw[c] = make([]float64, n)
		for i := range raw[c] {
			raw[c][i] = bases[c]
		}
	}
	var prob [][]float64 // Softmax class probabilities, refreshed every round
	if cfg.Objective == Softmax {
		prob = make([][]float64, len(bases))
		for c := range prob {
			prob[c] = make([]float64, n)
		}
	}
	gh := make([]gpair, n)
	pool := cfg.pool()
	tr := newTrainer(b, cfg, pool, n, m)
	if cfg.Objective == Squared {
		tr.shift = gradientShift(labels, bases[0])
	}

	for t := 0; t < cfg.NumTrees; t++ {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		if prob != nil {
			softmaxProbs(raw, prob, pool)
		}
		for c := range raw {
			gradients(cfg.Objective, c, raw, prob, labels, gh, tr.shift)
			// Each tree partitions its own copy of the rows in place, in a
			// per-trainer buffer refilled instead of reallocated.
			rows := appendIota(tr.rowBuf[:0], n)
			model.Trees = append(model.Trees, tr.buildTree(rows, gh, raw[c]))
		}
	}
	return model, raw, nil
}

// baseScores returns each output group's initial raw score: the smoothed
// log-odds of the positive rate for Logistic, the label mean for Squared, and
// the smoothed log class priors for Softmax, whose labels it checks.
func baseScores(cfg Config, labels []float64) ([]float64, error) {
	n := float64(len(labels))
	switch cfg.Objective {
	case Logistic:
		pos := 0.0
		for _, y := range labels {
			if y > 0.5 {
				pos++
			}
		}
		p := (pos + 1) / (n + 2)
		return []float64{math.Log(p / (1 - p))}, nil
	case Squared:
		sum := 0.0
		for _, y := range labels {
			sum += y
		}
		return []float64{sum / n}, nil
	}
	k := cfg.NumClass
	bases := make([]float64, k)
	for i, y := range labels {
		c := int(y)
		if c < 0 || c >= k || float64(c) != y {
			return nil, fmt.Errorf("gbdt: row %d: label %g is not a class index in [0,%d)", i, y, k)
		}
		bases[c]++
	}
	for c := range bases {
		bases[c] = math.Log((bases[c] + 1) / (n + float64(k)))
	}
	return bases, nil
}

// gradientShift is the power of two a squared loss's gradients are scaled
// down by: 0 while the target's spread about the base score lies within
// 2^±400, where the squared gradient sums of the split gains neither overflow
// nor underflow, else the spread's exponent. The scale is exact, so such a
// target splits as if scaled into range; makeLeaf scales each leaf back, and
// the split gains stay in the scaled units.
func gradientShift(labels []float64, base float64) int {
	var spread float64
	for _, y := range labels {
		spread = max(spread, math.Abs(y-base))
	}
	if _, e := math.Frexp(spread); e < -400 || e > 400 {
		return max(e, -1022)
	}
	return 0
}

// gpair is one row's gradient and hessian, side by side so one load brings
// both.
type gpair struct{ g, h float64 }

// gradients fills gh with the loss derivatives of output group c: squared
// error on raw[0], scaled by 2^-shift (gradientShift), cross-entropy on
// sigmoid(raw[0]) for Logistic, and class c's one-vs-rest cross-entropy on
// prob[c] for Softmax.
func gradients(obj Objective, c int, raw, prob [][]float64, labels []float64, gh []gpair, shift int) {
	switch obj {
	case Squared:
		scale := math.Ldexp(1, -shift)
		for i, r := range raw[0] {
			gh[i] = gpair{(r - labels[i]) * scale, 1}
		}
	case Logistic:
		for i, r := range raw[0] {
			gh[i] = crossEntropy(sigmoid(r), labels[i])
		}
	default:
		for i, p := range prob[c] {
			y := 0.0
			if int(labels[i]) == c {
				y = 1
			}
			gh[i] = crossEntropy(p, y)
		}
	}
}

// crossEntropy returns the gradient and hessian of probability p against
// target y, flooring the hessian so a saturated row cannot zero a leaf's
// denominator.
func crossEntropy(p, y float64) gpair {
	h := p * (1 - p)
	if h < 1e-16 {
		h = 1e-16
	}
	return gpair{p - y, h}
}

// rowGrain is the chunk size of the booster's row-parallel loops: a loop over
// fewer rows runs inline on the caller, a longer one is shared with the pool.
const rowGrain = 2048

// softmaxProbs fills prob with the row-wise softmax of the per-class raw
// scores, row-parallel (each row's slots written by exactly one chunk).
func softmaxProbs(raw, prob [][]float64, pool *parallel.Pool) {
	k := len(raw)
	pool.ForChunks(len(raw[0]), rowGrain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			mx := raw[0][i]
			for c := 1; c < k; c++ {
				if raw[c][i] > mx {
					mx = raw[c][i]
				}
			}
			var sum float64
			for c := 0; c < k; c++ {
				e := math.Exp(raw[c][i] - mx)
				prob[c][i] = e
				sum += e
			}
			for c := 0; c < k; c++ {
				prob[c][i] /= sum
			}
		}
	})
}

func sigmoid(x float64) float64 { return 1 / (1 + math.Exp(-x)) }

// appendIota appends 0, 1, …, n-1 to dst.
func appendIota(dst []int32, n int) []int32 {
	for i := 0; i < n; i++ {
		dst = append(dst, int32(i))
	}
	return dst
}

// binner quantises features to uint8 codes. Code 0 is reserved for missing
// values (NaN); real bins are 1..numBins[j]. cuts[j][b] is the inclusive
// upper bound of bin b+1.
type binner struct {
	codes   [][]uint8
	cuts    [][]float64
	numBins []int
}

// quantScratch holds the binner's quantile scratches between chunks and calls:
// a scratch's buffers, the per-row bucket record among them, grow to the
// longest column it has cut.
var quantScratch = sync.Pool{New: func() any { return new(stats.QuantileScratch) }}

func newBinner(cols [][]float64, maxBins int, pool *parallel.Pool) *binner {
	m := len(cols)
	b := &binner{
		codes:   make([][]uint8, m),
		cuts:    make([][]float64, m),
		numBins: make([]int, m),
	}
	// Columns bin independently; a chunk takes a quantile scratch from the
	// package's pool and hands it on.
	pool.ForChunks(m, pool.Grain(m), func(lo, hi int) {
		qs := quantScratch.Get().(*stats.QuantileScratch)
		defer quantScratch.Put(qs)
		var ix stats.CutIndexer
		for j := lo; j < hi; j++ {
			cuts := quantileCuts(cols[j], maxBins, qs)
			b.cuts[j] = cuts
			b.numBins[j] = len(cuts) + 1
			b.codes[j] = make([]uint8, len(cols[j]))
			ix.FillCodes(b.codes[j], cols[j], cuts)
		}
	})
	return b
}

// quantileCuts returns at most maxBins-1 interior cut points from the
// empirical quantiles of xs, deduplicated, dropping a trailing cut equal to
// the maximum (it would create an empty bin). Cut values come from
// multi-rank selection (stats.QuantileScratch) rather than a full sort.
func quantileCuts(xs []float64, maxBins int, qs *stats.QuantileScratch) []float64 {
	cuts := qs.Quantiles(xs, maxBins)
	if len(cuts) == 0 {
		return nil
	}
	mx := math.Inf(-1)
	for _, v := range xs {
		if !math.IsNaN(v) && v > mx {
			mx = v
		}
	}
	if cuts[len(cuts)-1] >= mx {
		cuts = cuts[:len(cuts)-1]
	}
	// The scratch owns the returned slice; keep a stable copy.
	return append([]float64(nil), cuts...)
}

// threshold returns the raw-value threshold for "code <= c".
func (b *binner) threshold(feat int, code uint8) float64 {
	cuts := b.cuts[feat]
	if code == 0 || len(cuts) == 0 {
		return math.Inf(-1)
	}
	idx := int(code) - 1
	if idx >= len(cuts) {
		idx = len(cuts) - 1
	}
	return cuts[idx]
}

type trainer struct {
	binner *binner
	cfg    Config
	pool   *parallel.Pool
	n, m   int
	shift  int // a squared loss's gradient scale, 2^-shift (gradientShift)
	// stride is the per-feature slot width in a histSet: the largest
	// numBins[j]+1 (real bins plus the missing bin 0) across features.
	stride int
	// free is the hist-set free list. A level holds one set per open node and
	// one per child being built, so after the first tree every tree builds its
	// histograms without allocating.
	free []*histSet
	// rowBuf backs the per-tree row set, partitioned in place level by level:
	// every node's rows are one segment of it. partScratch is the right-side
	// spill buffer that keeps the partition stable, and ordered holds the
	// gradient pairs of the rows of each child being built, both used segment
	// for segment alongside rowBuf. Rows are int32: trainBinned bounds n.
	rowBuf      []int32
	partScratch []int32
	ordered     []gpair

	// The tree being grown: the round's gradient pairs and its output
	// group's raw scores, both indexed by row.
	gh    []gpair
	score []float64
	// Per-tree buffers reused across trees: the node records in the order the
	// levels make them, the open nodes of the current and the next level, the
	// children whose histograms a level builds, and the depth-first walk that
	// numbers the nodes.
	nodes       []growNode
	level, next []int32
	builds      []buildTask
	stack       []int32
}

// buildTask names a child whose histogram set a level accumulates, and the
// sibling (-1 for none) whose set, the parent's, it is subtracted from.
type buildTask struct{ child, derive int32 }

func newTrainer(b *binner, cfg Config, pool *parallel.Pool, n, m int) *trainer {
	stride := 1
	for _, nb := range b.numBins {
		if nb+1 > stride {
			stride = nb + 1
		}
	}
	return &trainer{
		binner:      b,
		cfg:         cfg,
		pool:        pool,
		n:           n,
		m:           m,
		stride:      stride,
		rowBuf:      make([]int32, 0, n),
		partScratch: make([]int32, 0, n),
		ordered:     make([]gpair, n),
	}
}

// bin is one histogram bin: the gradient sum, hessian sum and row count of
// the rows whose code falls in it, in one record so that adding a row touches
// one cache line.
type bin struct {
	g, h float64
	n    int
}

// histSet holds the gradient histograms of every feature for one
// node, flattened with a fixed stride so one allocation serves all features.
type histSet struct {
	bins []bin
}

func (tr *trainer) getHistSet() *histSet {
	if n := len(tr.free); n > 0 {
		h := tr.free[n-1]
		tr.free = tr.free[:n-1]
		return h
	}
	return &histSet{bins: make([]bin, tr.m*tr.stride)}
}

func (tr *trainer) putHistSet(h *histSet) {
	if h != nil {
		tr.free = append(tr.free, h)
	}
}

type splitResult struct {
	feature      int
	binCode      uint8 // go left when 1 <= code <= binCode
	gain         float64
	threshold    float64
	defaultRight bool // learned direction for the missing bin (code 0)
}

// growNode is one node of the tree being grown. Its rows are rowBuf[lo:hi].
// open reports that it passed the leaf checks and waits for its level's
// split scan; hist is its histogram set until that scan, nil otherwise.
// splitNode fills in the rest: left is -1 for a leaf, a split node's children
// are records left and left+1, and build and derive name the child whose
// histograms the level accumulates and the one it derives from the parent's
// (-1 for none).
type growNode struct {
	lo, hi        int
	sumG, sumH    float64
	open          bool
	hist          *histSet
	split         splitResult
	value         float64 // a leaf's weight
	left          int32
	build, derive int32
	final         int32 // index in Tree.Nodes
}

// buildTree grows one tree over rows and every feature on the round's
// gradient pairs gh, one level at a time, and adds its outputs to score as
// each leaf is made, the partition having already put the leaf's rows there.
// rows is partitioned in place as the tree grows.
//
// A level is two pool regions. The first runs splitNode on each open node:
// its split scan, partition, leaves and the gather of the child it builds,
// all on its own segment of the row buffers. The second accumulates the built
// children's histograms, a (child, feature) pair per index, and subtracts
// each from its parent's in place for the sibling that takes the parent's
// set. Every value is computed by the same operations in the same order as a
// depth-first grower would, and the nodes are numbered depth-first at the
// end, so the tree is the same for any worker count.
func (tr *trainer) buildTree(rows []int32, gh []gpair, score []float64) *Tree {
	tr.gh, tr.score = gh, score
	var sumG, sumH float64
	for _, r := range rows {
		sumG += gh[r].g
		sumH += gh[r].h
	}
	tr.nodes = append(tr.nodes[:0], growNode{hi: len(rows), sumG: sumG, sumH: sumH, left: -1})
	tr.level = tr.level[:0]
	if tr.needsSplitEval(len(rows), sumH, 0) {
		gather(tr.ordered, gh, rows)
		tr.nodes[0].hist = tr.getHistSet()
		tr.nodes[0].open = true
		tr.level = append(tr.level, 0)
		tr.builds = append(tr.builds[:0], buildTask{0, -1})
		tr.buildHists()
	} else {
		tr.makeLeaf(&tr.nodes[0])
	}
	for depth := 0; len(tr.level) > 0; depth++ {
		// Each open node may add two children; their records are placed
		// before the region so that no task appends.
		base := int32(len(tr.nodes))
		for range tr.level {
			tr.nodes = append(tr.nodes, growNode{left: -1}, growNode{left: -1})
		}
		level := tr.level
		tr.pool.ForChunks(len(level), 1, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				tr.splitNode(level[i], base+2*int32(i), depth)
			}
		})
		tr.nextLevel()
		tr.buildHists()
		for _, b := range tr.builds {
			if nd := &tr.nodes[b.child]; !nd.open {
				tr.putHistSet(nd.hist)
				nd.hist = nil
			}
		}
		tr.level, tr.next = tr.next, tr.level
	}
	return tr.number()
}

// nextLevel hands the histogram sets of the level's nodes on, fills tr.next
// with the children that are open and tr.builds with the children to build.
// A parent's set goes to the child derived from it, or back to the free list,
// before any new set is taken.
func (tr *trainer) nextLevel() {
	tr.next, tr.builds = tr.next[:0], tr.builds[:0]
	for _, i := range tr.level {
		nd := &tr.nodes[i]
		if nd.left < 0 || nd.derive < 0 {
			tr.putHistSet(nd.hist)
		} else {
			tr.nodes[nd.derive].hist = nd.hist
		}
		nd.hist = nil
	}
	for _, i := range tr.level {
		nd := &tr.nodes[i]
		if nd.left < 0 {
			continue
		}
		if nd.build >= 0 {
			tr.nodes[nd.build].hist = tr.getHistSet()
			tr.builds = append(tr.builds, buildTask{nd.build, nd.derive})
		}
		for _, c := range [2]int32{nd.left, nd.left + 1} {
			if tr.nodes[c].open {
				tr.next = append(tr.next, c)
			}
		}
	}
}

// number lays the grown records out as a Tree, numbered depth-first: a split
// node's children take the next two indices when it is reached, and the left
// subtree is numbered before the right, which is the order in which a
// recursive grower appends them.
func (tr *trainer) number() *Tree {
	splits := 0
	for i := range tr.nodes {
		if tr.nodes[i].left >= 0 {
			splits++
		}
	}
	t := &Tree{Nodes: make([]Node, 1+2*splits)}
	next := int32(1)
	tr.stack = append(tr.stack[:0], 0) // the root record, final index 0
	for len(tr.stack) > 0 {
		nd := &tr.nodes[tr.stack[len(tr.stack)-1]]
		tr.stack = tr.stack[:len(tr.stack)-1]
		if nd.left < 0 {
			t.Nodes[nd.final] = Node{Feature: -1, Value: nd.value, Count: nd.hi - nd.lo}
			continue
		}
		l, r := &tr.nodes[nd.left], &tr.nodes[nd.left+1]
		l.final, r.final = next, next+1
		next += 2
		t.Nodes[nd.final] = Node{
			Feature:      nd.split.feature,
			Threshold:    nd.split.threshold,
			Left:         int(l.final),
			Right:        int(r.final),
			Gain:         nd.split.gain,
			Count:        nd.hi - nd.lo,
			DefaultRight: nd.split.defaultRight,
		}
		tr.stack = append(tr.stack, nd.left+1, nd.left)
	}
	return t
}

// makeLeaf makes nd a leaf and adds its value to the scores of its rows.
func (tr *trainer) makeLeaf(nd *growNode) {
	cfg := tr.cfg
	nd.value = math.Ldexp(-cfg.LearningRate*nd.sumG/(nd.sumH+cfg.Lambda), tr.shift)
	addTo(tr.score, tr.rowBuf[nd.lo:nd.hi], nd.value)
}

// addTo adds v to score[r] for every r in rows.
func addTo(score []float64, rows []int32, v float64) {
	for _, r := range rows {
		score[r] += v
	}
}

// gather fills dst[i] with gh[rows[i]].
func gather(dst, gh []gpair, rows []int32) {
	for i, r := range rows {
		dst[i] = gh[r]
	}
}

// needsSplitEval reports whether a node with the given population can be
// split at all — the pre-histogram leaf checks.
func (tr *trainer) needsSplitEval(nRows int, sumH float64, depth int) bool {
	cfg := tr.cfg
	return depth < cfg.MaxDepth && nRows >= 2*cfg.MinChildCount && sumH >= 2*cfg.MinChildWeight
}

// splitNode turns open node i at the given depth into a split or a leaf,
// touching only its own record, the two child records from left on, and its
// own segment of the row buffers, so a level's nodes run concurrently. A
// split partitions the segment stably, makes a leaf of each child that cannot
// split, and picks the children's histogram route: both children open builds
// the smaller and derives the larger by subtraction from the parent — the
// classic histogram trick that nearly halves split-finding work — and one
// open child is built directly when it is the smaller side, else derived from
// its built sibling. The child to build has its gradient pairs gathered into
// its segment of tr.ordered.
func (tr *trainer) splitNode(i, left int32, depth int) {
	nd := &tr.nodes[i]
	nd.build, nd.derive = -1, -1
	rows := tr.rowBuf[nd.lo:nd.hi]
	best := tr.bestSplit(nd.hist, len(rows), nd.sumG, nd.sumH)
	if best.feature < 0 || best.gain <= math.Ldexp(tr.cfg.Gamma, -2*tr.shift) {
		tr.makeLeaf(nd)
		return
	}

	// Stable in-place partition: left rows compact forward, right rows
	// spill to scratch and copy back behind them, preserving relative order
	// on both sides (so directly-built child histograms accumulate in the
	// same order an append-based partition produced).
	codes := tr.binner.codes[best.feature]
	gh := tr.gh
	scratch := tr.partScratch[nd.lo:nd.lo]
	nl := 0
	var lG, lH float64
	for _, r := range rows {
		c := codes[r]
		var goLeft bool
		if c == 0 {
			goLeft = !best.defaultRight
		} else {
			goLeft = c <= best.binCode
		}
		if goLeft {
			rows[nl] = r
			nl++
			lG += gh[r].g
			lH += gh[r].h
		} else {
			scratch = append(scratch, r)
		}
	}
	copy(rows[nl:], scratch)
	if nl == 0 || nl == len(rows) {
		tr.makeLeaf(nd)
		return
	}
	nd.split, nd.left = best, left
	mid := nd.lo + nl
	l, r := &tr.nodes[left], &tr.nodes[left+1]
	*l = growNode{lo: nd.lo, hi: mid, sumG: lG, sumH: lH, left: -1}
	*r = growNode{lo: mid, hi: nd.hi, sumG: nd.sumG - lG, sumH: nd.sumH - lH, left: -1}
	l.open = tr.needsSplitEval(l.hi-l.lo, l.sumH, depth+1)
	r.open = tr.needsSplitEval(r.hi-r.lo, r.sumH, depth+1)
	for _, c := range [2]*growNode{l, r} {
		if !c.open {
			tr.makeLeaf(c)
		}
	}

	nr := len(rows) - nl
	switch {
	case l.open && r.open:
		if nl <= nr {
			nd.build, nd.derive = left, left+1
		} else {
			nd.build, nd.derive = left+1, left
		}
	case l.open:
		if nl <= nr {
			nd.build = left
		} else {
			nd.build, nd.derive = left+1, left
		}
	case r.open:
		if nr <= nl {
			nd.build = left + 1
		} else {
			nd.build, nd.derive = left, left+1
		}
	default:
		return
	}
	b := &tr.nodes[nd.build]
	gather(tr.ordered[b.lo:b.hi], gh, tr.rowBuf[b.lo:b.hi])
}

// buildHists accumulates the histogram sets of the children in tr.builds over
// their rows, one (child, feature) pair per index on the shared pool, and
// subtracts each from its parent's for the sibling derived from it, which
// holds the parent's set. Every slot is written by exactly one index, and
// every bin adds the child's gradient pairs in row order, so results are
// deterministic for any worker count.
func (tr *trainer) buildHists() {
	builds, f := tr.builds, tr.m
	tr.pool.ForChunks(len(builds)*f, tr.pool.Grain(len(builds)*f), func(lo, hi int) {
		for x := lo; x < hi; x++ {
			bt, j := builds[x/f], x%f
			c := &tr.nodes[bt.child]
			base := j * tr.stride
			end := base + tr.binner.numBins[j] + 1 // +1 for the missing bin 0
			hist := c.hist.bins[base:end]
			clear(hist)
			codes, rows := tr.binner.codes[j], tr.rowBuf[c.lo:c.hi]
			for i, p := range tr.ordered[c.lo:c.hi] {
				b := &hist[codes[rows[i]]]
				b.g += p.g
				b.h += p.h
				b.n++
			}
			if bt.derive < 0 {
				continue
			}
			d := tr.nodes[bt.derive].hist.bins[base:end]
			for b := range d {
				d[b] = bin{d[b].g - hist[b].g, d[b].h - hist[b].h, d[b].n - hist[b].n}
			}
		}
	})
}

// bestSplit scans the prebuilt histograms of every feature. The scan is
// serial in feature order (it is cheap relative to histogram accumulation),
// which fixes the tie-break deterministically: on equal gain the earliest
// feature wins, for any worker count.
func (tr *trainer) bestSplit(h *histSet, nRows int, sumG, sumH float64) splitResult {
	cfg := tr.cfg
	parentScore := sumG * sumG / (sumH + cfg.Lambda)
	best := splitResult{feature: -1, gain: 0}

	for j := 0; j < tr.m; j++ {
		nb := tr.binner.numBins[j] + 1
		base := j * tr.stride
		hist := h.bins[base : base+nb]
		miss := hist[0]

		// Sparsity-aware split (XGBoost Alg. 3): scan real-bin boundaries
		// with the missing bin assigned first to the left child, then to
		// the right, and keep the best direction.
		for _, missLeft := range [2]bool{true, false} {
			var lG, lH float64
			lC := 0
			if missLeft {
				lG, lH, lC = miss.g, miss.h, miss.n
			}
			for b := 1; b < nb-1; b++ { // split after real bin b
				lG += hist[b].g
				lH += hist[b].h
				lC += hist[b].n
				rG := sumG - lG
				rH := sumH - lH
				rC := nRows - lC
				if lC < cfg.MinChildCount || rC < cfg.MinChildCount {
					continue
				}
				if lH < cfg.MinChildWeight || rH < cfg.MinChildWeight {
					continue
				}
				gain := 0.5 * (lG*lG/(lH+cfg.Lambda) + rG*rG/(rH+cfg.Lambda) - parentScore)
				if gain > best.gain {
					best = splitResult{
						feature:      j,
						binCode:      uint8(b),
						gain:         gain,
						threshold:    tr.binner.threshold(j, uint8(b)),
						defaultRight: !missLeft,
					}
				}
			}
			if miss.n == 0 {
				break // no missing values: both directions are identical
			}
		}
	}
	return best
}

// PredictRow returns the model output for one row of raw feature values:
// a probability for Logistic, a raw value for Squared, and the argmax class
// index (as a float64) for Softmax.
func (m *Model) PredictRow(row []float64) float64 {
	return m.predictRow(row, m.classScores())
}

// classScores returns a buffer for a Softmax model's per-class raw scores,
// nil for the other objectives.
func (m *Model) classScores() []float64 {
	if m.Config.Objective != Softmax {
		return nil
	}
	return make([]float64, m.Config.NumClass)
}

// predictRow is PredictRow with a Softmax model's class scores summed in s,
// from classScores, so that a batch reuses one buffer.
func (m *Model) predictRow(row, s []float64) float64 {
	if m.Config.Objective == Softmax {
		return float64(argmax(m.rawScores(row, s)))
	}
	sum := m.BaseScore
	for _, t := range m.Trees {
		sum += t.PredictRow(row)
	}
	if m.Config.Objective == Logistic {
		return sigmoid(sum)
	}
	return sum
}

// rawScores sums the per-class raw scores of a Softmax model for one row
// into s and returns it.
func (m *Model) rawScores(row, s []float64) []float64 {
	copy(s, m.BaseScores)
	for ti, t := range m.Trees {
		s[ti%m.Config.NumClass] += t.PredictRow(row)
	}
	return s
}

// PredictRowVector returns the model output as a vector: the length-NumClass
// class-probability vector for Softmax, and a single-element vector (the
// PredictRow value) for Logistic and Squared — so serving code can treat
// every objective uniformly.
func (m *Model) PredictRowVector(row []float64) []float64 {
	if m.Config.Objective != Softmax {
		return []float64{m.PredictRow(row)}
	}
	s := m.rawScores(row, m.classScores())
	softmaxInPlace(s)
	return s
}

// Argmax returns the index of the largest value (first on ties) — the rule
// PredictRow uses to reduce a Softmax probability vector to a class, shared
// so serving code derives the identical scalar from PredictRowVector.
func Argmax(xs []float64) int { return argmax(xs) }

// argmax returns the index of the largest value (first on ties).
func argmax(xs []float64) int {
	best := 0
	for i := 1; i < len(xs); i++ {
		if xs[i] > xs[best] {
			best = i
		}
	}
	return best
}

// softmaxInPlace turns raw scores into probabilities, max-shifted for
// numerical stability.
func softmaxInPlace(s []float64) {
	mx := s[0]
	for _, v := range s[1:] {
		if v > mx {
			mx = v
		}
	}
	var sum float64
	for i, v := range s {
		e := math.Exp(v - mx)
		s[i] = e
		sum += e
	}
	for i := range s {
		s[i] /= sum
	}
}

// Predict scores column-major data and returns one prediction per row.
func (m *Model) Predict(cols [][]float64) []float64 {
	if len(cols) == 0 {
		return nil
	}
	n := len(cols[0])
	out := make([]float64, n)
	row := make([]float64, len(cols))
	s := m.classScores()
	for i := 0; i < n; i++ {
		for j := range cols {
			row[j] = cols[j][i]
		}
		out[i] = m.predictRow(row, s)
	}
	return out
}
