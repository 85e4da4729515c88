package gbdt

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"

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
	Subsample      float64   // row subsampling per tree, (0,1]
	ColSample      float64   // column subsampling per tree, (0,1]
	MaxBins        int       // histogram bins per feature (<= 255)
	Objective      Objective // training loss
	NumClass       int       // number of classes (Softmax only; >= 2)
	Seed           int64     // RNG seed for subsampling
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
		Subsample:      1.0,
		ColSample:      1.0,
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
	if c.Subsample <= 0 || c.Subsample > 1 {
		return fmt.Errorf("gbdt: Subsample must be in (0,1], got %g", c.Subsample)
	}
	if c.ColSample <= 0 || c.ColSample > 1 {
		return fmt.Errorf("gbdt: ColSample must be in (0,1], got %g", c.ColSample)
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
// binner produces. Cuts must be strictly ascending per feature.
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

// Validate checks the matrix's shape against n rows and bounds every code by
// its feature's bin count, so that whoever indexes by a code — a histogram
// slot here, a cell table in core.ScoreCombos — may do so unchecked. Codes can
// be bytes a peer process sent, so this is a boundary check, not an assertion:
// one max scan per column.
func (pb *Prebinned) Validate(n int) error {
	if len(pb.Cuts) != len(pb.Codes) {
		return fmt.Errorf("gbdt: %d code columns but %d cut arrays", len(pb.Codes), len(pb.Cuts))
	}
	for j, codes := range pb.Codes {
		if len(codes) != n {
			return fmt.Errorf("gbdt: code column %d has %d rows, want %d", j, len(codes), n)
		}
		bins := len(pb.Cuts[j]) + 1
		if bins > 255 {
			return fmt.Errorf("gbdt: feature %d has %d bins, max 255", j, bins)
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
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	m := len(pb.Codes)
	if m == 0 {
		return nil, errors.New("gbdt: no features")
	}
	n := len(labels)
	if n == 0 {
		return nil, errors.New("gbdt: no rows")
	}
	if err := pb.Validate(n); err != nil {
		return nil, err
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

// boost is the boosting loop of every objective. Each round draws its row and
// column subsamples once, then grows one tree per output group on that
// group's gradients — NumClass trees for Softmax, whose class trees share the
// round's subsamples as in XGBoost, and one for Logistic and Squared — and
// adds each tree's outputs to its group's raw scores on all rows, not only the
// sampled ones. ctx is checked once per round, the granularity at which
// abandoning work stays cheap relative to the work itself.
func boost(ctx context.Context, b *binner, labels []float64, names []string, cfg Config) (*Model, error) {
	bases, err := baseScores(cfg, labels)
	if err != nil {
		return nil, err
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
	grad, hess := make([]float64, n), make([]float64, n)
	pool := cfg.pool()
	rng := rand.New(rand.NewSource(cfg.Seed))
	tr := newTrainer(b, cfg, pool, n, m)
	all := appendIota(make([]int, 0, m), m)
	// sample is the round's row sample; without row subsampling it is every
	// row and is not stored.
	var sample []int
	if cfg.Subsample < 1 {
		sample = make([]int, 0, n)
	}

	for t := 0; t < cfg.NumTrees; t++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if prob != nil {
			softmaxProbs(raw, prob, pool)
		}
		if sample != nil {
			sample = sampleRowsInto(sample[:0], n, cfg.Subsample, rng)
		}
		feats := all
		if cfg.ColSample < 1 {
			feats = sampleRowsInto(nil, m, cfg.ColSample, rng)
		}
		for c := range raw {
			gradients(cfg.Objective, c, raw, prob, labels, grad, hess)
			// Each tree partitions its own copy of the round's rows in place,
			// in a per-trainer buffer refilled instead of reallocated.
			rows := tr.rowBuf[:0]
			if sample != nil {
				rows = append(rows, sample...)
			} else {
				rows = appendIota(rows, n)
			}
			tr.rowBuf = rows[:0]
			tree := tr.buildTree(rows, feats, grad, hess)
			model.Trees = append(model.Trees, tree)
			updatePredictions(tree, b, raw[c], pool)
		}
	}
	return model, nil
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

// gradients fills grad and hess with the loss derivatives of output group c:
// squared error on raw[0], cross-entropy on sigmoid(raw[0]) for Logistic, and
// class c's one-vs-rest cross-entropy on prob[c] for Softmax.
func gradients(obj Objective, c int, raw, prob [][]float64, labels, grad, hess []float64) {
	switch obj {
	case Squared:
		for i, r := range raw[0] {
			grad[i] = r - labels[i]
			hess[i] = 1
		}
	case Logistic:
		for i, r := range raw[0] {
			crossEntropy(grad, hess, i, sigmoid(r), labels[i])
		}
	default:
		for i, p := range prob[c] {
			y := 0.0
			if int(labels[i]) == c {
				y = 1
			}
			crossEntropy(grad, hess, i, p, y)
		}
	}
}

// crossEntropy sets row i's gradient and hessian for probability p against
// target y, flooring the hessian so a saturated row cannot zero a leaf's
// denominator.
func crossEntropy(grad, hess []float64, i int, p, y float64) {
	grad[i] = p - y
	h := p * (1 - p)
	if h < 1e-16 {
		h = 1e-16
	}
	hess[i] = h
}

// softmaxProbs fills prob with the row-wise softmax of the per-class raw
// scores, row-parallel (each row's slots written by exactly one chunk).
func softmaxProbs(raw, prob [][]float64, pool *parallel.Pool) {
	k := len(raw)
	pool.ForChunks(len(raw[0]), 2048, func(lo, hi int) {
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
func appendIota(dst []int, n int) []int {
	for i := 0; i < n; i++ {
		dst = append(dst, i)
	}
	return dst
}

// sampleRowsInto appends a Bernoulli sample of [0,n) to dst (never empty).
func sampleRowsInto(dst []int, n int, frac float64, rng *rand.Rand) []int {
	base := len(dst)
	for i := 0; i < n; i++ {
		if rng.Float64() < frac {
			dst = append(dst, i)
		}
	}
	if len(dst) == base {
		dst = append(dst, rng.Intn(n))
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

func newBinner(cols [][]float64, maxBins int, pool *parallel.Pool) *binner {
	m := len(cols)
	b := &binner{
		codes:   make([][]uint8, m),
		cuts:    make([][]float64, m),
		numBins: make([]int, m),
	}
	// Columns bin independently; chunks amortise one quantile scratch each.
	pool.ForChunks(m, pool.Grain(m), func(lo, hi int) {
		var qs stats.QuantileScratch
		var ix stats.CutIndexer
		for j := lo; j < hi; j++ {
			cuts := quantileCuts(cols[j], maxBins, &qs)
			b.cuts[j] = cuts
			b.numBins[j] = len(cuts) + 1
			ix.Reset(cuts)
			codes := make([]uint8, len(cols[j]))
			for i, v := range cols[j] {
				if math.IsNaN(v) {
					codes[i] = 0
					continue
				}
				codes[i] = uint8(1 + ix.Find(v))
			}
			b.codes[j] = codes
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
	// stride is the per-feature slot width in a histSet: the largest
	// numBins[j]+1 (real bins plus the missing bin 0) across features.
	stride int
	// free is the hist-set free list. Depth-first growth holds at most two
	// sets per level, so the list stays O(MaxDepth) long and every tree
	// after the first builds histograms without allocating.
	free []*histSet
	// rowBuf backs the per-tree row set (partitioned in place as the tree
	// grows); partScratch is the right-side spill buffer that keeps the
	// partition stable.
	rowBuf      []int
	partScratch []int
}

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
		rowBuf:      make([]int, 0, n),
		partScratch: make([]int, 0, n),
	}
}

// histSet holds the gradient histograms of every candidate feature for one
// node, flattened with a fixed stride so one allocation serves all features.
type histSet struct {
	grad  []float64
	hess  []float64
	count []int
}

func (tr *trainer) getHistSet() *histSet {
	if n := len(tr.free); n > 0 {
		h := tr.free[n-1]
		tr.free = tr.free[:n-1]
		return h
	}
	size := tr.m * tr.stride
	return &histSet{
		grad:  make([]float64, size),
		hess:  make([]float64, size),
		count: make([]int, size),
	}
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

// buildTree grows one tree depth-first over the given row and feature
// subsets. rows is partitioned in place as the tree grows.
func (tr *trainer) buildTree(rows, feats []int, grad, hess []float64) *Tree {
	t := &Tree{}
	var sumG, sumH float64
	for _, r := range rows {
		sumG += grad[r]
		sumH += hess[r]
	}
	t.Nodes = append(t.Nodes, Node{Feature: -1, Count: len(rows)})
	var h *histSet
	if tr.needsSplitEval(len(rows), sumH, 0) {
		h = tr.getHistSet()
		tr.computeHists(rows, feats, grad, hess, h)
	}
	tr.grow(t, 0, rows, feats, grad, hess, sumG, sumH, 0, h)
	return t
}

// needsSplitEval reports whether a node with the given population can be
// split at all — the pre-histogram leaf checks.
func (tr *trainer) needsSplitEval(nRows int, sumH float64, depth int) bool {
	cfg := tr.cfg
	return depth < cfg.MaxDepth && nRows >= 2*cfg.MinChildCount && sumH >= 2*cfg.MinChildWeight
}

// grow turns node nodeIdx into a split or a leaf. h is the node's histogram
// set (nil when the leaf checks already failed); grow owns h and returns it
// to the free list. Children histograms are built for the smaller side only
// and derived for the larger by subtraction from the parent — the classic
// histogram trick that nearly halves split-finding work.
func (tr *trainer) grow(t *Tree, nodeIdx int, rows, feats []int, grad, hess []float64, sumG, sumH float64, depth int, h *histSet) {
	cfg := tr.cfg
	leafValue := -cfg.LearningRate * sumG / (sumH + cfg.Lambda)

	if h == nil {
		t.Nodes[nodeIdx].Value = leafValue
		return
	}

	best := tr.bestSplit(h, feats, len(rows), sumG, sumH)
	if best.feature < 0 || best.gain <= cfg.Gamma {
		t.Nodes[nodeIdx].Value = leafValue
		tr.putHistSet(h)
		return
	}

	// Stable in-place partition: left rows compact forward, right rows
	// spill to scratch and copy back behind them, preserving relative order
	// on both sides (so directly-built child histograms accumulate in the
	// same order an append-based partition produced).
	codes := tr.binner.codes[best.feature]
	scratch := tr.partScratch[:0]
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
			lG += grad[r]
			lH += hess[r]
		} else {
			scratch = append(scratch, r)
		}
	}
	copy(rows[nl:], scratch)
	tr.partScratch = scratch[:0]
	left, right := rows[:nl], rows[nl:]
	if len(left) == 0 || len(right) == 0 {
		t.Nodes[nodeIdx].Value = leafValue
		tr.putHistSet(h)
		return
	}
	rG, rH := sumG-lG, sumH-lH

	li := len(t.Nodes)
	t.Nodes = append(t.Nodes, Node{Feature: -1, Count: len(left)})
	ri := len(t.Nodes)
	t.Nodes = append(t.Nodes, Node{Feature: -1, Count: len(right)})

	nd := &t.Nodes[nodeIdx]
	nd.Feature = best.feature
	nd.Threshold = best.threshold
	nd.Gain = best.gain
	nd.Left = li
	nd.Right = ri
	nd.DefaultRight = best.defaultRight

	needL := tr.needsSplitEval(len(left), lH, depth+1)
	needR := tr.needsSplitEval(len(right), rH, depth+1)
	var hL, hR *histSet
	switch {
	case needL && needR:
		if len(left) <= len(right) {
			hL = tr.getHistSet()
			tr.computeHists(left, feats, grad, hess, hL)
			hR = tr.getHistSet()
			tr.subtractHists(hR, h, hL, feats)
		} else {
			hR = tr.getHistSet()
			tr.computeHists(right, feats, grad, hess, hR)
			hL = tr.getHistSet()
			tr.subtractHists(hL, h, hR, feats)
		}
	case needL:
		hL = tr.childHist(h, left, right, feats, grad, hess)
	case needR:
		hR = tr.childHist(h, right, left, feats, grad, hess)
	}
	tr.putHistSet(h)

	tr.grow(t, li, left, feats, grad, hess, lG, lH, depth+1, hL)
	tr.grow(t, ri, right, feats, grad, hess, rG, rH, depth+1, hR)
}

// childHist builds the histogram set of child (sibling being the other
// side) by whichever route is cheaper: direct accumulation over child's
// rows, or accumulating the sibling and subtracting from the parent.
func (tr *trainer) childHist(parent *histSet, child, sibling, feats []int, grad, hess []float64) *histSet {
	if len(child) <= len(sibling) {
		h := tr.getHistSet()
		tr.computeHists(child, feats, grad, hess, h)
		return h
	}
	hs := tr.getHistSet()
	tr.computeHists(sibling, feats, grad, hess, hs)
	h := tr.getHistSet()
	tr.subtractHists(h, parent, hs, feats)
	tr.putHistSet(hs)
	return h
}

// computeHists accumulates per-feature gradient histograms over rows,
// feature-parallel on the shared pool. Each feature slot is written by
// exactly one chunk, so results are deterministic for any worker count.
func (tr *trainer) computeHists(rows, feats []int, grad, hess []float64, h *histSet) {
	tr.pool.ForChunks(len(feats), tr.pool.Grain(len(feats)), func(lo, hi int) {
		for k := lo; k < hi; k++ {
			j := feats[k]
			nb := tr.binner.numBins[j] + 1 // +1 for the missing bin 0
			base := k * tr.stride
			g := h.grad[base : base+nb]
			hh := h.hess[base : base+nb]
			cnt := h.count[base : base+nb]
			for b := range g {
				g[b] = 0
				hh[b] = 0
				cnt[b] = 0
			}
			codes := tr.binner.codes[j]
			for _, r := range rows {
				c := codes[r]
				g[c] += grad[r]
				hh[c] += hess[r]
				cnt[c]++
			}
		}
	})
}

// subtractHists derives dst = parent - child per feature slot.
func (tr *trainer) subtractHists(dst, parent, child *histSet, feats []int) {
	for k := range feats {
		nb := tr.binner.numBins[feats[k]] + 1
		base := k * tr.stride
		for b := base; b < base+nb; b++ {
			dst.grad[b] = parent.grad[b] - child.grad[b]
			dst.hess[b] = parent.hess[b] - child.hess[b]
			dst.count[b] = parent.count[b] - child.count[b]
		}
	}
}

// bestSplit scans the prebuilt histograms of every candidate feature. The
// scan is serial in feats order (it is cheap relative to histogram
// accumulation), which fixes the tie-break deterministically: on equal gain
// the earliest feature in feats wins, for any worker count.
func (tr *trainer) bestSplit(h *histSet, feats []int, nRows int, sumG, sumH float64) splitResult {
	cfg := tr.cfg
	parentScore := sumG * sumG / (sumH + cfg.Lambda)
	best := splitResult{feature: -1, gain: 0}

	for k, j := range feats {
		nb := tr.binner.numBins[j] + 1
		base := k * tr.stride
		g := h.grad[base : base+nb]
		hh := h.hess[base : base+nb]
		cnt := h.count[base : base+nb]
		mG, mH := g[0], hh[0]
		mC := cnt[0]

		// Sparsity-aware split (XGBoost Alg. 3): scan real-bin boundaries
		// with the missing bin assigned first to the left child, then to
		// the right, and keep the best direction.
		for _, missLeft := range [2]bool{true, false} {
			var lG, lH float64
			lC := 0
			if missLeft {
				lG, lH, lC = mG, mH, mC
			}
			for b := 1; b < nb-1; b++ { // split after real bin b
				lG += g[b]
				lH += hh[b]
				lC += cnt[b]
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
			if mC == 0 {
				break // no missing values: both directions are identical
			}
		}
	}
	return best
}

// updatePredictions adds the new tree's outputs to the raw scores of all
// rows, walking bin codes row-parallel on the shared pool (each index written
// exactly once). A value in bin c satisfies v <= Threshold == cuts[bc-1] iff
// c <= bc, so every row lands in the leaf PredictRow reaches on its raw values.
func updatePredictions(t *Tree, b *binner, raw []float64, pool *parallel.Pool) {
	lc := leftCodes(t, b)
	pool.ForChunks(len(raw), 2048, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			idx := 0
			for {
				n := &t.Nodes[idx]
				if n.IsLeaf() {
					raw[i] += n.Value
					break
				}
				c := b.codes[n.Feature][i]
				switch {
				case c == 0:
					if n.DefaultRight {
						idx = n.Right
					} else {
						idx = n.Left
					}
				case c <= lc[idx]:
					idx = n.Left
				default:
					idx = n.Right
				}
			}
		}
	})
}

// leftCodes maps every internal node's threshold back to its bin code: go
// left when 1 <= code <= leftCodes[node]. Thresholds are cut values, so the
// lookup is an exact inverse of binner.threshold.
func leftCodes(t *Tree, b *binner) []uint8 {
	out := make([]uint8, len(t.Nodes))
	for i := range t.Nodes {
		n := &t.Nodes[i]
		if n.IsLeaf() {
			continue
		}
		out[i] = uint8(1 + stats.SearchCuts(b.cuts[n.Feature], n.Threshold))
	}
	return out
}

// PredictRow returns the model output for one row of raw feature values:
// a probability for Logistic, a raw value for Squared, and the argmax class
// index (as a float64) for Softmax.
func (m *Model) PredictRow(row []float64) float64 {
	if m.Config.Objective == Softmax {
		return float64(argmax(m.rawScores(row)))
	}
	s := m.BaseScore
	for _, t := range m.Trees {
		s += t.PredictRow(row)
	}
	if m.Config.Objective == Logistic {
		return sigmoid(s)
	}
	return s
}

// rawScores sums the per-class raw scores of a Softmax model for one row.
func (m *Model) rawScores(row []float64) []float64 {
	s := append([]float64(nil), m.BaseScores...)
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
	s := m.rawScores(row)
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
	for i := 0; i < n; i++ {
		for j := range cols {
			row[j] = cols[j][i]
		}
		out[i] = m.PredictRow(row)
	}
	return out
}
