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

// boost is the boosting loop of every objective. Each round draws its row and
// column subsamples once, then grows one tree per output group on that
// group's gradients — NumClass trees for Softmax, whose class trees share the
// round's subsamples as in XGBoost, and one for Logistic and Squared — and
// adds each tree's outputs to its group's raw scores on all rows, not only the
// sampled ones. ctx is checked once per round, the granularity at which
// abandoning work stays cheap relative to the work itself.
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
	rng := rand.New(rand.NewSource(cfg.Seed))
	tr := newTrainer(b, cfg, pool, n, m)
	all := appendIota(make([]int, 0, m), m)
	// sample is the round's row sample and rest the rows it leaves out;
	// without row subsampling sample is every row and is not stored, and rest
	// is empty.
	var sample, rest []int32
	if cfg.Subsample < 1 {
		sample, rest = make([]int32, 0, n), make([]int32, 0, n)
	}

	for t := 0; t < cfg.NumTrees; t++ {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		if prob != nil {
			softmaxProbs(raw, prob, pool)
		}
		if sample != nil {
			sample = sampleInto(sample[:0], n, cfg.Subsample, rng)
			rest = appendComplement(rest[:0], sample, n)
		}
		feats := all
		if cfg.ColSample < 1 {
			feats = sampleInto[int](nil, m, cfg.ColSample, rng)
		}
		for c := range raw {
			gradients(cfg.Objective, c, raw, prob, labels, gh)
			// Each tree partitions its own copy of the round's rows in place,
			// in a per-trainer buffer refilled instead of reallocated.
			rows := tr.rowBuf[:0]
			if sample != nil {
				rows = append(rows, sample...)
			} else {
				rows = appendIota(rows, n)
			}
			model.Trees = append(model.Trees, tr.buildTree(rows, rest, feats, gh, raw[c]))
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

// gpair is one row's gradient and hessian, side by side so one load brings
// both.
type gpair struct{ g, h float64 }

// gradients fills gh with the loss derivatives of output group c: squared
// error on raw[0], cross-entropy on sigmoid(raw[0]) for Logistic, and class
// c's one-vs-rest cross-entropy on prob[c] for Softmax.
func gradients(obj Objective, c int, raw, prob [][]float64, labels []float64, gh []gpair) {
	switch obj {
	case Squared:
		for i, r := range raw[0] {
			gh[i] = gpair{r - labels[i], 1}
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
func appendIota[T int | int32](dst []T, n int) []T {
	for i := 0; i < n; i++ {
		dst = append(dst, T(i))
	}
	return dst
}

// sampleInto appends a Bernoulli sample of [0,n) to dst (never empty).
func sampleInto[T int | int32](dst []T, n int, frac float64, rng *rand.Rand) []T {
	base := len(dst)
	for i := 0; i < n; i++ {
		if rng.Float64() < frac {
			dst = append(dst, T(i))
		}
	}
	if len(dst) == base {
		dst = append(dst, T(rng.Intn(n)))
	}
	return dst
}

// appendComplement appends the rows of [0,n) that the ascending sample leaves
// out to dst.
func appendComplement(dst, sample []int32, n int) []int32 {
	for i := int32(0); i < int32(n); i++ {
		if len(sample) > 0 && sample[0] == i {
			sample = sample[1:]
			continue
		}
		dst = append(dst, i)
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
	// partition stable. Rows are int32: trainBinned bounds n.
	rowBuf      []int32
	partScratch []int32
	// ordered holds the gradient pairs of the rows computeHists is
	// accumulating, in the order of those rows.
	ordered []gpair

	// The tree being grown: its candidate features, the round's gradient
	// pairs and its output group's raw scores, both indexed by row, and each
	// node's split code (go left when 1 <= code <= splitCodes[node]).
	feats      []int
	gh         []gpair
	score      []float64
	splitCodes []uint8
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

// histSet holds the gradient histograms of every candidate feature for one
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

// buildTree grows one tree depth-first over the given row and feature
// subsets on the round's gradient pairs gh, and adds its outputs to score on
// every row: on rows as each leaf is made, the partition having already put
// them there, and on rest, the rows outside the round's sample, by a walk.
// rows is partitioned in place as the tree grows.
func (tr *trainer) buildTree(rows, rest []int32, feats []int, gh []gpair, score []float64) *Tree {
	tr.feats, tr.gh, tr.score = feats, gh, score
	tr.splitCodes = append(tr.splitCodes[:0], 0)
	t := &Tree{}
	var sumG, sumH float64
	for _, r := range rows {
		sumG += gh[r].g
		sumH += gh[r].h
	}
	t.Nodes = append(t.Nodes, Node{Feature: -1, Count: len(rows)})
	var h *histSet
	if tr.needsSplitEval(len(rows), sumH, 0) {
		h = tr.getHistSet()
		tr.computeHists(rows, h)
	}
	tr.grow(t, 0, rows, sumG, sumH, 0, h)
	tr.walk(t, rest)
	return t
}

// leaf makes node idx a leaf of value v and adds v to the scores of its rows,
// row-parallel on the shared pool (each score written by exactly one chunk).
// A leaf of one chunk is updated here, without building a closure for the
// pool: most leaves are, and the closure would be an allocation per leaf.
func (tr *trainer) leaf(t *Tree, idx int, rows []int32, v float64) {
	t.Nodes[idx].Value = v
	score := tr.score
	if len(rows) <= rowGrain {
		addTo(score, rows, v)
		return
	}
	tr.pool.ForChunks(len(rows), rowGrain, func(lo, hi int) { addTo(score, rows[lo:hi], v) })
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

// walk adds the tree's outputs to the scores of rows, routing each by its bin
// codes against the split codes the tree was grown with — the comparison the
// partition made, so a row walked lands where the partition would have put
// it, and where PredictRow sends its raw values. Row-parallel on the shared
// pool, each score written once.
func (tr *trainer) walk(t *Tree, rows []int32) {
	codes, split, score := tr.binner.codes, tr.splitCodes, tr.score
	tr.pool.ForChunks(len(rows), rowGrain, func(lo, hi int) {
		for _, r := range rows[lo:hi] {
			idx := 0
			for {
				n := &t.Nodes[idx]
				if n.IsLeaf() {
					score[r] += n.Value
					break
				}
				c := codes[n.Feature][r]
				switch {
				case c == 0:
					if n.DefaultRight {
						idx = n.Right
					} else {
						idx = n.Left
					}
				case c <= split[idx]:
					idx = n.Left
				default:
					idx = n.Right
				}
			}
		}
	})
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
func (tr *trainer) grow(t *Tree, nodeIdx int, rows []int32, sumG, sumH float64, depth int, h *histSet) {
	cfg := tr.cfg
	leafValue := -cfg.LearningRate * sumG / (sumH + cfg.Lambda)

	if h == nil {
		tr.leaf(t, nodeIdx, rows, leafValue)
		return
	}

	best := tr.bestSplit(h, len(rows), sumG, sumH)
	if best.feature < 0 || best.gain <= cfg.Gamma {
		tr.leaf(t, nodeIdx, rows, leafValue)
		tr.putHistSet(h)
		return
	}

	// Stable in-place partition: left rows compact forward, right rows
	// spill to scratch and copy back behind them, preserving relative order
	// on both sides (so directly-built child histograms accumulate in the
	// same order an append-based partition produced).
	codes := tr.binner.codes[best.feature]
	gh := tr.gh
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
			lG += gh[r].g
			lH += gh[r].h
		} else {
			scratch = append(scratch, r)
		}
	}
	copy(rows[nl:], scratch)
	tr.partScratch = scratch[:0]
	left, right := rows[:nl], rows[nl:]
	if len(left) == 0 || len(right) == 0 {
		tr.leaf(t, nodeIdx, rows, leafValue)
		tr.putHistSet(h)
		return
	}
	rG, rH := sumG-lG, sumH-lH

	li := len(t.Nodes)
	t.Nodes = append(t.Nodes, Node{Feature: -1, Count: len(left)})
	ri := len(t.Nodes)
	t.Nodes = append(t.Nodes, Node{Feature: -1, Count: len(right)})
	tr.splitCodes[nodeIdx] = best.binCode
	tr.splitCodes = append(tr.splitCodes, 0, 0)

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
			tr.computeHists(left, hL)
			hR = tr.getHistSet()
			tr.subtractHists(hR, h, hL)
		} else {
			hR = tr.getHistSet()
			tr.computeHists(right, hR)
			hL = tr.getHistSet()
			tr.subtractHists(hL, h, hR)
		}
	case needL:
		hL = tr.childHist(h, left, right)
	case needR:
		hR = tr.childHist(h, right, left)
	}
	tr.putHistSet(h)

	tr.grow(t, li, left, lG, lH, depth+1, hL)
	tr.grow(t, ri, right, rG, rH, depth+1, hR)
}

// childHist builds the histogram set of child (sibling being the other
// side) by whichever route is cheaper: direct accumulation over child's
// rows, or accumulating the sibling and subtracting from the parent.
func (tr *trainer) childHist(parent *histSet, child, sibling []int32) *histSet {
	if len(child) <= len(sibling) {
		h := tr.getHistSet()
		tr.computeHists(child, h)
		return h
	}
	hs := tr.getHistSet()
	tr.computeHists(sibling, hs)
	h := tr.getHistSet()
	tr.subtractHists(h, parent, hs)
	tr.putHistSet(hs)
	return h
}

// computeHists accumulates per-feature gradient histograms over rows. It
// gathers the rows' gradient pairs into tr.ordered once, so each feature's
// loop reads its codes at random but the pairs in sequence; every bin still
// adds the same values in the same order. The gather runs row-parallel and
// the features feature-parallel on the shared pool, each slot written by
// exactly one chunk, so results are deterministic for any worker count.
func (tr *trainer) computeHists(rows []int32, h *histSet) {
	ordered, gh := tr.ordered[:len(rows)], tr.gh
	if len(rows) <= rowGrain { // one chunk, as in leaf
		gather(ordered, gh, rows)
	} else {
		tr.pool.ForChunks(len(rows), rowGrain, func(lo, hi int) { gather(ordered[lo:hi], gh, rows[lo:hi]) })
	}
	feats := tr.feats
	tr.pool.ForChunks(len(feats), tr.pool.Grain(len(feats)), func(lo, hi int) {
		for k := lo; k < hi; k++ {
			j := feats[k]
			base := k * tr.stride
			hist := h.bins[base : base+tr.binner.numBins[j]+1] // +1 for the missing bin 0
			clear(hist)
			codes := tr.binner.codes[j]
			for i, p := range ordered {
				b := &hist[codes[rows[i]]]
				b.g += p.g
				b.h += p.h
				b.n++
			}
		}
	})
}

// subtractHists derives dst = parent - child per feature slot.
func (tr *trainer) subtractHists(dst, parent, child *histSet) {
	for k, j := range tr.feats {
		base := k * tr.stride
		end := base + tr.binner.numBins[j] + 1
		d, p, c := dst.bins[base:end], parent.bins[base:end], child.bins[base:end]
		for b := range d {
			d[b] = bin{p[b].g - c[b].g, p[b].h - c[b].h, p[b].n - c[b].n}
		}
	}
}

// bestSplit scans the prebuilt histograms of every candidate feature. The
// scan is serial in feats order (it is cheap relative to histogram
// accumulation), which fixes the tie-break deterministically: on equal gain
// the earliest feature in feats wins, for any worker count.
func (tr *trainer) bestSplit(h *histSet, nRows int, sumG, sumH float64) splitResult {
	cfg := tr.cfg
	parentScore := sumG * sumG / (sumH + cfg.Lambda)
	best := splitResult{feature: -1, gain: 0}

	for k, j := range tr.feats {
		nb := tr.binner.numBins[j] + 1
		base := k * tr.stride
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
