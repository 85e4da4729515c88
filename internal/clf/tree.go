package clf

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// The CART-style decision tree for binary classification: the DT evaluator,
// and the member of RF, ET and AdaBoost. Splits are found with an exact
// greedy scan over sorted feature values; impurity is Gini or entropy.
// Trees take per-row sample weights (AdaBoost) and randomised split
// candidates (ExtraTrees).

// criterion selects the impurity measure.
type criterion int

const (
	gini    criterion = iota // 2 p (1-p)
	entropy                  // -p ln p - (1-p) ln (1-p)
)

// treeConfig holds tree hyper-parameters. Zero values get sensible
// defaults via normalise.
type treeConfig struct {
	maxDepth        int       // <=0 means unlimited (capped at 64)
	minSamplesSplit int       // minimum rows to consider a split (default 2)
	minSamplesLeaf  int       // minimum rows per leaf (default 1)
	criterion       criterion // impurity measure
	maxFeatures     int       // candidate features per split; <=0 means all
	randomSplits    bool      // ExtraTrees mode: one random threshold per feature
	seed            int64
}

func (c treeConfig) normalise() treeConfig {
	if c.maxDepth <= 0 || c.maxDepth > 64 {
		c.maxDepth = 64
	}
	if c.minSamplesSplit < 2 {
		c.minSamplesSplit = 2
	}
	if c.minSamplesLeaf < 1 {
		c.minSamplesLeaf = 1
	}
	return c
}

// node of the flat tree array; leaves have feature == -1.
type node struct {
	feature   int
	threshold float64 // left when value <= threshold
	left      int
	right     int
	prob      float64 // leaf: weighted positive-class probability
	gain      float64 // impurity decrease of the split (weighted)
	count     int
}

func (n *node) isLeaf() bool { return n.feature < 0 }

// tree is a trained decision tree.
type tree struct {
	nodes   []node
	numFeat int
}

// trainTree fits a tree on column-major data with binary labels. weights
// may be nil (uniform). The data is not retained.
func trainTree(cols [][]float64, labels []float64, weights []float64, cfg treeConfig) (*tree, error) {
	cfg = cfg.normalise()
	if err := checkXY("tree", cols, labels); err != nil {
		return nil, err
	}
	n := len(labels)
	if weights == nil {
		weights = make([]float64, n)
		for i := range weights {
			weights[i] = 1
		}
	} else if len(weights) != n {
		return nil, fmt.Errorf("tree: %d weights for %d rows", len(weights), n)
	}

	t := &tree{numFeat: len(cols)}
	b := &builder{
		cols:    cols,
		labels:  labels,
		weights: weights,
		cfg:     cfg,
		rng:     rand.New(rand.NewSource(cfg.seed)),
	}
	rows := make([]int, n)
	for i := range rows {
		rows[i] = i
	}
	t.nodes = append(t.nodes, node{feature: -1, count: n})
	b.grow(t, 0, rows, 0)
	return t, nil
}

type builder struct {
	cols    [][]float64
	labels  []float64
	weights []float64
	cfg     treeConfig
	rng     *rand.Rand
}

func (b *builder) impurity(posW, totW float64) float64 {
	if totW <= 0 {
		return 0
	}
	p := posW / totW
	switch b.cfg.criterion {
	case entropy:
		if p <= 0 || p >= 1 {
			return 0
		}
		return -p*math.Log(p) - (1-p)*math.Log(1-p)
	default:
		return 2 * p * (1 - p)
	}
}

type split struct {
	feature   int
	threshold float64
	gain      float64
}

func (b *builder) grow(t *tree, nodeIdx int, rows []int, depth int) {
	var posW, totW float64
	for _, r := range rows {
		w := b.weights[r]
		totW += w
		if b.labels[r] > 0.5 {
			posW += w
		}
	}
	prob := 0.5
	if totW > 0 {
		prob = posW / totW
	}

	if depth >= b.cfg.maxDepth || len(rows) < b.cfg.minSamplesSplit || posW == 0 || posW == totW {
		t.nodes[nodeIdx].prob = prob
		return
	}

	best := b.findSplit(rows, posW, totW)
	if best.feature < 0 {
		t.nodes[nodeIdx].prob = prob
		return
	}

	col := b.cols[best.feature]
	var left, right []int
	for _, r := range rows {
		v := col[r]
		if math.IsNaN(v) || v <= best.threshold {
			left = append(left, r)
		} else {
			right = append(right, r)
		}
	}
	if len(left) < b.cfg.minSamplesLeaf || len(right) < b.cfg.minSamplesLeaf {
		t.nodes[nodeIdx].prob = prob
		return
	}

	li := len(t.nodes)
	t.nodes = append(t.nodes, node{feature: -1, count: len(left)})
	ri := len(t.nodes)
	t.nodes = append(t.nodes, node{feature: -1, count: len(right)})
	nd := &t.nodes[nodeIdx]
	nd.feature = best.feature
	nd.threshold = best.threshold
	nd.gain = best.gain
	nd.left = li
	nd.right = ri

	b.grow(t, li, left, depth+1)
	b.grow(t, ri, right, depth+1)
}

func (b *builder) candidateFeatures() []int {
	m := len(b.cols)
	k := b.cfg.maxFeatures
	if k <= 0 || k >= m {
		out := make([]int, m)
		for i := range out {
			out[i] = i
		}
		return out
	}
	perm := b.rng.Perm(m)
	return perm[:k]
}

func (b *builder) findSplit(rows []int, posW, totW float64) split {
	parentImp := b.impurity(posW, totW)
	best := split{feature: -1}
	bestGain := 1e-12

	type pair struct {
		v, y, w float64
	}
	buf := make([]pair, len(rows))

	for _, j := range b.candidateFeatures() {
		col := b.cols[j]
		if b.cfg.randomSplits {
			// ExtraTrees: a single uniform-random threshold in [min,max).
			lo, hi := math.Inf(1), math.Inf(-1)
			for _, r := range rows {
				v := col[r]
				if math.IsNaN(v) {
					continue
				}
				if v < lo {
					lo = v
				}
				if v > hi {
					hi = v
				}
			}
			if !(hi > lo) {
				continue
			}
			thr := lo + b.rng.Float64()*(hi-lo)
			var lp, lt float64
			ln, rn := 0, 0
			for _, r := range rows {
				v := col[r]
				w := b.weights[r]
				if math.IsNaN(v) || v <= thr {
					lt += w
					ln++
					if b.labels[r] > 0.5 {
						lp += w
					}
				} else {
					rn++
				}
			}
			if ln < b.cfg.minSamplesLeaf || rn < b.cfg.minSamplesLeaf {
				continue
			}
			rp := posW - lp
			rt := totW - lt
			gain := parentImp - (lt/totW)*b.impurity(lp, lt) - (rt/totW)*b.impurity(rp, rt)
			if gain > bestGain {
				bestGain = gain
				best = split{feature: j, threshold: thr, gain: gain * totW}
			}
			continue
		}

		// Exact scan over sorted values.
		k := 0
		for _, r := range rows {
			v := col[r]
			if math.IsNaN(v) {
				continue
			}
			buf[k] = pair{v: v, y: b.labels[r], w: b.weights[r]}
			k++
		}
		if k < 2 {
			continue
		}
		part := buf[:k]
		sort.Slice(part, func(a, c int) bool { return part[a].v < part[c].v })

		var lp, lt float64
		for i := 0; i+1 < k; i++ {
			lt += part[i].w
			if part[i].y > 0.5 {
				lp += part[i].w
			}
			if part[i].v == part[i+1].v {
				continue
			}
			if i+1 < b.cfg.minSamplesLeaf || k-i-1 < b.cfg.minSamplesLeaf {
				continue
			}
			rp := posW - lp
			rt := totW - lt
			gain := parentImp - (lt/totW)*b.impurity(lp, lt) - (rt/totW)*b.impurity(rp, rt)
			if gain > bestGain {
				bestGain = gain
				best = split{feature: j, threshold: part[i].v, gain: gain * totW}
			}
		}
	}
	return best
}

// predictRow returns the positive-class probability for one row.
func (t *tree) predictRow(row []float64) float64 {
	i := 0
	for {
		n := &t.nodes[i]
		if n.isLeaf() {
			return n.prob
		}
		v := row[n.feature]
		if math.IsNaN(v) || v <= n.threshold {
			i = n.left
		} else {
			i = n.right
		}
	}
}

// Predict scores column-major data.
func (t *tree) Predict(cols [][]float64) []float64 { return predictRows(cols, t.predictRow) }

// featureImportance returns total split gain per feature, normalised to sum
// to 1 when any split exists.
func (t *tree) featureImportance() []float64 {
	imp := make([]float64, t.numFeat)
	total := 0.0
	for i := range t.nodes {
		n := &t.nodes[i]
		if n.isLeaf() {
			continue
		}
		imp[n.feature] += n.gain
		total += n.gain
	}
	if total > 0 {
		for j := range imp {
			imp[j] /= total
		}
	}
	return imp
}
