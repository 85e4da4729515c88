package clf

import (
	"container/heap"
	"math/rand"
)

// The k-nearest-neighbours evaluator: standardised Euclidean distance and
// probability output (fraction of positive neighbours). For the dataset
// sizes in this repository a brute force scan with a bounded max-heap is
// fast enough and has no tuning surface; training-set subsampling keeps the
// largest benchmarks tractable.

// knnConfig holds kNN parameters.
type knnConfig struct {
	k        int
	maxTrain int // subsample the training set to at most this many rows (<=0: no cap)
	seed     int64
}

// defaultKNNConfig mirrors sklearn's KNeighborsClassifier default (k=5)
// with a training-set cap for the biggest benchmarks.
func defaultKNNConfig() knnConfig { return knnConfig{k: 5, maxTrain: 20000} }

// knnModel is a fitted kNN classifier (it memorises standardised training
// rows).
type knnModel struct {
	k  int
	x  [][]float64
	y  []float64
	sc scaler
}

// trainKNN memorises (a subsample of) the training data in standardised
// form.
func trainKNN(cols [][]float64, labels []float64, cfg knnConfig) (*knnModel, error) {
	if err := checkXY("knn", cols, labels); err != nil {
		return nil, err
	}
	n := len(labels)
	mod := &knnModel{k: cfg.k, sc: fitScaler(cols)}

	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	if cfg.maxTrain > 0 && n > cfg.maxTrain {
		rng := rand.New(rand.NewSource(cfg.seed))
		rng.Shuffle(n, func(a, b int) { idx[a], idx[b] = idx[b], idx[a] })
		idx = idx[:cfg.maxTrain]
	}

	mod.x = make([][]float64, len(idx))
	mod.y = make([]float64, len(idx))
	for out, i := range idx {
		mod.x[out] = mod.sc.row(cols, i)
		mod.y[out] = labels[i]
	}
	return mod, nil
}

// distHeap is a bounded max-heap of (distance, label) pairs.
type distHeap []struct{ d, y float64 }

func (h distHeap) Len() int            { return len(h) }
func (h distHeap) Less(i, j int) bool  { return h[i].d > h[j].d } // max-heap
func (h distHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *distHeap) Push(x interface{}) { *h = append(*h, x.(struct{ d, y float64 })) }
func (h *distHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// predictRow returns the fraction of positive labels among the k nearest
// training rows of a raw input row.
func (mod *knnModel) predictRow(row []float64) float64 {
	q := make([]float64, len(row))
	mod.sc.apply(row, q)
	h := make(distHeap, 0, mod.k+1)
	for i, x := range mod.x {
		d := 0.0
		for j, v := range q {
			diff := v - x[j]
			d += diff * diff
			if len(h) == mod.k && d > h[0].d {
				break // early abandon: already worse than the k-th best
			}
		}
		if len(h) < mod.k {
			heap.Push(&h, struct{ d, y float64 }{d, mod.y[i]})
		} else if d < h[0].d {
			h[0] = struct{ d, y float64 }{d, mod.y[i]}
			heap.Fix(&h, 0)
		}
	}
	if len(h) == 0 {
		return 0.5
	}
	pos := 0.0
	for _, it := range h {
		if it.y > 0.5 {
			pos++
		}
	}
	return pos / float64(len(h))
}

// Predict scores column-major data.
func (mod *knnModel) Predict(cols [][]float64) []float64 { return predictRows(cols, mod.predictRow) }
