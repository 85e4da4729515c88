package clf

import "math/rand"

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

// distHeap is a bounded max-heap of (distance, label) pairs. push and
// fixTop are container/heap's Push and Fix(h, 0) sift operations on the
// concrete type, so a scored row boxes nothing.
type distHeap []neighbour

type neighbour struct{ d, y float64 }

// push appends it and sifts it up.
func (h *distHeap) push(it neighbour) {
	*h = append(*h, it)
	q := *h
	for j := len(q) - 1; j > 0; {
		i := (j - 1) / 2 // parent
		if !(q[j].d > q[i].d) {
			break
		}
		q[i], q[j] = q[j], q[i]
		j = i
	}
}

// fixTop sifts a replaced root down.
func (h distHeap) fixTop() {
	for i := 0; ; {
		j := 2*i + 1 // left child
		if j >= len(h) {
			return
		}
		if j+1 < len(h) && h[j+1].d > h[j].d {
			j++ // right child
		}
		if !(h[j].d > h[i].d) {
			return
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
}

// predictRow returns the fraction of positive labels among the k nearest
// training rows of row, which it standardises in place (it is predictRows'
// buffer); buf is the caller's heap storage, of capacity k.
func (mod *knnModel) predictRow(row []float64, buf distHeap) float64 {
	mod.sc.apply(row)
	h := buf[:0]
	for i, x := range mod.x {
		d := 0.0
		for j, v := range row {
			diff := v - x[j]
			d += diff * diff
			if len(h) == mod.k && d > h[0].d {
				break // early abandon: already worse than the k-th best
			}
		}
		if len(h) < mod.k {
			h.push(neighbour{d, mod.y[i]})
		} else if d < h[0].d {
			h[0] = neighbour{d, mod.y[i]}
			h.fixTop()
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

// Predict scores column-major data with one heap for every row.
func (mod *knnModel) Predict(cols [][]float64) []float64 {
	buf := make(distHeap, 0, mod.k)
	return predictRows(cols, func(row []float64) float64 { return mod.predictRow(row, buf) })
}
