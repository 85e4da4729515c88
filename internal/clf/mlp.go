package clf

import (
	"math"
	"math/rand"
)

// The Multi-Layered Perceptron evaluator: one ReLU hidden layer, a sigmoid
// output unit, binary cross-entropy loss, and mini-batch SGD with momentum
// on standardised inputs.

// mlpConfig holds MLP hyper-parameters.
type mlpConfig struct {
	hidden       int
	epochs       int
	learningRate float64
	momentum     float64
	batchSize    int
	l2           float64
	seed         int64
}

// defaultMLPConfig mirrors sklearn's MLPClassifier scale at this
// repository's dataset sizes (100 hidden units is overkill for synthetic
// benchmarks; 32 keeps runtimes sane without changing relative results).
func defaultMLPConfig() mlpConfig {
	return mlpConfig{hidden: 32, epochs: 30, learningRate: 0.05, momentum: 0.9, batchSize: 64, l2: 1e-4}
}

// mlpModel is a trained MLP.
type mlpModel struct {
	w1 [][]float64 // hidden x input
	b1 []float64
	w2 []float64 // output weights over hidden
	b2 float64
	sc scaler
}

// trainMLP fits the network on column-major data with {0,1} labels.
func trainMLP(cols [][]float64, labels []float64, cfg mlpConfig) (*mlpModel, error) {
	if err := checkXY("mlp", cols, labels); err != nil {
		return nil, err
	}
	m := len(cols)
	n := len(labels)
	mod := &mlpModel{
		w1: make([][]float64, cfg.hidden),
		b1: make([]float64, cfg.hidden),
		w2: make([]float64, cfg.hidden),
		sc: fitScaler(cols),
	}

	rng := rand.New(rand.NewSource(cfg.seed))
	scale := math.Sqrt(2 / float64(m))
	for h := 0; h < cfg.hidden; h++ {
		mod.w1[h] = make([]float64, m)
		for j := 0; j < m; j++ {
			mod.w1[h][j] = rng.NormFloat64() * scale
		}
		mod.w2[h] = rng.NormFloat64() * math.Sqrt(2/float64(cfg.hidden))
	}

	x := mod.sc.rows(cols)

	// Momentum buffers.
	vw1 := make([][]float64, cfg.hidden)
	for h := range vw1 {
		vw1[h] = make([]float64, m)
	}
	vb1 := make([]float64, cfg.hidden)
	vw2 := make([]float64, cfg.hidden)
	vb2 := 0.0

	hid := make([]float64, cfg.hidden)
	gw1 := make([][]float64, cfg.hidden)
	for h := range gw1 {
		gw1[h] = make([]float64, m)
	}
	gb1 := make([]float64, cfg.hidden)
	gw2 := make([]float64, cfg.hidden)

	order := rng.Perm(n)
	for epoch := 0; epoch < cfg.epochs; epoch++ {
		lr := cfg.learningRate / (1 + 0.05*float64(epoch))
		shuffleInts(order, rng)
		for start := 0; start < n; start += cfg.batchSize {
			end := start + cfg.batchSize
			if end > n {
				end = n
			}
			for h := 0; h < cfg.hidden; h++ {
				for j := 0; j < m; j++ {
					gw1[h][j] = 0
				}
				gb1[h] = 0
				gw2[h] = 0
			}
			gb2 := 0.0
			for _, i := range order[start:end] {
				// Forward.
				for h := 0; h < cfg.hidden; h++ {
					z := mod.b1[h]
					w := mod.w1[h]
					for j, v := range x[i] {
						z += w[j] * v
					}
					if z < 0 {
						z = 0
					}
					hid[h] = z
				}
				z2 := mod.b2
				for h := 0; h < cfg.hidden; h++ {
					z2 += mod.w2[h] * hid[h]
				}
				p := sigmoid(z2)
				// Backward.
				dOut := p - labels[i]
				gb2 += dOut
				for h := 0; h < cfg.hidden; h++ {
					gw2[h] += dOut * hid[h]
					if hid[h] > 0 {
						dh := dOut * mod.w2[h]
						gb1[h] += dh
						gw := gw1[h]
						for j, v := range x[i] {
							gw[j] += dh * v
						}
					}
				}
			}
			k := float64(end - start)
			for h := 0; h < cfg.hidden; h++ {
				vw2[h] = cfg.momentum*vw2[h] - lr*(gw2[h]/k+cfg.l2*mod.w2[h])
				mod.w2[h] += vw2[h]
				vb1[h] = cfg.momentum*vb1[h] - lr*gb1[h]/k
				mod.b1[h] += vb1[h]
				for j := 0; j < m; j++ {
					vw1[h][j] = cfg.momentum*vw1[h][j] - lr*(gw1[h][j]/k+cfg.l2*mod.w1[h][j])
					mod.w1[h][j] += vw1[h][j]
				}
			}
			vb2 = cfg.momentum*vb2 - lr*gb2/k
			mod.b2 += vb2
		}
	}
	return mod, nil
}

// predictRow returns the positive-class probability for one raw row. It
// standardises inside the product, w[j] * (v - mean) / std, which rounds
// differently from w[j] * scaler.value(j, v).
func (mod *mlpModel) predictRow(row []float64) float64 {
	mean, std := mod.sc.mean, mod.sc.std
	z2 := mod.b2
	for h := range mod.w1 {
		z := mod.b1[h]
		w := mod.w1[h]
		for j, v := range row {
			if math.IsNaN(v) {
				continue
			}
			z += w[j] * (v - mean[j]) / std[j]
		}
		if z > 0 {
			z2 += mod.w2[h] * z
		}
	}
	return sigmoid(z2)
}

// Predict scores column-major data.
func (mod *mlpModel) Predict(cols [][]float64) []float64 { return predictRows(cols, mod.predictRow) }
