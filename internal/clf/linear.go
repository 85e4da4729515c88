package clf

import "math/rand"

// The linear evaluators: logistic regression and a linear SVM, trained with
// SGD on standardised inputs. The standardisation is learned at fit time
// and applied at prediction time, so callers pass raw features.

// logisticConfig configures logistic-regression training.
type logisticConfig struct {
	epochs       int
	learningRate float64
	l2           float64
	batchSize    int
	seed         int64
}

// defaultLogisticConfig returns settings comparable to sklearn's
// LogisticRegression defaults (L2-regularised).
func defaultLogisticConfig() logisticConfig {
	return logisticConfig{epochs: 30, learningRate: 0.1, l2: 1e-4, batchSize: 64}
}

// linearModel is a trained logistic regression or linear SVM: a sigmoid
// of a linear score on standardised inputs. For the SVM the sigmoid is a
// fixed calibration of the margin (Platt-style with unit slope), which
// preserves ranking — the property AUC measures.
type linearModel struct {
	w  []float64
	b  float64
	sc scaler
}

// predictRow returns the positive-class probability for one raw row, which
// it standardises in place (it is predictRows' buffer).
func (lm *linearModel) predictRow(row []float64) float64 {
	lm.sc.apply(row)
	z := lm.b
	for j, v := range row {
		z += lm.w[j] * v
	}
	return sigmoid(z)
}

// Predict scores column-major data.
func (lm *linearModel) Predict(cols [][]float64) []float64 { return predictRows(cols, lm.predictRow) }

// trainLogistic fits logistic regression on column-major data with {0,1}
// labels.
func trainLogistic(cols [][]float64, labels []float64, cfg logisticConfig) (*linearModel, error) {
	if err := checkXY("linear", cols, labels); err != nil {
		return nil, err
	}
	m := len(cols)
	n := len(labels)
	lm := &linearModel{w: make([]float64, m), sc: fitScaler(cols)}
	x := lm.sc.rows(cols)
	rng := rand.New(rand.NewSource(cfg.seed))
	order := rng.Perm(n)
	for epoch := 0; epoch < cfg.epochs; epoch++ {
		lr := cfg.learningRate / (1 + 0.1*float64(epoch))
		shuffleInts(order, rng)
		for start := 0; start < n; start += cfg.batchSize {
			end := start + cfg.batchSize
			if end > n {
				end = n
			}
			gw := make([]float64, m)
			gb := 0.0
			for _, i := range order[start:end] {
				z := lm.b
				for j, v := range x[i] {
					z += lm.w[j] * v
				}
				e := sigmoid(z) - labels[i]
				for j, v := range x[i] {
					gw[j] += e * v
				}
				gb += e
			}
			k := float64(end - start)
			for j := range lm.w {
				lm.w[j] -= lr * (gw[j]/k + cfg.l2*lm.w[j])
			}
			lm.b -= lr * gb / k
		}
	}
	return lm, nil
}

// svmConfig configures the linear SVM.
type svmConfig struct {
	epochs       int
	learningRate float64
	c            float64 // inverse regularisation strength
	seed         int64
}

// defaultSVMConfig mirrors a default linear-kernel SVC at this scale.
func defaultSVMConfig() svmConfig {
	return svmConfig{epochs: 30, learningRate: 0.05, c: 1.0}
}

// trainSVM fits a linear SVM with hinge loss and L2 regularisation via
// Pegasos-style SGD.
func trainSVM(cols [][]float64, labels []float64, cfg svmConfig) (*linearModel, error) {
	if err := checkXY("linear", cols, labels); err != nil {
		return nil, err
	}
	m := len(cols)
	n := len(labels)
	sv := &linearModel{w: make([]float64, m), sc: fitScaler(cols)}
	lambda := 1 / (cfg.c * float64(n))
	x := sv.sc.rows(cols)
	rng := rand.New(rand.NewSource(cfg.seed))
	order := rng.Perm(n)
	step := 0
	for epoch := 0; epoch < cfg.epochs; epoch++ {
		shuffleInts(order, rng)
		for _, i := range order {
			step++
			lr := cfg.learningRate / (1 + lambda*float64(step))
			y := -1.0
			if labels[i] > 0.5 {
				y = 1
			}
			z := sv.b
			for j, v := range x[i] {
				z += sv.w[j] * v
			}
			for j := range sv.w {
				sv.w[j] -= lr * lambda * sv.w[j]
			}
			if y*z < 1 {
				for j, v := range x[i] {
					sv.w[j] += lr * y * v
				}
				sv.b += lr * y
			}
		}
	}
	return sv, nil
}
