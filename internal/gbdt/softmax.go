package gbdt

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/parallel"
)

// trainSoftmaxWithBinner is the multiclass boosting loop: per round it
// computes the softmax probabilities once, then grows one tree per class on
// that class's one-vs-rest gradients, all on the shared binner/trainer
// machinery of the binary loop — so Train and TrainBinned stay bit-identical
// for Softmax exactly as they are for Logistic and Squared. The row and
// column subsamples are drawn once per round and shared by every class tree
// (XGBoost's behaviour), keeping the per-round trees comparable.
func trainSoftmaxWithBinner(ctx context.Context, b *binner, labels []float64, names []string, cfg Config) (*Model, error) {
	k := cfg.NumClass
	m := len(b.codes)
	n := len(labels)
	pool := cfg.pool()
	rng := rand.New(rand.NewSource(cfg.Seed))

	// Smoothed log class priors as per-class base scores.
	classCnt := make([]float64, k)
	for i, y := range labels {
		c := int(y)
		if c < 0 || c >= k || float64(c) != y {
			return nil, fmt.Errorf("gbdt: row %d: label %g is not a class index in [0,%d)", i, y, k)
		}
		classCnt[c]++
	}
	bases := make([]float64, k)
	for c := range bases {
		bases[c] = math.Log((classCnt[c] + 1) / (float64(n) + float64(k)))
	}

	model := &Model{Config: cfg, NumFeat: m, Names: names, BaseScores: bases}
	raw := make([][]float64, k) // raw[c][i]: class-c raw score of row i
	prob := make([][]float64, k)
	for c := 0; c < k; c++ {
		raw[c] = make([]float64, n)
		for i := range raw[c] {
			raw[c][i] = bases[c]
		}
		prob[c] = make([]float64, n)
	}
	grad := make([]float64, n)
	hess := make([]float64, n)

	tr := newTrainer(b, cfg, pool, n, m)
	sample := make([]int, 0, n)

	for t := 0; t < cfg.NumTrees; t++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		softmaxProbs(raw, prob, pool)

		sample = sample[:0]
		if cfg.Subsample < 1 {
			sample = sampleRowsInto(sample, n, cfg.Subsample, rng)
		} else {
			for i := 0; i < n; i++ {
				sample = append(sample, i)
			}
		}
		feats := allRows(m)
		if cfg.ColSample < 1 {
			feats = sampleRowsInto(nil, m, cfg.ColSample, rng)
			if len(feats) == 0 {
				feats = []int{rng.Intn(m)}
			}
		}

		for c := 0; c < k; c++ {
			pc := prob[c]
			for i := range grad {
				y := 0.0
				if int(labels[i]) == c {
					y = 1
				}
				p := pc[i]
				grad[i] = p - y
				h := p * (1 - p)
				if h < 1e-16 {
					h = 1e-16
				}
				hess[i] = h
			}
			// Each class tree partitions its own copy of the round's sample
			// (buildTree reorders rows in place).
			rows := append(tr.rowBuf[:0], sample...)
			tr.rowBuf = rows[:0]
			tree := tr.buildTree(rows, feats, grad, hess)
			model.Trees = append(model.Trees, tree)
			updatePredictions(tree, b, raw[c], pool)
		}
	}
	return model, nil
}

// softmaxProbs fills prob with the row-wise softmax of the per-class raw
// scores, row-parallel (each row's slots written by exactly one chunk).
func softmaxProbs(raw, prob [][]float64, pool *parallel.Pool) {
	k := len(raw)
	n := len(raw[0])
	pool.ForChunks(n, 2048, func(lo, hi int) {
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
