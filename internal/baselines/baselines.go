// Package baselines implements the comparison algorithms of Section V-A1:
//
//   - RAND: random feature combinations over all live features. RandPairs
//     is its core.PairSource: a fit with it runs SAFE's loop — generation,
//     selection, the 2M budget and every engine — on random pairs.
//   - IMP (SAFE-Important): random combinations restricted to the split
//     features of the loop's own miner (ImpPairs), likewise.
//   - TFC: exhaustive generation of all legal binary-operator features and
//     selection of the best by information gain (Piramuthu & Sikora 2009),
//     one iteration.
//   - FCTree: decision-tree-guided feature construction (Fan et al. 2010) —
//     candidate constructed features compete with original features at each
//     tree node; features chosen at internal nodes are kept.
//
// TFC and FCTree keep their own selection, as the paper defines them, and
// return a core.Pipeline, so the experiment harness evaluates all methods
// identically.
package baselines

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
)

// RandPairs is RAND's pair source: γ distinct random pairs of the round's
// live features, drawn from seed and the round alone.
func RandPairs(seed int64) core.PairSource {
	return func(r *core.PairRound) ([]core.Combo, error) {
		return drawPairs(r, seed, nil)
	}
}

// ImpPairs is IMP's pair source: RAND's draw among the split features of the
// round's miner, or among all live features when it splits on fewer than 2.
// The IMP-vs-RAND gap isolates the value of the "split features matter" half
// of SAFE's assumptions; SAFE-vs-IMP isolates the value of same-path mining
// and gain-ratio sorting.
func ImpPairs(seed int64) core.PairSource {
	return func(r *core.PairRound) ([]core.Combo, error) {
		split, err := r.SplitFeatures()
		if err != nil {
			return nil, err
		}
		if len(split) < 2 {
			split = nil // a degenerate miner: draw among all features
		}
		return drawPairs(r, seed, split)
	}
}

// drawPairs draws the round's pairs among the pool's live features (all of
// them for a nil pool), from a generator seeded by seed and the round: round
// 0 draws what seed alone does.
func drawPairs(r *core.PairRound, seed int64, pool []int) ([]core.Combo, error) {
	if r.Live < 2 {
		return nil, fmt.Errorf("baselines: need >= 2 features, got %d", r.Live)
	}
	if pool == nil {
		pool = make([]int, r.Live)
		for j := range pool {
			pool[j] = j
		}
	}
	rng := rand.New(rand.NewSource(seed ^ int64(r.Round)<<32))
	return randomPairs(pool, r.Gamma, rng), nil
}

// randomPairs draws count distinct unordered pairs of the pool's features,
// ascending within a pair. It gives up (returns fewer) when the pool cannot
// supply enough distinct pairs.
func randomPairs(pool []int, count int, rng *rand.Rand) []core.Combo {
	if len(pool) < 2 {
		return nil
	}
	maxPairs := len(pool) * (len(pool) - 1) / 2
	if count > maxPairs {
		count = maxPairs
	}
	seen := make(map[[2]int]bool, count)
	out := make([]core.Combo, 0, count)
	for attempts := 0; len(out) < count && attempts < 50*count+100; attempts++ {
		a := pool[rng.Intn(len(pool))]
		b := pool[rng.Intn(len(pool))]
		if a == b {
			continue
		}
		if a > b {
			a, b = b, a
		}
		if seen[[2]int{a, b}] {
			continue
		}
		seen[[2]int{a, b}] = true
		out = append(out, core.Combo{Features: []int{a, b}})
	}
	return out
}
