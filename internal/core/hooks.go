package core

import (
	"sort"

	"repro/internal/gbdt"
	"repro/internal/operators"
)

// This file is the exported surface the sharded fit engine (internal/shard)
// shares with the in-memory fit path. Every hook wraps or re-exposes the
// exact logic Fit uses, so the two paths cannot drift: a sharded fit that
// feeds these hooks the same intermediate statistics reaches the same
// decisions. The combination scorer needs no wrapper: ScoreCombos (combos.go)
// works on the miner's bin codes and the labels, which both engines hold
// resident, so both call it as it is.

// MineCombos enumerates feature combinations from a miner model's
// root-to-leaf paths (Algorithm 2's input), exactly as Fit does.
func MineCombos(model *gbdt.Model, arities []int) []Combo {
	return mineCombos(model, arities)
}

// SortCombos orders combinations by gain ratio and keeps the top gamma —
// Algorithm 2's output, exactly as Fit applies it.
func SortCombos(combos []Combo, gamma int) []Combo {
	return topCombos(combos, gamma)
}

// IVFilter applies Algorithm 3's threshold with the top-minKeep fallback,
// exactly as Fit's streaming filter resolves the surviving candidate set.
func IVFilter(ivs []float64, alpha float64, minKeep int) []int {
	return ivFilter(ivs, alpha, minKeep)
}

// OrderByGain orders candidate indices by ranker gain importance
// (Section IV-C3): gain[i] belongs to candidates[i]; ties break by IV then
// candidate index, exactly as Fit's ranking stage does.
func OrderByGain(gain []float64, ivs []float64, candidates []int) []int {
	order := make([]int, len(candidates))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		ga, gb := gain[order[a]], gain[order[b]]
		if ga != gb {
			return ga > gb
		}
		iva, ivb := ivs[candidates[order[a]]], ivs[candidates[order[b]]]
		if iva != ivb {
			return iva > ivb
		}
		return candidates[order[a]] < candidates[order[b]]
	})
	out := make([]int, len(order))
	for i, o := range order {
		out[i] = candidates[o]
	}
	return out
}

// DistinctArities lists the distinct operator arities, in first-seen order.
func DistinctArities(ops []operators.Operator) []int {
	return distinctArities(ops)
}

// ExhaustiveCandidateCount is |S| of Eq. 3 restricted to binary operators:
// the search-space figure Fit reports per round.
func ExhaustiveCandidateCount(m int, ops []operators.Operator) int {
	return exhaustiveBinaryCount(m, ops)
}

// Sanitize replaces NaN/Inf with 0 in place — the post-generation clamp Fit
// applies to every generated candidate column.
func Sanitize(col []float64) { sanitize(col) }

// Prune drops nodes unreachable from the pipeline's outputs, exactly as Fit
// does before returning Ψ. Callers assembling pipelines from externally
// selected features (the sharded fit engine) finish through here.
func (p *Pipeline) Prune() { p.prune() }
