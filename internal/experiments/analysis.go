package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"sort"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/gbdt"
	"repro/internal/metrics"
	"repro/internal/operators"
)

// SearchSpaceRow compares the exhaustive candidate count T (Eq. 3, binary
// operators) with SAFE's path-restricted count T* (Eq. 5) on one dataset.
type SearchSpaceRow struct {
	Dataset   string
	Features  int
	Exhaust   int // T: pairs x operators over all features
	PathBound int // T*: combinations actually mined from XGBoost paths
	Reduction float64
}

// RunSearchSpace quantifies the T* << T claim of Section IV-B: it trains
// the default miner and counts unique same-path pair combinations against
// the exhaustive pair count, both multiplied by the 6 effective binary
// operators (+, −, ×, ÷ with both orders for the non-commutative two).
func RunSearchSpace(opts Options, w io.Writer) ([]SearchSpaceRow, error) {
	opts = opts.normalise()
	const effectiveOps = 6
	var out []SearchSpaceRow
	tb := newTable("Dataset", "M", "T (exhaustive)", "T* (paths)", "reduction")
	for _, spec := range opts.benchmarkSpecs() {
		spec.Seed += opts.Seed
		ds, err := datagen.Generate(spec)
		if err != nil {
			return nil, err
		}
		model, err := gbdt.Train(colsOf(ds.Train), ds.Train.Label, nil, core.PaperBooster())
		if err != nil {
			return nil, err
		}
		pairs := make(map[[2]int]bool)
		for _, p := range model.Paths() {
			for i := 0; i < len(p.Features); i++ {
				for j := i + 1; j < len(p.Features); j++ {
					a, b := p.Features[i], p.Features[j]
					if a > b {
						a, b = b, a
					}
					pairs[[2]int{a, b}] = true
				}
			}
		}
		m := ds.Train.NumCols()
		row := SearchSpaceRow{
			Dataset:   spec.Name,
			Features:  m,
			Exhaust:   m * (m - 1) / 2 * effectiveOps,
			PathBound: len(pairs) * effectiveOps,
		}
		if row.PathBound > 0 {
			row.Reduction = float64(row.Exhaust) / float64(row.PathBound)
		}
		out = append(out, row)
		tb.addRow(spec.Name,
			fmt.Sprintf("%d", m),
			fmt.Sprintf("%d", row.Exhaust),
			fmt.Sprintf("%d", row.PathBound),
			fmt.Sprintf("%.1fx", row.Reduction))
	}
	if w != nil {
		tb.render(w, "Search-space reduction (Section IV-B, Eq. 3 vs Eq. 5, binary operators):")
	}
	return out, nil
}

// AssumptionResult quantifies Section IV-B's two assumptions on one dataset:
// candidate pairs are bucketed by provenance and the mean test AUC
// (folded around 0.5) of the features each bucket generates is compared.
type AssumptionResult struct {
	Dataset       string
	SamePathAUC   float64 // pairs co-occurring on an XGBoost path
	CrossPathAUC  float64 // both split features, never on the same path
	NonSplitAUC   float64 // at least one non-split feature
	PairsPerClass int
}

// RunAssumptions empirically verifies the path assumptions: features
// generated from same-path pairs should be more predictive than features
// from cross-path split pairs, which in turn beat pairs touching non-split
// features. This is the mechanism behind the SAFE > IMP > RAND ordering of
// Table III.
func RunAssumptions(opts Options, pairsPerClass int, w io.Writer) ([]AssumptionResult, error) {
	opts = opts.normalise()
	if pairsPerClass <= 0 {
		pairsPerClass = 20
	}
	ops, err := operators.NewRegistry().GetAll(operators.DefaultExperimentOperators())
	if err != nil {
		return nil, err
	}

	var out []AssumptionResult
	tb := newTable("Dataset", "same-path", "cross-path", "non-split")
	for _, spec := range opts.benchmarkSpecs() {
		spec.Seed += opts.Seed
		ds, err := datagen.Generate(spec)
		if err != nil {
			return nil, err
		}
		cols := colsOf(ds.Train)
		testCols := colsOf(ds.Test)
		model, err := gbdt.Train(cols, ds.Train.Label, nil, core.PaperBooster())
		if err != nil {
			return nil, err
		}

		samePath := make(map[[2]int]bool)
		for _, p := range model.Paths() {
			for i := 0; i < len(p.Features); i++ {
				for j := i + 1; j < len(p.Features); j++ {
					a, b := ordered(p.Features[i], p.Features[j])
					samePath[[2]int{a, b}] = true
				}
			}
		}
		split := model.SplitFeatures()
		isSplit := make(map[int]bool, len(split))
		for _, f := range split {
			isSplit[f] = true
		}
		m := ds.Train.NumCols()
		var same, cross, non [][2]int
		for a := 0; a < m; a++ {
			for b := a + 1; b < m; b++ {
				key := [2]int{a, b}
				switch {
				case samePath[key]:
					same = append(same, key)
				case isSplit[a] && isSplit[b]:
					cross = append(cross, key)
				default:
					non = append(non, key)
				}
			}
		}
		rng := rand.New(rand.NewSource(opts.Seed + 23))
		res := AssumptionResult{Dataset: spec.Name, PairsPerClass: pairsPerClass}
		res.SamePathAUC = meanGeneratedAUC(sample(same, pairsPerClass, rng), ops, cols, testCols, ds)
		res.CrossPathAUC = meanGeneratedAUC(sample(cross, pairsPerClass, rng), ops, cols, testCols, ds)
		res.NonSplitAUC = meanGeneratedAUC(sample(non, pairsPerClass, rng), ops, cols, testCols, ds)
		out = append(out, res)
		tb.addRow(spec.Name,
			fmt.Sprintf("%.4f", res.SamePathAUC),
			fmt.Sprintf("%.4f", res.CrossPathAUC),
			fmt.Sprintf("%.4f", res.NonSplitAUC))
	}
	if w != nil {
		tb.render(w, "Path assumptions (mean |AUC-0.5|+0.5 of generated features by pair provenance; Section IV-B):")
	}
	return out, nil
}

func ordered(a, b int) (int, int) {
	if a > b {
		return b, a
	}
	return a, b
}

func sample(pairs [][2]int, k int, rng *rand.Rand) [][2]int {
	if len(pairs) <= k {
		return pairs
	}
	idx := rng.Perm(len(pairs))[:k]
	sort.Ints(idx)
	out := make([][2]int, 0, k)
	for _, i := range idx {
		out = append(out, pairs[i])
	}
	return out
}

// meanGeneratedAUC generates op(a,b) features for each pair and returns the
// mean folded test AUC (0.5 + |AUC - 0.5|, direction-agnostic single-feature
// predictiveness).
func meanGeneratedAUC(pairs [][2]int, ops []operators.Operator, trainCols, testCols [][]float64, ds *datagen.Dataset) float64 {
	if len(pairs) == 0 {
		return 0
	}
	var sum float64
	var n int
	for _, pr := range pairs {
		for _, op := range ops {
			if op.Arity() != operators.Binary {
				continue
			}
			applier, err := op.Fit([][]float64{trainCols[pr[0]], trainCols[pr[1]]})
			if err != nil {
				continue
			}
			vals := make([]float64, len(testCols[pr[0]]))
			core.Apply(applier, [][]float64{testCols[pr[0]], testCols[pr[1]]}, vals)
			auc := metrics.AUC(vals, ds.Test.Label)
			if auc < 0.5 {
				auc = 1 - auc
			}
			sum += auc
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}
