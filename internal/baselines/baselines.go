// Package baselines implements the comparison algorithms of Section V-A1:
//
//   - RAND: random feature combinations over all original features,
//     followed by SAFE's selection pipeline.
//   - IMP (SAFE-Important): random combinations restricted to the split
//     features of an XGBoost model, followed by SAFE's selection pipeline.
//   - TFC: exhaustive generation of all legal binary-operator features and
//     selection of the best by information gain (Piramuthu & Sikora 2009),
//     one iteration.
//   - FCTree: decision-tree-guided feature construction (Fan et al. 2010) —
//     candidate constructed features compete with original features at each
//     tree node; features chosen at internal nodes are kept.
//
// Every baseline returns a core.Pipeline so the experiment harness evaluates
// all methods identically.
package baselines

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/frame"
	"repro/internal/gbdt"
	"repro/internal/operators"
)

// combo is an (a, b) feature index pair.
type combo struct{ a, b int }

// generated is one fitted candidate feature.
type generated struct {
	name    string
	inputs  []string
	applier operators.Applier
	values  []float64
}

// generatePairs applies every operator to every pair, fitting on train
// columns; non-commutative operators are applied in both orders. Duplicate
// formulas are skipped.
func generatePairs(pairs []combo, cols [][]float64, names []string, ops []operators.Operator) ([]*generated, error) {
	seen := make(map[string]bool)
	var out []*generated
	apply := func(op operators.Operator, a, b int) error {
		in := [][]float64{cols[a], cols[b]}
		nm := []string{names[a], names[b]}
		applier, err := op.Fit(in)
		if err != nil {
			return fmt.Errorf("baselines: %s: %w", op.Name(), err)
		}
		formula := applier.Formula(nm)
		if seen[formula] {
			return nil
		}
		seen[formula] = true
		vals := applier.Transform(in)
		sanitizeCol(vals)
		out = append(out, &generated{name: formula, inputs: nm, applier: applier, values: vals})
		return nil
	}
	for _, p := range pairs {
		for _, op := range ops {
			if op.Arity() != operators.Binary {
				continue
			}
			if err := apply(op, p.a, p.b); err != nil {
				return nil, err
			}
			if !operators.Commutative(op.Name()) {
				if err := apply(op, p.b, p.a); err != nil {
					return nil, err
				}
			}
		}
	}
	return out, nil
}

// assemblePipeline builds a core.Pipeline from original columns plus
// selected candidates. candidates[i] corresponds to candidate column index
// m+i (originals first).
func assemblePipeline(train *frame.Frame, gens []*generated, selected []int) *core.Pipeline {
	m := train.NumCols()
	p := &core.Pipeline{OriginalNames: train.Names()}
	for _, g := range gens {
		p.Nodes = append(p.Nodes, core.FeatureNode{Name: g.name, Inputs: g.inputs, Applier: g.applier})
	}
	for _, idx := range selected {
		if idx < m {
			p.Output = append(p.Output, train.Columns[idx].Name)
		} else {
			p.Output = append(p.Output, gens[idx-m].name)
		}
	}
	return p
}

// selectAndAssemble runs SAFE's selection over originals+generated and
// assembles the pipeline.
func selectAndAssemble(train *frame.Frame, gens []*generated, sel core.SelectionConfig) (*core.Pipeline, error) {
	m := train.NumCols()
	cand := make([][]float64, 0, m+len(gens))
	for j := 0; j < m; j++ {
		cand = append(cand, train.Columns[j].Values)
	}
	for _, g := range gens {
		cand = append(cand, g.values)
	}
	selected, err := core.Select(cand, train.Label, sel)
	if err != nil {
		return nil, err
	}
	pl := assemblePipeline(train, gens, selected)
	pl.Nodes = core.ReachableNodes(pl.Nodes, pl.Output)
	return pl, nil
}

// RandConfig configures the RAND baseline.
type RandConfig struct {
	// NumCombos is γ: how many random pairs to draw.
	NumCombos int
	// Operators and Registry mirror core.Config.
	Operators []string
	Registry  *operators.Registry
	// Selection is SAFE's selection pipeline configuration.
	Selection core.SelectionConfig
	Seed      int64
}

// Rand generates features from NumCombos random pairs of original features
// and runs SAFE's selection.
func Rand(train *frame.Frame, cfg RandConfig) (*core.Pipeline, error) {
	reg := cfg.Registry
	if reg == nil {
		reg = operators.NewRegistry()
	}
	opNames := cfg.Operators
	if len(opNames) == 0 {
		opNames = operators.DefaultExperimentOperators()
	}
	ops, err := reg.GetAll(opNames)
	if err != nil {
		return nil, err
	}
	m := train.NumCols()
	if m < 2 {
		return nil, fmt.Errorf("baselines: rand: need >= 2 features, got %d", m)
	}
	gamma := cfg.NumCombos
	if gamma <= 0 {
		gamma = 2 * m
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	pairs := randomPairs(m, gamma, rng, func(int) bool { return true })

	cols := make([][]float64, m)
	for j := range cols {
		cols[j] = train.Columns[j].Values
	}
	gens, err := generatePairs(pairs, cols, train.Names(), ops)
	if err != nil {
		return nil, err
	}
	return selectAndAssemble(train, gens, cfg.Selection)
}

// ImpConfig configures the IMP (SAFE-Important) baseline.
type ImpConfig struct {
	NumCombos int
	Operators []string
	Registry  *operators.Registry
	Selection core.SelectionConfig
	// Miner configures the XGBoost whose split features restrict the
	// sampling pool.
	Miner gbdt.Config
	Seed  int64
}

// Imp generates features from random pairs drawn only among the split
// features of an XGBoost model trained on the originals, then runs SAFE's
// selection. The IMP-vs-RAND gap isolates the value of the "split features
// matter" half of SAFE's assumptions; SAFE-vs-IMP isolates the value of
// same-path mining and gain-ratio sorting.
func Imp(train *frame.Frame, cfg ImpConfig) (*core.Pipeline, error) {
	reg := cfg.Registry
	if reg == nil {
		reg = operators.NewRegistry()
	}
	opNames := cfg.Operators
	if len(opNames) == 0 {
		opNames = operators.DefaultExperimentOperators()
	}
	ops, err := reg.GetAll(opNames)
	if err != nil {
		return nil, err
	}
	m := train.NumCols()
	if m < 2 {
		return nil, fmt.Errorf("baselines: imp: need >= 2 features, got %d", m)
	}
	gamma := cfg.NumCombos
	if gamma <= 0 {
		gamma = 2 * m
	}
	miner := cfg.Miner
	if miner.NumTrees == 0 {
		miner = gbdt.DefaultConfig()
		miner.NumTrees = 20
		miner.MaxDepth = 4
	}
	miner.Seed = cfg.Seed

	cols := make([][]float64, m)
	for j := range cols {
		cols[j] = train.Columns[j].Values
	}
	model, err := gbdt.Train(cols, train.Label, train.Names(), miner)
	if err != nil {
		return nil, fmt.Errorf("baselines: imp miner: %w", err)
	}
	split := model.SplitFeatures()
	inSplit := make(map[int]bool, len(split))
	for _, f := range split {
		inSplit[f] = true
	}
	if len(split) < 2 {
		// Degenerate model: fall back to all features.
		for j := 0; j < m; j++ {
			inSplit[j] = true
		}
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	pairs := randomPairs(m, gamma, rng, func(j int) bool { return inSplit[j] })

	gens, err := generatePairs(pairs, cols, train.Names(), ops)
	if err != nil {
		return nil, err
	}
	return selectAndAssemble(train, gens, cfg.Selection)
}

// randomPairs draws count distinct unordered pairs among features passing
// the filter. It gives up (returns fewer) when the eligible pool cannot
// supply enough distinct pairs.
func randomPairs(m, count int, rng *rand.Rand, eligible func(int) bool) []combo {
	pool := make([]int, 0, m)
	for j := 0; j < m; j++ {
		if eligible(j) {
			pool = append(pool, j)
		}
	}
	if len(pool) < 2 {
		return nil
	}
	maxPairs := len(pool) * (len(pool) - 1) / 2
	if count > maxPairs {
		count = maxPairs
	}
	seen := make(map[combo]bool, count)
	out := make([]combo, 0, count)
	for attempts := 0; len(out) < count && attempts < 50*count+100; attempts++ {
		a := pool[rng.Intn(len(pool))]
		b := pool[rng.Intn(len(pool))]
		if a == b {
			continue
		}
		if a > b {
			a, b = b, a
		}
		c := combo{a, b}
		if seen[c] {
			continue
		}
		seen[c] = true
		out = append(out, c)
	}
	return out
}

func sanitizeCol(col []float64) {
	for i, v := range col {
		if v != v || v > 1e300 || v < -1e300 {
			col[i] = 0
		}
	}
}
