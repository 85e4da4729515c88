package baselines

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/core"
	"repro/internal/frame"
	"repro/internal/operators"
	"repro/internal/stats"
)

// generated is one fitted candidate feature.
type generated struct {
	name    string
	inputs  []string
	applier operators.Applier
	values  []float64
}

// construct fits op on columns a and b and computes the candidate's column
// with core.Apply: the column its Pipeline node emits for the same rows, so
// FCTree scores what it will serve.
func construct(op operators.Operator, cols [][]float64, names []string, a, b int) (*generated, error) {
	in := [][]float64{cols[a], cols[b]}
	nm := []string{names[a], names[b]}
	applier, err := op.Fit(in)
	if err != nil {
		return nil, fmt.Errorf("baselines: %s: %w", op.Name(), err)
	}
	g := &generated{name: applier.Formula(nm), inputs: nm, applier: applier, values: make([]float64, len(cols[a]))}
	core.Apply(applier, in, g.values)
	return g, nil
}

// FCTreeConfig configures the FCTree baseline (Fan et al. 2010).
type FCTreeConfig struct {
	Operators []string
	Registry  *operators.Registry
	// Ne is the number of constructed candidate features injected at every
	// tree node (the n_e of the paper's complexity analysis).
	Ne int
	// MaxDepth bounds the guiding decision tree.
	MaxDepth int
	// MinNode is the minimum rows to attempt a split.
	MinNode int
	// MaxFeatures caps the final output width (<=0: 2 × #originals).
	MaxFeatures int
	Seed        int64
}

// FCTree trains a decision tree in which, at every internal node, Ne
// randomly constructed features (binary operators over random original
// pairs) compete with the original features for the split by information
// gain; constructed features chosen at internal nodes are retained. The
// final representation is the originals plus the chosen constructions,
// reduced to MaxFeatures by information gain — matching the paper's account
// of FCTree ("features chosen at internal decision nodes are used to obtain
// the constructed features", reduced to 2M in Section V-A1).
func FCTree(train *frame.Frame, cfg FCTreeConfig) (*core.Pipeline, error) {
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
	binOps := ops[:0:0]
	for _, op := range ops {
		if op.Arity() == operators.Binary {
			binOps = append(binOps, op)
		}
	}
	if len(binOps) == 0 {
		return nil, fmt.Errorf("baselines: fctree: no binary operators in %v", opNames)
	}
	m := train.NumCols()
	if m < 2 {
		return nil, fmt.Errorf("baselines: fctree: need >= 2 features, got %d", m)
	}
	if cfg.Ne <= 0 {
		cfg.Ne = 10
	}
	if cfg.MaxDepth <= 0 {
		cfg.MaxDepth = 6
	}
	if cfg.MinNode <= 0 {
		cfg.MinNode = 20
	}
	budget := cfg.MaxFeatures
	if budget <= 0 {
		budget = 2 * m
	}

	labels := train.Label
	n := train.NumRows()
	names := train.Names()
	cols := make([][]float64, m)
	for j := range cols {
		cols[j] = train.Columns[j].Values
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	chosen := make(map[string]*generated)

	// Recursive tree build; we only need the side effect (chosen features).
	var build func(rows []int, depth int)
	build = func(rows []int, depth int) {
		if depth >= cfg.MaxDepth || len(rows) < cfg.MinNode || pure(labels, rows) {
			return
		}
		// Candidates: all originals plus Ne fresh constructions.
		type cand struct {
			col []float64
			gen *generated
		}
		cands := make([]cand, 0, m+cfg.Ne)
		for j := 0; j < m; j++ {
			cands = append(cands, cand{col: cols[j]})
		}
		for k := 0; k < cfg.Ne; k++ {
			a := rng.Intn(m)
			b := rng.Intn(m)
			for b == a {
				b = rng.Intn(m)
			}
			g, ferr := construct(binOps[rng.Intn(len(binOps))], cols, names, a, b)
			if ferr != nil {
				continue
			}
			if kept, ok := chosen[g.name]; ok {
				g = kept
			}
			cands = append(cands, cand{col: g.values, gen: g})
		}

		bestGain := 1e-12
		bestIdx := -1
		bestThr := 0.0
		for ci := range cands {
			gain, thr, ok := bestSplitIG(cands[ci].col, labels, rows)
			if ok && gain > bestGain {
				bestGain = gain
				bestIdx = ci
				bestThr = thr
			}
		}
		if bestIdx < 0 {
			return
		}
		if g := cands[bestIdx].gen; g != nil {
			chosen[g.name] = g
		}
		col := cands[bestIdx].col
		var left, right []int
		for _, r := range rows {
			v := col[r]
			if math.IsNaN(v) || v <= bestThr {
				left = append(left, r)
			} else {
				right = append(right, r)
			}
		}
		if len(left) == 0 || len(right) == 0 {
			return
		}
		build(left, depth+1)
		build(right, depth+1)
	}

	rows := make([]int, n)
	for i := range rows {
		rows[i] = i
	}
	build(rows, 0)

	// Final reduction: originals + chosen constructions ranked by IG.
	type rankedFeature struct {
		name string
		ig   float64
		gen  *generated
	}
	var ranked []rankedFeature
	igOf := func(col []float64) float64 {
		assign, nb := stats.EqualWidthBins(col, 10)
		return stats.InformationGain(labels, assign, nb)
	}
	for j := 0; j < m; j++ {
		ranked = append(ranked, rankedFeature{name: names[j], ig: igOf(cols[j])})
	}
	for _, g := range chosen {
		ranked = append(ranked, rankedFeature{name: g.name, ig: igOf(g.values), gen: g})
	}
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].ig != ranked[j].ig {
			return ranked[i].ig > ranked[j].ig
		}
		return ranked[i].name < ranked[j].name
	})
	if len(ranked) > budget {
		ranked = ranked[:budget]
	}

	p := &core.Pipeline{OriginalNames: names}
	for _, rf := range ranked {
		if rf.gen != nil {
			p.Nodes = append(p.Nodes, core.FeatureNode{
				Name: rf.gen.name, Inputs: rf.gen.inputs, Applier: rf.gen.applier,
			})
		}
		p.Output = append(p.Output, rf.name)
	}
	return p, nil
}

// pure reports whether all labels in rows agree.
func pure(labels []float64, rows []int) bool {
	if len(rows) == 0 {
		return true
	}
	first := labels[rows[0]] > 0.5
	for _, r := range rows[1:] {
		if (labels[r] > 0.5) != first {
			return false
		}
	}
	return true
}

// bestSplitIG finds the binary split of col over rows maximising information
// gain, via an exact sorted scan.
func bestSplitIG(col []float64, labels []float64, rows []int) (gain, threshold float64, ok bool) {
	type pair struct{ v, y float64 }
	buf := make([]pair, 0, len(rows))
	pos := 0
	for _, r := range rows {
		v := col[r]
		if math.IsNaN(v) {
			continue
		}
		buf = append(buf, pair{v, labels[r]})
		if labels[r] > 0.5 {
			pos++
		}
	}
	k := len(buf)
	if k < 2 || pos == 0 || pos == k {
		return 0, 0, false
	}
	sort.Slice(buf, func(a, b int) bool { return buf[a].v < buf[b].v })

	hTot := entropy2(pos, k-pos)
	bestGain := 0.0
	bestThr := 0.0
	found := false
	lp := 0
	for i := 0; i+1 < k; i++ {
		if buf[i].y > 0.5 {
			lp++
		}
		if buf[i].v == buf[i+1].v {
			continue
		}
		lt := i + 1
		rp := pos - lp
		rt := k - lt
		g := hTot - float64(lt)/float64(k)*entropy2(lp, lt-lp) - float64(rt)/float64(k)*entropy2(rp, rt-rp)
		if g > bestGain {
			bestGain = g
			bestThr = buf[i].v
			found = true
		}
	}
	return bestGain, bestThr, found
}

func entropy2(pos, neg int) float64 {
	n := pos + neg
	if n == 0 || pos == 0 || neg == 0 {
		return 0
	}
	p := float64(pos) / float64(n)
	q := 1 - p
	return -p*math.Log(p) - q*math.Log(q)
}
