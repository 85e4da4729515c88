package baselines

import (
	"container/heap"
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/frame"
	"repro/internal/operators"
	"repro/internal/stats"
)

// TFCConfig configures the TFC baseline (Piramuthu & Sikora 2009).
type TFCConfig struct {
	Operators []string
	Registry  *operators.Registry
	// MaxFeatures is the size of the new feature pool kept after selection
	// (the experiments use 2M). <=0 resolves to 2 × #originals.
	MaxFeatures int
	// Bins is the equal-width bin count for the information-gain score.
	Bins int
	// MaxPairs caps the exhaustive pair enumeration as a memory/time guard
	// for very wide datasets; <=0 means no cap (the paper's true exhaustive
	// behaviour, and the reason Table V shows TFC's runtime exploding).
	MaxPairs int
	Seed     int64
}

// scored is a candidate in the top-K selection heap.
type scored struct {
	ig   float64
	orig int // original column index, or -1
	a, b int // pair indices for generated candidates
	op   int // operator index within ops
	rev  bool
}

// igHeap is a min-heap on information gain, keeping the best K candidates.
type igHeap []scored

func (h igHeap) Len() int            { return len(h) }
func (h igHeap) Less(i, j int) bool  { return h[i].ig < h[j].ig }
func (h igHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *igHeap) Push(x interface{}) { *h = append(*h, x.(scored)) }
func (h *igHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// TFC generates every legal binary-operator feature over the feature pool
// (one iteration of the paper's iterative framework), scores all candidates
// — originals included — by information gain, and keeps the best
// MaxFeatures as the new pool. Candidate columns are scored streaming (one
// column materialised at a time) so memory stays O(N) despite the O(M²)
// candidate count; time is the quantity that explodes, which is exactly the
// behaviour Table V documents.
func TFC(train *frame.Frame, cfg TFCConfig) (*core.Pipeline, error) {
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
		return nil, fmt.Errorf("baselines: tfc: need >= 2 features, got %d", m)
	}
	budget := cfg.MaxFeatures
	if budget <= 0 {
		budget = 2 * m
	}
	bins := cfg.Bins
	if bins <= 1 {
		bins = 10
	}
	labels := train.Label
	n := train.NumRows()

	cols := make([][]float64, m)
	for j := range cols {
		cols[j] = train.Columns[j].Values
	}

	h := make(igHeap, 0, budget+1)
	push := func(s scored) {
		if len(h) < budget {
			heap.Push(&h, s)
			return
		}
		if s.ig > h[0].ig {
			h[0] = s
			heap.Fix(&h, 0)
		}
	}

	ig := func(col []float64) float64 {
		assign, nb := stats.EqualWidthBins(col, bins)
		return stats.InformationGain(labels, assign, nb)
	}

	// Originals compete too.
	for j := 0; j < m; j++ {
		push(scored{ig: ig(cols[j]), orig: j, a: -1, b: -1})
	}

	// Exhaustive pair sweep, one candidate column at a time.
	buf := make([]float64, n)
	pairCount := 0
	for a := 0; a < m; a++ {
	pairLoop:
		for b := a + 1; b < m; b++ {
			if cfg.MaxPairs > 0 && pairCount >= cfg.MaxPairs {
				break pairLoop
			}
			pairCount++
			for oi, op := range ops {
				if op.Arity() != operators.Binary {
					continue
				}
				evalPair(op, cols[a], cols[b], buf)
				push(scored{ig: ig(buf), orig: -1, a: a, b: b, op: oi})
				if !operators.Commutative(op.Name()) {
					evalPair(op, cols[b], cols[a], buf)
					push(scored{ig: ig(buf), orig: -1, a: b, b: a, op: oi, rev: true})
				}
			}
		}
		if cfg.MaxPairs > 0 && pairCount >= cfg.MaxPairs {
			break
		}
	}

	// Materialise the winners, best first for deterministic output order.
	winners := make([]scored, len(h))
	copy(winners, h)
	sort.Slice(winners, func(i, j int) bool { return winners[i].ig > winners[j].ig })

	p := &core.Pipeline{OriginalNames: train.Names()}
	seen := make(map[string]bool)
	names := train.Names()
	for _, w := range winners {
		if w.orig >= 0 {
			name := names[w.orig]
			if !seen[name] {
				seen[name] = true
				p.Output = append(p.Output, name)
			}
			continue
		}
		op := ops[w.op]
		in := [][]float64{cols[w.a], cols[w.b]}
		nm := []string{names[w.a], names[w.b]}
		applier, ferr := op.Fit(in)
		if ferr != nil {
			return nil, fmt.Errorf("baselines: tfc fit %s: %w", op.Name(), ferr)
		}
		formula := applier.Formula(nm)
		if seen[formula] {
			continue
		}
		seen[formula] = true
		p.Nodes = append(p.Nodes, core.FeatureNode{Name: formula, Inputs: nm, Applier: applier})
		p.Output = append(p.Output, formula)
	}
	return p, nil
}

// evalPair computes op(a,b) into buf through core.Apply — the column the
// winner's Pipeline node emits for the same rows — or zeroes buf when the
// operator does not fit.
func evalPair(op operators.Operator, a, b []float64, buf []float64) {
	in := [][]float64{a, b}
	applier, err := op.Fit(in)
	if err != nil {
		clear(buf)
		return
	}
	core.Apply(applier, in, buf)
}
