package core

import (
	"fmt"
	"sync/atomic"

	"repro/internal/frame"
	"repro/internal/operators"
)

// FeatureNode is one computation step of a Pipeline: it derives a new column
// from previously available columns (original or earlier-derived) by
// applying a fitted operator.
type FeatureNode struct {
	// Name of the derived column (its interpretable formula).
	Name string
	// Inputs are names of the columns consumed, resolvable against the
	// original columns plus earlier nodes.
	Inputs []string
	// Applier is the fitted operator application.
	Applier operators.Applier
}

// Pipeline is the learned feature generation function Ψ : X -> Z. It
// evaluates derived features in dependency order and emits the selected
// output columns. A Pipeline is used through a pointer and is frozen by its
// first Transform*, which compiles the fields below into the Program every
// later call runs: build a changed Ψ as a new Pipeline.
type Pipeline struct {
	// OriginalNames are the training frame's column names, in order; rows
	// fed to TransformRow must follow this order.
	OriginalNames []string
	// Nodes are the derivation steps in evaluation order.
	Nodes []FeatureNode
	// Output lists the selected column names (original names pass through,
	// derived names refer to Nodes).
	Output []string
	// Task records the prediction task the pipeline was fitted for, so a
	// serving process knows how downstream predictions should be shaped
	// (scalar vs class-probability vector). Round-trips through Save/Load;
	// pipelines saved before the field existed load as the binary task.
	Task Task

	prog atomic.Pointer[Program] // see program
}

// NumFeatures returns the width of the transformed representation.
func (p *Pipeline) NumFeatures() int { return len(p.Output) }

// NumDerived returns how many output features are generated (non-original).
func (p *Pipeline) NumDerived() int {
	orig := make(map[string]bool, len(p.OriginalNames))
	for _, n := range p.OriginalNames {
		orig[n] = true
	}
	k := 0
	for _, n := range p.Output {
		if !orig[n] {
			k++
		}
	}
	return k
}

// Transform applies Ψ to a frame whose columns include every original
// column (by name). The result carries the input frame's label slice.
func (p *Pipeline) Transform(f *frame.Frame) (*frame.Frame, error) {
	g, err := p.program()
	if err != nil {
		return nil, err
	}
	n := f.NumRows()
	cols := make([][]float64, len(p.OriginalNames))
	for j, name := range p.OriginalNames {
		c, ok := f.ColByName(name)
		if !ok {
			return nil, fmt.Errorf("core: transform: input frame lacks column %q", name)
		}
		if len(c) != n {
			return nil, fmt.Errorf("core: transform: column %q has %d rows, want %d", name, len(c), n)
		}
		cols[j] = c
	}
	out := &frame.Frame{Label: f.Label}
	for i, c := range g.Eval(cols, func() []float64 { return make([]float64, n) }) {
		out.AddColumn(p.Output[i], c)
	}
	return out, nil
}

// TransformRow applies Ψ to one raw row (ordered as OriginalNames),
// returning the output feature vector: the real-time inference path of
// Section IV-E3, and a one-row TransformBatch.
func (p *Pipeline) TransformRow(row []float64) ([]float64, error) {
	out, err := p.TransformBatch([][]float64{row})
	if err != nil {
		return nil, err
	}
	return out[0], nil
}

// TransformBatch applies Ψ to a batch of raw rows (each ordered as
// OriginalNames) in one columnar pass and returns the output feature matrix,
// row-major, rows as views into one flat allocation. Each operator is applied
// once to whole columns, so the per-node dispatch is amortised over the batch
// — this is the serving-side entry point for batched /transform and /predict
// traffic.
func (p *Pipeline) TransformBatch(rows [][]float64) ([][]float64, error) {
	n := len(rows)
	if n == 0 {
		return nil, nil
	}
	g, err := p.program()
	if err != nil {
		return nil, err
	}
	// Scatter the row-major input into original columns.
	m := len(p.OriginalNames)
	flat := make([]float64, n*m)
	cols := make([][]float64, m)
	for j := range cols {
		cols[j] = flat[j*n : (j+1)*n]
	}
	for i, row := range rows {
		if len(row) != m {
			return nil, fmt.Errorf("core: transform batch: row %d has %d values, want %d", i, len(row), m)
		}
		for j, v := range row {
			cols[j][i] = v
		}
	}
	// The derived columns of a batch are one flat block, not a slice per node.
	block := make([]float64, n*len(g.appliers))
	outCols := g.Eval(cols, func() []float64 {
		col := block[:n:n]
		block = block[n:]
		return col
	})
	// Gather the selected outputs back into row-major form.
	k := len(p.Output)
	outFlat := make([]float64, n*k)
	out := make([][]float64, n)
	for i := range out {
		out[i] = outFlat[i*k : (i+1)*k]
	}
	for j, c := range outCols {
		for i, v := range c {
			out[i][j] = v
		}
	}
	return out, nil
}

// program returns Ψ's compiled form, compiling it on first use — a fitted or
// loaded pipeline arrives compiled; one assembled field by field compiles
// here, and must not change afterwards (a change of size is noticed and
// recompiled, an edit in place is not).
func (p *Pipeline) program() (*Program, error) {
	if g := p.prog.Load(); g != nil && g.originals == len(p.OriginalNames) && len(g.appliers) == len(p.Nodes) && len(g.out) == len(p.Output) {
		return g, nil
	}
	g, err := Compile(p.OriginalNames, p.Nodes, p.Output)
	if err == nil {
		p.prog.Store(g)
	}
	return g, err
}

// Formulas returns a human-readable formula per output feature, satisfying
// the interpretability requirement of Section II: every generated feature is
// an explicit expression over original columns.
func (p *Pipeline) Formulas() []string {
	out := make([]string, len(p.Output))
	copy(out, p.Output) // derived names are already formulas
	return out
}

// ReachableNodes returns, in their (dependency) order, the nodes the named
// outputs need: the program that derives them from the original columns.
func ReachableNodes(nodes []FeatureNode, outputs []string) []FeatureNode {
	needed := make(map[string]bool, len(outputs))
	for _, name := range outputs {
		needed[name] = true
	}
	// Walk nodes backwards marking dependencies.
	keep := make([]bool, len(nodes))
	kept := 0
	for i := len(nodes) - 1; i >= 0; i-- {
		if needed[nodes[i].Name] {
			keep[i] = true
			kept++
			for _, dep := range nodes[i].Inputs {
				needed[dep] = true
			}
		}
	}
	out := make([]FeatureNode, 0, kept)
	for i := range nodes {
		if keep[i] {
			out = append(out, nodes[i])
		}
	}
	return out
}
