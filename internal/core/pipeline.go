package core

import (
	"fmt"

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
// output columns.
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
	n := f.NumRows()
	cols := make(map[string][]float64, len(p.OriginalNames)+len(p.Nodes))
	for _, name := range p.OriginalNames {
		c, ok := f.ColByName(name)
		if !ok {
			return nil, fmt.Errorf("core: transform: input frame lacks column %q", name)
		}
		cols[name] = c
	}
	for i := range p.Nodes {
		node := &p.Nodes[i]
		in := make([][]float64, len(node.Inputs))
		for k, dep := range node.Inputs {
			c, ok := cols[dep]
			if !ok {
				return nil, fmt.Errorf("core: transform: node %q needs unknown column %q", node.Name, dep)
			}
			in[k] = c
		}
		cols[node.Name] = node.Applier.Transform(in)
	}
	out := &frame.Frame{Label: f.Label}
	for _, name := range p.Output {
		c, ok := cols[name]
		if !ok {
			return nil, fmt.Errorf("core: transform: unknown output column %q", name)
		}
		if len(c) != n {
			return nil, fmt.Errorf("core: transform: column %q has %d rows, want %d", name, len(c), n)
		}
		out.AddColumn(name, c)
	}
	return out, nil
}

// TransformRow applies Ψ to one raw row (ordered as OriginalNames),
// returning the output feature vector. This is the real-time inference path
// of Section IV-E3: no allocation beyond the result and a scratch map.
func (p *Pipeline) TransformRow(row []float64) ([]float64, error) {
	if len(row) != len(p.OriginalNames) {
		return nil, fmt.Errorf("core: transform row: got %d values, want %d", len(row), len(p.OriginalNames))
	}
	vals := make(map[string]float64, len(p.OriginalNames)+len(p.Nodes))
	for i, name := range p.OriginalNames {
		vals[name] = row[i]
	}
	scratch := make([]float64, 3)
	for i := range p.Nodes {
		node := &p.Nodes[i]
		in := scratch[:len(node.Inputs)]
		for k, dep := range node.Inputs {
			v, ok := vals[dep]
			if !ok {
				return nil, fmt.Errorf("core: transform row: node %q needs unknown column %q", node.Name, dep)
			}
			in[k] = v
		}
		vals[node.Name] = node.Applier.TransformRow(in)
	}
	out := make([]float64, len(p.Output))
	for i, name := range p.Output {
		v, ok := vals[name]
		if !ok {
			return nil, fmt.Errorf("core: transform row: unknown output column %q", name)
		}
		out[i] = v
	}
	return out, nil
}

// TransformBatch applies Ψ to a batch of raw rows (each ordered as
// OriginalNames) in one columnar pass and returns the output feature matrix,
// row-major. Unlike calling TransformRow per row, each operator is applied
// once to whole columns, so the per-node dispatch and map lookups are
// amortised over the batch — this is the serving-side entry point for
// batched /transform and /predict traffic.
func (p *Pipeline) TransformBatch(rows [][]float64) ([][]float64, error) {
	n := len(rows)
	if n == 0 {
		return nil, nil
	}
	// Scatter the row-major input into original columns.
	cols := make(map[string][]float64, len(p.OriginalNames)+len(p.Nodes))
	flat := make([]float64, n*len(p.OriginalNames))
	for j, name := range p.OriginalNames {
		col := flat[j*n : (j+1)*n]
		cols[name] = col
	}
	for i, row := range rows {
		if len(row) != len(p.OriginalNames) {
			return nil, fmt.Errorf("core: transform batch: row %d has %d values, want %d",
				i, len(row), len(p.OriginalNames))
		}
		for j, name := range p.OriginalNames {
			cols[name][i] = row[j]
		}
	}
	for i := range p.Nodes {
		node := &p.Nodes[i]
		in := make([][]float64, len(node.Inputs))
		for k, dep := range node.Inputs {
			c, ok := cols[dep]
			if !ok {
				return nil, fmt.Errorf("core: transform batch: node %q needs unknown column %q", node.Name, dep)
			}
			in[k] = c
		}
		cols[node.Name] = node.Applier.Transform(in)
	}
	// Gather the selected outputs back into row-major form.
	outFlat := make([]float64, n*len(p.Output))
	out := make([][]float64, n)
	for i := range out {
		out[i] = outFlat[i*len(p.Output) : (i+1)*len(p.Output)]
	}
	for j, name := range p.Output {
		c, ok := cols[name]
		if !ok {
			return nil, fmt.Errorf("core: transform batch: unknown output column %q", name)
		}
		if len(c) != n {
			return nil, fmt.Errorf("core: transform batch: column %q has %d rows, want %d", name, len(c), n)
		}
		for i := 0; i < n; i++ {
			out[i][j] = c[i]
		}
	}
	return out, nil
}

// Formulas returns a human-readable formula per output feature, satisfying
// the interpretability requirement of Section II: every generated feature is
// an explicit expression over original columns.
func (p *Pipeline) Formulas() []string {
	out := make([]string, len(p.Output))
	copy(out, p.Output) // derived names are already formulas
	return out
}

// prune drops nodes whose outputs are unreachable from Output, keeping the
// pipeline minimal for inference.
func (p *Pipeline) prune() { p.Nodes = ReachableNodes(p.Nodes, p.Output) }

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

// sanitize replaces NaN/Inf outputs with 0 in place; classifiers downstream
// assume finite matrices. Division and reciprocal operators produce NaN on
// zero denominators by design. One comparison finds all three: v-v is 0 for
// every finite v and NaN for NaN and ±Inf.
func sanitize(col []float64) {
	for i, v := range col {
		if v-v != 0 {
			col[i] = 0
		}
	}
}
