package core

import (
	"testing"

	"repro/internal/frame"
	"repro/internal/operators"
)

// buildManualPipeline constructs a small pipeline by hand: c = a+b,
// d = c*a, output {a, d}. Node c is a pure intermediate.
func buildManualPipeline(t *testing.T) *Pipeline {
	t.Helper()
	add, err := operators.NewRegistry().Get("add")
	if err != nil {
		t.Fatal(err)
	}
	mul, err := operators.NewRegistry().Get("mul")
	if err != nil {
		t.Fatal(err)
	}
	dummy := [][]float64{{0}, {0}}
	addAp, err := add.Fit(dummy)
	if err != nil {
		t.Fatal(err)
	}
	mulAp, err := mul.Fit(dummy)
	if err != nil {
		t.Fatal(err)
	}
	return &Pipeline{
		OriginalNames: []string{"a", "b"},
		Nodes: []FeatureNode{
			{Name: "c", Inputs: []string{"a", "b"}, Applier: addAp},
			{Name: "d", Inputs: []string{"c", "a"}, Applier: mulAp},
		},
		Output: []string{"a", "d"},
	}
}

func TestPipelineEvaluatesDAG(t *testing.T) {
	p := buildManualPipeline(t)
	f := &frame.Frame{
		Columns: []frame.Column{
			{Name: "a", Values: []float64{2, 3}},
			{Name: "b", Values: []float64{10, 20}},
		},
	}
	out, err := p.Transform(f)
	if err != nil {
		t.Fatal(err)
	}
	// d = (a+b)*a.
	if got := out.Columns[1].Values[0]; got != 24 {
		t.Errorf("d[0] = %v, want 24", got)
	}
	if got := out.Columns[1].Values[1]; got != 69 {
		t.Errorf("d[1] = %v, want 69", got)
	}
	// Row-wise agrees.
	row, err := p.TransformRow([]float64{2, 10})
	if err != nil {
		t.Fatal(err)
	}
	if row[0] != 2 || row[1] != 24 {
		t.Errorf("TransformRow = %v, want [2 24]", row)
	}
}

// TestPipelineResizedAfterTransformRecompiles: a literal-built pipeline is
// compiled by its first transform; one that grows afterwards is noticed.
func TestPipelineResizedAfterTransformRecompiles(t *testing.T) {
	p := buildManualPipeline(t)
	if _, err := p.TransformRow([]float64{2, 10}); err != nil {
		t.Fatal(err)
	}
	p.Nodes = append(p.Nodes, FeatureNode{Name: "e", Inputs: []string{"d", "b"}, Applier: p.Nodes[0].Applier})
	p.Output = append(p.Output, "e")
	row, err := p.TransformRow([]float64{2, 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(row) != 3 || row[2] != 34 {
		t.Errorf("TransformRow after appending e = d+b: %v, want [2 24 34]", row)
	}
}

func TestPipelinePruneKeepsTransitiveDeps(t *testing.T) {
	p := buildManualPipeline(t)
	p.Nodes = ReachableNodes(p.Nodes, p.Output)
	// Node c must survive: d depends on it even though c is not an output.
	if len(p.Nodes) != 2 {
		t.Fatalf("prune removed a needed intermediate: %d nodes", len(p.Nodes))
	}
}

func TestPipelinePruneDropsUnused(t *testing.T) {
	p := buildManualPipeline(t)
	p.Output = []string{"a"} // d (and hence c) now unused
	p.Nodes = ReachableNodes(p.Nodes, p.Output)
	if len(p.Nodes) != 0 {
		t.Errorf("prune kept %d unused nodes", len(p.Nodes))
	}
}

func TestPipelineTransformMissingColumn(t *testing.T) {
	p := buildManualPipeline(t)
	f := &frame.Frame{Columns: []frame.Column{{Name: "a", Values: []float64{1}}}}
	if _, err := p.Transform(f); err == nil {
		t.Error("transform accepted a frame missing column b")
	}
}

func TestPipelineTransformUnknownOutput(t *testing.T) {
	p := buildManualPipeline(t)
	p.Output = append(p.Output, "ghost")
	f := &frame.Frame{
		Columns: []frame.Column{
			{Name: "a", Values: []float64{1}},
			{Name: "b", Values: []float64{2}},
		},
	}
	if _, err := p.Transform(f); err == nil {
		t.Error("transform accepted an unknown output column")
	}
	if _, err := p.TransformRow([]float64{1, 2}); err == nil {
		t.Error("TransformRow accepted an unknown output column")
	}
}

func TestNumDerived(t *testing.T) {
	p := buildManualPipeline(t)
	if got := p.NumDerived(); got != 1 { // d is derived, a is original
		t.Errorf("NumDerived = %d, want 1", got)
	}
	if got := p.NumFeatures(); got != 2 {
		t.Errorf("NumFeatures = %d, want 2", got)
	}
}

func TestValidateTopologyCatchesCycles(t *testing.T) {
	p := buildManualPipeline(t)
	// Make node c depend on d (defined later): forward reference.
	p.Nodes[0].Inputs = []string{"a", "d"}
	if _, err := p.program(); err == nil {
		t.Error("topology validation accepted a forward reference")
	}
}
