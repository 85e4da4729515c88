package baselines

import (
	"container/heap"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/frame"
	"repro/internal/operators"
)

func TestIGHeapKeepsBestK(t *testing.T) {
	h := make(igHeap, 0, 4)
	push := func(s scored) {
		if len(h) < 3 {
			heap.Push(&h, s)
			return
		}
		if s.ig > h[0].ig {
			h[0] = s
			heap.Fix(&h, 0)
		}
	}
	for _, ig := range []float64{0.5, 0.1, 0.9, 0.3, 0.7, 0.2} {
		push(scored{ig: ig})
	}
	if len(h) != 3 {
		t.Fatalf("heap size %d, want 3", len(h))
	}
	got := map[float64]bool{}
	for _, s := range h {
		got[s.ig] = true
	}
	for _, want := range []float64{0.9, 0.7, 0.5} {
		if !got[want] {
			t.Errorf("top-3 missing %v: %v", want, got)
		}
	}
}

func TestEvalPairSanitises(t *testing.T) {
	div, err := operators.NewRegistry().Get("div")
	if err != nil {
		t.Fatal(err)
	}
	a := []float64{1, 2, 3}
	b := []float64{0, 1, 0} // divisions by zero
	buf := make([]float64, 3)
	evalPair(div, a, b, buf)
	for i, v := range buf {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("buf[%d] = %v, want finite", i, v)
		}
	}
	if buf[1] != 2 {
		t.Errorf("2/1 = %v, want 2", buf[1])
	}
}

func TestBestSplitIG(t *testing.T) {
	// Labels flip at value 5.
	col := []float64{1, 2, 3, 4, 6, 7, 8, 9}
	labels := []float64{0, 0, 0, 0, 1, 1, 1, 1}
	rows := []int{0, 1, 2, 3, 4, 5, 6, 7}
	gain, thr, ok := bestSplitIG(col, labels, rows)
	if !ok {
		t.Fatal("no split found")
	}
	if thr != 4 {
		t.Errorf("threshold = %v, want 4", thr)
	}
	if math.Abs(gain-math.Ln2) > 1e-9 {
		t.Errorf("gain = %v, want ln 2", gain)
	}
}

func TestBestSplitIGDegenerate(t *testing.T) {
	// Pure labels: no split.
	if _, _, ok := bestSplitIG([]float64{1, 2, 3}, []float64{1, 1, 1}, []int{0, 1, 2}); ok {
		t.Error("found a split on pure labels")
	}
	// Constant feature: no split.
	if _, _, ok := bestSplitIG([]float64{5, 5, 5, 5}, []float64{0, 1, 0, 1}, []int{0, 1, 2, 3}); ok {
		t.Error("found a split on a constant feature")
	}
	// All NaN: no split.
	nan := math.NaN()
	if _, _, ok := bestSplitIG([]float64{nan, nan}, []float64{0, 1}, []int{0, 1}); ok {
		t.Error("found a split on all-NaN feature")
	}
}

func TestPure(t *testing.T) {
	if !pure([]float64{1, 1, 1}, []int{0, 1, 2}) {
		t.Error("pure labels reported impure")
	}
	if pure([]float64{1, 0, 1}, []int{0, 1, 2}) {
		t.Error("mixed labels reported pure")
	}
	if !pure(nil, nil) {
		t.Error("empty rows should be pure")
	}
}

func TestRandomPairsEligibilityFilter(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	// Only even-indexed features eligible.
	for _, p := range randomPairs([]int{0, 2, 4, 6, 8}, 8, rng) {
		if p.Features[0]%2 != 0 || p.Features[1]%2 != 0 {
			t.Fatalf("ineligible feature in pair %v", p.Features)
		}
	}
	// Fewer than 2 eligible features: no pairs.
	if got := randomPairs([]int{3}, 5, rng); got != nil {
		t.Errorf("pairs from a single-feature pool: %v", got)
	}
}

// TestBaselinesScoreWhatTheirPipelineEmits: the column a method scores is the
// column its Pipeline emits for the same rows, bit for bit — through construct
// (which FCTree builds its candidates with), through TFC's evalPair, and
// through the loop RAND and IMP fit with, here on a fixed {0,1} pair source.
// The loop scores a candidate with core.Apply, as construct does; the fit's
// Pipeline must emit that column. The product of a and b lies in (1e300,
// MaxFloat64] on every row but the last, where it overflows.
func TestBaselinesScoreWhatTheirPipelineEmits(t *testing.T) {
	a := []float64{1e151, 2e152, -3e152, 1e154, 1e200}
	b := []float64{1e151, 5e152, -4e152, 1.7e154, 1e200}
	names := []string{"a", "b"}
	mul := operators.Mul()
	g, err := construct(mul, [][]float64{a, b}, names, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	tfc := make([]float64, len(a))
	evalPair(mul, a, b, tfc)

	p := &core.Pipeline{OriginalNames: names, Nodes: []core.FeatureNode{{Name: g.name, Inputs: g.inputs, Applier: g.applier}}, Output: []string{g.name}}
	rows := make([][]float64, len(a))
	for i := range rows {
		rows[i] = []float64{a[i], b[i]}
	}
	out, err := p.TransformBatch(rows)
	if err != nil {
		t.Fatal(err)
	}
	if out[0][0] <= 1e300 {
		t.Fatalf("the pipeline emits %v for 1e151 * 1e151", out[0][0])
	}

	train := &frame.Frame{Columns: []frame.Column{{Name: "a", Values: a}, {Name: "b", Values: b}}, Label: []float64{0, 1, 0, 1, 1}}
	fixed := func(*core.PairRound) ([]core.Combo, error) { return []core.Combo{{Features: []int{0, 1}}}, nil }
	loop := fit(t, train, fixed, func(c *core.Config) {
		c.Operators = []string{"mul"}
		c.PearsonThreshold = 1 // keep the product beside its inputs
	})
	if !slices.Contains(loop.Output, g.name) {
		t.Fatalf("the loop's fit on the pair {a, b} outputs %q, not %q", loop.Output, g.name)
	}
	emitted, err := loop.TransformBatch(rows)
	if err != nil {
		t.Fatal(err)
	}
	col := slices.Index(loop.Output, g.name)

	for i, row := range out {
		for name, scored := range map[string]float64{"construct": g.values[i], "TFC": tfc[i], "the loop's pipeline": emitted[i][col]} {
			if math.Float64bits(scored) != math.Float64bits(row[0]) {
				t.Errorf("row %d: %s has %v, the pipeline emits %v", i, name, scored, row[0])
			}
		}
	}
}

func TestPrunePipelineKeepsDependencies(t *testing.T) {
	ds := testDataset(t)
	p := fit(t, ds.Train, RandPairs(9), func(c *core.Config) { c.Iterations = 2 })
	// After pruning (already applied), every node output must be reachable
	// from Output or feed another kept node.
	needed := map[string]bool{}
	for _, o := range p.Output {
		needed[o] = true
	}
	for i := len(p.Nodes) - 1; i >= 0; i-- {
		if !needed[p.Nodes[i].Name] {
			t.Errorf("node %q survives pruning but is unused", p.Nodes[i].Name)
		}
		for _, dep := range p.Nodes[i].Inputs {
			needed[dep] = true
		}
	}
}
