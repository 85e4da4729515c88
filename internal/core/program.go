package core

import (
	"fmt"

	"repro/internal/operators"
)

// Program is Ψ's one executable form: a node list compiled against the
// original columns, every name resolved to a slot (original j in slot j,
// node i in slot M+i) and every reference checked, once. A fit, a loaded
// pipeline and a pass worker's live set all run the same Program through the
// same Eval, so a feature is the same number wherever it is computed: the
// operator's output with NaN and ±Inf clamped to 0.
type Program struct {
	originals int
	appliers  []operators.Applier // node i derives slot originals+i...
	in        [][]int             // ...from these earlier slots
	out       []int               // slot of each output, in output order
	arity     int                 // the widest node's input count
}

// Compile resolves nodes and output against the original column names. It
// rejects, naming the node: a missing name, a name an original column or an
// earlier node already has, an input that no original column or earlier node
// provides (a forward reference included), and an input count that is not
// the applier's arity; and an output nothing produces.
func Compile(originals []string, nodes []FeatureNode, output []string) (*Program, error) {
	m := len(originals)
	slot := make(map[string]int, m+len(nodes))
	for j, name := range originals {
		slot[name] = j
	}
	g := &Program{originals: m, appliers: make([]operators.Applier, len(nodes)), in: make([][]int, len(nodes)), out: make([]int, len(output))}
	for i := range nodes {
		nd := &nodes[i]
		if nd.Name == "" {
			return nil, fmt.Errorf("core: pipeline node %d has no name", i)
		}
		if _, dup := slot[nd.Name]; dup {
			return nil, fmt.Errorf("core: pipeline node %q (node %d) repeats the name of an original column or an earlier node", nd.Name, i)
		}
		if want, known := operators.ApplierArity(nd.Applier); known && want != len(nd.Inputs) {
			return nil, fmt.Errorf("core: pipeline node %q has %d inputs, its operator takes %d", nd.Name, len(nd.Inputs), want)
		}
		in := make([]int, len(nd.Inputs))
		for k, dep := range nd.Inputs {
			s, ok := slot[dep]
			if !ok {
				return nil, fmt.Errorf("core: pipeline node %q depends on %q, which no original column or earlier node provides", nd.Name, dep)
			}
			in[k] = s
		}
		slot[nd.Name] = m + i
		g.appliers[i], g.in[i] = nd.Applier, in
		g.arity = max(g.arity, len(in))
	}
	for i, name := range output {
		s, ok := slot[name]
		if !ok {
			return nil, fmt.Errorf("core: pipeline output %q is not produced by any node", name)
		}
		g.out[i] = s
	}
	return g, nil
}

// Eval runs the program over cols — the original columns in order, equal
// lengths — and returns the output columns: an original as the caller's own
// slice, a derived one in a buffer from alloc, which returns the next buffer
// of as many rows, contents unspecified. Every node is computed, in a buffer
// of its own, so whoever supplies alloc knows every buffer to take back.
func (g *Program) Eval(cols [][]float64, alloc func() []float64) [][]float64 {
	slots := make([][]float64, g.originals+len(g.appliers))
	copy(slots, cols)
	in := make([][]float64, g.arity)
	for i, ap := range g.appliers {
		for k, s := range g.in[i] {
			in[k] = slots[s]
		}
		dst := alloc()
		Apply(ap, in[:len(g.in[i])], dst)
		slots[g.originals+i] = dst
	}
	out := make([][]float64, len(g.out))
	for i, s := range g.out {
		out[i] = slots[s]
	}
	return out
}

// Apply computes one node: the applier over in into dst, then the clamp. A
// fit scores, ranks and builds on exactly this column, so nothing else in the
// repository applies an operator — not the engines, not the baselines, not
// the experiments.
func Apply(ap operators.Applier, in [][]float64, dst []float64) {
	ap.TransformInto(in, dst)
	sanitize(dst)
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
