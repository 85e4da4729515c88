package operators

import (
	"fmt"
	"math"
	"sort"
)

// Arity is the number of input features an operator consumes.
type Arity int

// Operator arities.
const (
	Unary   Arity = 1
	Binary  Arity = 2
	Ternary Arity = 3
)

// Operator generates one output column from Arity() input columns. Fit
// learns any parameters from training columns and returns an Applier bound
// to those parameters; the Applier is then usable on any data (train, test,
// or a single row at inference time).
type Operator interface {
	// Name is the operator's registry key, e.g. "add", "log", "groupby_avg".
	Name() string
	// Arity is the number of input columns.
	Arity() Arity
	// Fit binds the operator to training columns (len(cols) == Arity()) and
	// returns an Applier. Fit must not retain cols.
	Fit(cols [][]float64) (Applier, error)
}

// Applier is a fitted operator application.
type Applier interface {
	// Transform computes the output column for the given input columns
	// (len(cols) == arity, equal lengths).
	Transform(cols [][]float64) []float64
	// TransformRow computes the output for a single row of inputs.
	TransformRow(vals []float64) float64
	// Formula renders an interpretable expression given input names.
	Formula(names []string) string
}

// ColumnApplier is the optional allocation-free fast path of an Applier:
// TransformInto writes the output column into dst (len(dst) == rows)
// instead of allocating. The built-in arithmetic operators additionally
// dispatch to tight column loops here, skipping the per-row closure of the
// generic path.
type ColumnApplier interface {
	TransformInto(cols [][]float64, dst []float64)
}

// DataIndependent reports whether the operator's Fit ignores its input
// column values (it only validates arity), so an Applier fitted on any —
// even empty — columns behaves identically to one fitted on the training
// data. All stateless operators (arithmetic, logical, transforms) qualify;
// fitted operators (min-max, z-score, discretise, group-by, ridge) do not.
// The sharded out-of-core fit engine requires data-independent operators,
// since it fits appliers before any data has streamed.
func DataIndependent(op Operator) bool {
	_, ok := op.(*funcOp)
	return ok
}

// ApplierOp returns the registry name of the stateless operator behind a
// data-independent applier, or ok=false when the applier carries fitted
// state. A true result means the applier can be reconstructed anywhere by
// resolving the name in a registry and fitting on empty columns — which is
// how the distributed fit ships feature definitions to workers by name
// instead of serialising closures.
func ApplierOp(ap Applier) (name string, ok bool) {
	if fa, isFunc := ap.(*funcApplier); isFunc {
		return fa.op.name, true
	}
	return "", false
}

// ApplierArity returns how many input columns a built-in applier consumes —
// what whoever assembles a node program holds each node's input list to.
// known is false for a custom applier, whose arity only its author knows.
func ApplierArity(ap Applier) (arity int, known bool) {
	switch a := ap.(type) {
	case *funcApplier:
		return int(a.op.arity), true
	case *minMaxApplier, *zScoreApplier, *binApplier:
		return 1, true
	case *groupByApplier, *ridgeApplier:
		return 2, true
	}
	return 0, false
}

// TransformColumn applies ap into dst, using the ColumnApplier fast path
// when available and falling back to Transform+copy otherwise. It returns
// dst.
func TransformColumn(ap Applier, cols [][]float64, dst []float64) []float64 {
	if ca, ok := ap.(ColumnApplier); ok {
		ca.TransformInto(cols, dst)
		return dst
	}
	copy(dst, ap.Transform(cols))
	return dst
}

// ---------- stateless helpers ----------

// funcOp is a stateless operator defined by a row function, an optional
// vectorised column function (the hot-path variant generation uses), and a
// formula template.
type funcOp struct {
	name    string
	arity   Arity
	f       func(vals []float64) float64
	vec     func(cols [][]float64, dst []float64)
	formula func(names []string) string
}

func (o *funcOp) Name() string { return o.name }
func (o *funcOp) Arity() Arity { return o.arity }
func (o *funcOp) Fit(cols [][]float64) (Applier, error) {
	if len(cols) != int(o.arity) {
		return nil, fmt.Errorf("operators: %s wants %d inputs, got %d", o.name, o.arity, len(cols))
	}
	return &funcApplier{op: o}, nil
}

type funcApplier struct{ op *funcOp }

func (a *funcApplier) TransformRow(vals []float64) float64 { return a.op.f(vals) }
func (a *funcApplier) Formula(names []string) string       { return a.op.formula(names) }
func (a *funcApplier) Transform(cols [][]float64) []float64 {
	out := make([]float64, len(cols[0]))
	a.TransformInto(cols, out)
	return out
}

// TransformInto implements ColumnApplier: the vectorised column function
// when the operator has one, otherwise a generic row loop that still avoids
// allocating the output.
func (a *funcApplier) TransformInto(cols [][]float64, dst []float64) {
	if a.op.vec != nil {
		a.op.vec(cols, dst)
		return
	}
	k := len(cols)
	var stack [4]float64
	vals := stack[:]
	if k > len(stack) {
		vals = make([]float64, k)
	}
	for i := range dst {
		for j := 0; j < k; j++ {
			vals[j] = cols[j][i]
		}
		dst[i] = a.op.f(vals[:k])
	}
}

func unary(name string, f func(float64) float64, tmpl string) Operator {
	return &funcOp{
		name:  name,
		arity: Unary,
		f:     func(v []float64) float64 { return f(v[0]) },
		vec: func(cols [][]float64, dst []float64) {
			x := cols[0][:len(dst)]
			for i := range dst {
				dst[i] = f(x[i])
			}
		},
		formula: func(names []string) string {
			return fmt.Sprintf(tmpl, names[0])
		},
	}
}

func binary(name string, f func(a, b float64) float64, tmpl string) Operator {
	return &funcOp{
		name:  name,
		arity: Binary,
		f:     func(v []float64) float64 { return f(v[0], v[1]) },
		vec: func(cols [][]float64, dst []float64) {
			x := cols[0][:len(dst)]
			y := cols[1][:len(dst)]
			for i := range dst {
				dst[i] = f(x[i], y[i])
			}
		},
		formula: func(names []string) string {
			return fmt.Sprintf(tmpl, names[0], names[1])
		},
	}
}

// binaryVec is binary with a hand-specialised column loop: the arithmetic
// operators of the paper's experimental set run hot enough that even the
// two-argument closure call per row shows up in profiles.
func binaryVec(name string, f func(a, b float64) float64, vec func(x, y, dst []float64), tmpl string) Operator {
	op := binary(name, f, tmpl).(*funcOp)
	op.vec = func(cols [][]float64, dst []float64) {
		vec(cols[0][:len(dst)], cols[1][:len(dst)], dst)
	}
	return op
}

// ---------- arithmetic binary operators (the paper's experimental set) ----------

// Add returns the + operator.
func Add() Operator {
	return binaryVec("add", func(a, b float64) float64 { return a + b },
		func(x, y, dst []float64) {
			for i := range dst {
				dst[i] = x[i] + y[i]
			}
		}, "(%s + %s)")
}

// Sub returns the - operator. Subtraction is not commutative; the paper
// treats such operators as distinct per argument order, which feature
// generation honours by trying both orders.
func Sub() Operator {
	return binaryVec("sub", func(a, b float64) float64 { return a - b },
		func(x, y, dst []float64) {
			for i := range dst {
				dst[i] = x[i] - y[i]
			}
		}, "(%s - %s)")
}

// Mul returns the × operator.
func Mul() Operator {
	return binaryVec("mul", func(a, b float64) float64 { return a * b },
		func(x, y, dst []float64) {
			for i := range dst {
				dst[i] = x[i] * y[i]
			}
		}, "(%s * %s)")
}

// Div returns the ÷ operator; division by zero yields NaN (missing).
func Div() Operator {
	return binaryVec("div", func(a, b float64) float64 {
		if b == 0 {
			return math.NaN()
		}
		return a / b
	}, func(x, y, dst []float64) {
		for i := range dst {
			if y[i] == 0 {
				dst[i] = math.NaN()
			} else {
				dst[i] = x[i] / y[i]
			}
		}
	}, "(%s / %s)")
}

// ---------- unary mathematical transforms ----------

// Log returns log(1+|x|) with sign preserved: a robust variant of the
// paper's log transform that is defined on all reals.
func Log() Operator {
	return unary("log", func(x float64) float64 {
		if math.IsNaN(x) {
			return math.NaN()
		}
		return math.Copysign(math.Log1p(math.Abs(x)), x)
	}, "log(%s)")
}

// Sqrt returns sqrt(|x|) with sign preserved.
func Sqrt() Operator {
	return unary("sqrt", func(x float64) float64 {
		return math.Copysign(math.Sqrt(math.Abs(x)), x)
	}, "sqrt(%s)")
}

// Square returns x².
func Square() Operator {
	return unary("square", func(x float64) float64 { return x * x }, "(%s)^2")
}

// Sigmoid returns 1/(1+e^-x).
func Sigmoid() Operator {
	return unary("sigmoid", func(x float64) float64 { return 1 / (1 + math.Exp(-x)) }, "sigmoid(%s)")
}

// Tanh returns tanh(x).
func Tanh() Operator { return unary("tanh", math.Tanh, "tanh(%s)") }

// Round returns x rounded to the nearest integer.
func Round() Operator { return unary("round", math.Round, "round(%s)") }

// Abs returns |x|.
func Abs() Operator { return unary("abs", math.Abs, "abs(%s)") }

// Reciprocal returns 1/x (NaN at 0).
func Reciprocal() Operator {
	return unary("reciprocal", func(x float64) float64 {
		if x == 0 {
			return math.NaN()
		}
		return 1 / x
	}, "(1 / %s)")
}

// ---------- logical binary operators ----------

// Boolean inputs follow the >0.5 convention used for labels.
func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
func f2b(x float64) bool { return x > 0.5 }

// And returns the conjunction operator.
func And() Operator {
	return binary("and", func(a, b float64) float64 { return b2f(f2b(a) && f2b(b)) }, "(%s AND %s)")
}

// Or returns the disjunction operator.
func Or() Operator {
	return binary("or", func(a, b float64) float64 { return b2f(f2b(a) || f2b(b)) }, "(%s OR %s)")
}

// Xor returns the exclusive-or operator.
func Xor() Operator {
	return binary("xor", func(a, b float64) float64 { return b2f(f2b(a) != f2b(b)) }, "(%s XOR %s)")
}

// Nand returns the alternative-denial operator.
func Nand() Operator {
	return binary("nand", func(a, b float64) float64 { return b2f(!(f2b(a) && f2b(b))) }, "(%s NAND %s)")
}

// Nor returns the joint-denial operator.
func Nor() Operator {
	return binary("nor", func(a, b float64) float64 { return b2f(!(f2b(a) || f2b(b))) }, "(%s NOR %s)")
}

// Implies returns the material-conditional operator a→b.
func Implies() Operator {
	return binary("implies", func(a, b float64) float64 { return b2f(!f2b(a) || f2b(b)) }, "(%s -> %s)")
}

// Iff returns the biconditional operator a↔b.
func Iff() Operator {
	return binary("iff", func(a, b float64) float64 { return b2f(f2b(a) == f2b(b)) }, "(%s <-> %s)")
}

// ---------- ternary conditional ----------

// Conditional returns the a?b:c operator of Section III.
func Conditional() Operator {
	return &funcOp{
		name:  "cond",
		arity: Ternary,
		f: func(v []float64) float64 {
			if f2b(v[0]) {
				return v[1]
			}
			return v[2]
		},
		formula: func(names []string) string {
			return fmt.Sprintf("(%s ? %s : %s)", names[0], names[1], names[2])
		},
	}
}

// ---------- n-ary row aggregates ----------

// RowMax returns the MAX operator over k inputs.
func RowMax(k int) Operator { return rowAgg("max", k, math.Inf(-1), math.Max) }

// RowMin returns the MIN operator over k inputs.
func RowMin(k int) Operator { return rowAgg("min", k, math.Inf(1), math.Min) }

// RowMean returns the MEAN operator over k inputs.
func RowMean(k int) Operator {
	return &funcOp{
		name:  fmt.Sprintf("mean%d", k),
		arity: Arity(k),
		f: func(v []float64) float64 {
			s := 0.0
			for _, x := range v {
				s += x
			}
			return s / float64(len(v))
		},
		formula: func(names []string) string { return "mean(" + join(names) + ")" },
	}
}

func rowAgg(name string, k int, init float64, f func(a, b float64) float64) Operator {
	return &funcOp{
		name:  fmt.Sprintf("%s%d", name, k),
		arity: Arity(k),
		f: func(v []float64) float64 {
			acc := init
			for _, x := range v {
				acc = f(acc, x)
			}
			return acc
		},
		formula: func(names []string) string { return name + "(" + join(names) + ")" },
	}
}

func join(names []string) string {
	out := ""
	for i, n := range names {
		if i > 0 {
			out += ", "
		}
		out += n
	}
	return out
}

// sortFloats is a tiny local alias so fitted operators can normalise learned
// parameters deterministically.
func sortFloats(xs []float64) { sort.Float64s(xs) }
