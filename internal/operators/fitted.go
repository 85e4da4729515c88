package operators

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/stats"
)

// ---------- fitted unary operators: normalisation ----------

// MinMax returns the Min-Max normalisation operator: (x-min)/(max-min)
// with parameters learned at Fit time.
func MinMax() Operator { return &minMaxOp{} }

type minMaxOp struct{}

func (*minMaxOp) Name() string { return "minmax" }
func (*minMaxOp) Arity() Arity { return Unary }
func (*minMaxOp) Fit(cols [][]float64) (Applier, error) {
	if len(cols) != 1 {
		return nil, errors.New("operators: minmax wants 1 input")
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range cols[0] {
		if math.IsNaN(v) {
			continue
		}
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if !(hi > lo) {
		hi = lo + 1
	}
	return &minMaxApplier{lo: lo, span: hi - lo}, nil
}

type minMaxApplier struct{ lo, span float64 }

func (a *minMaxApplier) TransformInto(cols [][]float64, dst []float64) {
	for i, v := range cols[0][:len(dst)] {
		dst[i] = (v - a.lo) / a.span // NaN stays NaN
	}
}
func (a *minMaxApplier) Formula(names []string) string {
	return fmt.Sprintf("minmax(%s; lo=%.4g, span=%.4g)", names[0], a.lo, a.span)
}

// ZScore returns the Z-score standardisation operator with mean/std learned
// at Fit time.
func ZScore() Operator { return &zScoreOp{} }

type zScoreOp struct{}

func (*zScoreOp) Name() string { return "zscore" }
func (*zScoreOp) Arity() Arity { return Unary }
func (*zScoreOp) Fit(cols [][]float64) (Applier, error) {
	if len(cols) != 1 {
		return nil, errors.New("operators: zscore wants 1 input")
	}
	mean, std, _ := stats.MeanStd(cols[0])
	if std < 1e-12 {
		std = 1
	}
	return &zScoreApplier{mean: mean, std: std}, nil
}

type zScoreApplier struct{ mean, std float64 }

func (a *zScoreApplier) TransformInto(cols [][]float64, dst []float64) {
	for i, v := range cols[0][:len(dst)] {
		dst[i] = (v - a.mean) / a.std // NaN stays NaN
	}
}
func (a *zScoreApplier) Formula(names []string) string {
	return fmt.Sprintf("zscore(%s; mean=%.4g, std=%.4g)", names[0], a.mean, a.std)
}

// ---------- fitted unary operators: discretisation ----------

// BinningKind selects a discretisation strategy.
type BinningKind int

// Discretisation strategies from Section III (ChiMerge, equidistant and
// equal-frequency binning).
const (
	EqualFrequency BinningKind = iota
	EqualWidth
	ChiMergeBins
)

// Discretize returns a discretisation operator with the given strategy and
// bin count. ChiMergeBins requires labels, supplied via SetLabels before
// Fit (the core engine wires this up); without labels it falls back to
// equal-frequency.
func Discretize(kind BinningKind, bins int) *DiscretizeOp {
	if bins < 2 {
		bins = 10
	}
	return &DiscretizeOp{kind: kind, bins: bins}
}

// DiscretizeOp is the fitted discretisation operator.
type DiscretizeOp struct {
	kind   BinningKind
	bins   int
	labels []float64
}

// SetLabels provides training labels for supervised (ChiMerge)
// discretisation.
func (o *DiscretizeOp) SetLabels(labels []float64) { o.labels = labels }

// Name implements Operator.
func (o *DiscretizeOp) Name() string {
	switch o.kind {
	case EqualWidth:
		return "bin_width"
	case ChiMergeBins:
		return "bin_chimerge"
	default:
		return "bin_freq"
	}
}

// Arity implements Operator.
func (o *DiscretizeOp) Arity() Arity { return Unary }

// Fit learns bin edges from the training column.
func (o *DiscretizeOp) Fit(cols [][]float64) (Applier, error) {
	if len(cols) != 1 {
		return nil, errors.New("operators: discretize wants 1 input")
	}
	var cuts []float64
	switch o.kind {
	case EqualWidth:
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, v := range cols[0] {
			if math.IsNaN(v) {
				continue
			}
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		if hi > lo {
			w := (hi - lo) / float64(o.bins)
			for b := 1; b < o.bins; b++ {
				cuts = append(cuts, lo+float64(b)*w)
			}
		}
	case ChiMergeBins:
		if o.labels != nil && len(o.labels) == len(cols[0]) {
			cuts = stats.ChiMerge(cols[0], o.labels, o.bins, 3.84) // chi² 95%, 1 dof
			break
		}
		fallthrough
	default:
		cuts = stats.Quantiles(cols[0], o.bins)
	}
	sortFloats(cuts)
	return &binApplier{cuts: cuts, name: o.Name()}, nil
}

type binApplier struct {
	cuts []float64
	name string
}

func (a *binApplier) TransformInto(cols [][]float64, dst []float64) {
	for i, v := range cols[0][:len(dst)] {
		if math.IsNaN(v) {
			dst[i] = -1
			continue
		}
		dst[i] = float64(sort.SearchFloat64s(a.cuts, v))
	}
}
func (a *binApplier) Formula(names []string) string {
	return fmt.Sprintf("%s(%s; %d cuts)", a.name, names[0], len(a.cuts))
}

// ---------- fitted binary operators: GroupByThen* ----------

// GroupAgg selects the aggregate for GroupByThen operators.
type GroupAgg int

// Aggregates of the paper's GroupByThenMax/Min/Avg/Stdev/Count operators.
const (
	GroupMax GroupAgg = iota
	GroupMin
	GroupAvg
	GroupStdev
	GroupCount
)

var groupAggNames = map[GroupAgg]string{
	GroupMax:   "groupby_max",
	GroupMin:   "groupby_min",
	GroupAvg:   "groupby_avg",
	GroupStdev: "groupby_std",
	GroupCount: "groupby_count",
}

// GroupBy returns the GroupByThen<agg> operator: the first input is the key
// (quantised to at most maxGroups groups), the second the value; the output
// for a row is the aggregate of the value over all training rows sharing the
// row's key group. Unknown keys at inference map to the global aggregate.
func GroupBy(agg GroupAgg, maxGroups int) Operator {
	if maxGroups < 2 {
		maxGroups = 32
	}
	return &groupByOp{agg: agg, maxGroups: maxGroups}
}

type groupByOp struct {
	agg       GroupAgg
	maxGroups int
}

func (o *groupByOp) Name() string { return groupAggNames[o.agg] }
func (o *groupByOp) Arity() Arity { return Binary }

func (o *groupByOp) Fit(cols [][]float64) (Applier, error) {
	if len(cols) != 2 {
		return nil, errors.New("operators: groupby wants 2 inputs")
	}
	key, val := cols[0], cols[1]
	cuts := groupCuts(key, o.maxGroups)
	ng := len(cuts) + 1

	type acc struct {
		n          float64
		sum, sumSq float64
		min, max   float64
	}
	accs := make([]acc, ng)
	for g := range accs {
		accs[g].min = math.Inf(1)
		accs[g].max = math.Inf(-1)
	}
	var global acc
	global.min = math.Inf(1)
	global.max = math.Inf(-1)

	for i, k := range key {
		v := val[i]
		if math.IsNaN(k) || math.IsNaN(v) {
			continue
		}
		g := sort.SearchFloat64s(cuts, k)
		a := &accs[g]
		a.n++
		a.sum += v
		a.sumSq += v * v
		if v < a.min {
			a.min = v
		}
		if v > a.max {
			a.max = v
		}
		global.n++
		global.sum += v
		global.sumSq += v * v
		if v < global.min {
			global.min = v
		}
		if v > global.max {
			global.max = v
		}
	}

	finish := func(a acc) float64 {
		if a.n == 0 {
			return math.NaN()
		}
		switch o.agg {
		case GroupMax:
			return a.max
		case GroupMin:
			return a.min
		case GroupAvg:
			return a.sum / a.n
		case GroupStdev:
			mean := a.sum / a.n
			v := a.sumSq/a.n - mean*mean
			if v < 0 {
				v = 0
			}
			return math.Sqrt(v)
		default:
			return a.n
		}
	}
	table := make([]float64, ng)
	for g := range accs {
		table[g] = finish(accs[g])
	}
	fallback := finish(global)
	for g := range table {
		if math.IsNaN(table[g]) {
			table[g] = fallback
		}
	}
	return &groupByApplier{cuts: cuts, table: table, fallback: fallback, name: o.Name()}, nil
}

type groupByApplier struct {
	cuts     []float64
	table    []float64
	fallback float64
	name     string
}

func (a *groupByApplier) TransformInto(cols [][]float64, dst []float64) {
	for i, k := range cols[0][:len(dst)] {
		if math.IsNaN(k) {
			dst[i] = a.fallback
			continue
		}
		dst[i] = a.table[sort.SearchFloat64s(a.cuts, k)]
	}
}
func (a *groupByApplier) Formula(names []string) string {
	return fmt.Sprintf("%s(key=%s, val=%s)", a.name, names[0], names[1])
}

// groupCuts quantises a grouping key into at most maxGroups groups using
// midpoints between adjacent quantile values, so that a cut never lands on
// an actual key value (which would merge distinct groups under the (..,cut]
// convention).
func groupCuts(key []float64, maxGroups int) []float64 {
	clean := make([]float64, 0, len(key))
	for _, v := range key {
		if !math.IsNaN(v) {
			clean = append(clean, v)
		}
	}
	if len(clean) < 2 {
		return nil
	}
	sort.Float64s(clean)
	cuts := make([]float64, 0, maxGroups-1)
	for k := 1; k < maxGroups; k++ {
		idx := k * len(clean) / maxGroups
		if idx <= 0 || idx >= len(clean) {
			continue
		}
		lo, hi := clean[idx-1], clean[idx]
		if hi <= lo {
			continue
		}
		c := (lo + hi) / 2
		if len(cuts) == 0 || c > cuts[len(cuts)-1] {
			cuts = append(cuts, c)
		}
	}
	return cuts
}
