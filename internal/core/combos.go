package core

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/gbdt"
	"repro/internal/parallel"
	"repro/internal/stats"
)

// Combo is a candidate feature combination mined from tree paths: feature
// indices into the current live feature set, with the split values observed
// for each feature, and its information gain ratio (Algorithm 2).
type Combo struct {
	Features  []int       // sorted feature indices, len 1..3
	Values    [][]float64 // per feature, sorted distinct split values
	GainRatio float64
}

// comboKey uniquely identifies a combination by its sorted feature indices.
type comboKey struct{ a, b, c int } // unused slots are -1

func keyOf(feats []int) comboKey {
	k := comboKey{-1, -1, -1}
	switch len(feats) {
	case 1:
		k.a = feats[0]
	case 2:
		k.a, k.b = feats[0], feats[1]
	case 3:
		k.a, k.b, k.c = feats[0], feats[1], feats[2]
	}
	return k
}

// mineCombos enumerates feature combinations from the model's root-to-leaf
// paths (Section IV-B1). arities lists the combination sizes wanted (1 for
// unary operators, 2 for binary, 3 for ternary). Combinations recurring on
// several paths are merged, accumulating the union of their split values.
func mineCombos(model *gbdt.Model, arities []int) []Combo {
	wantArity := make(map[int]bool, len(arities))
	maxArity := 0
	for _, a := range arities {
		wantArity[a] = true
		if a > maxArity {
			maxArity = a
		}
	}
	merged := make(map[comboKey]*Combo)

	add := func(feats []int, values map[int][]float64) {
		sorted := append([]int(nil), feats...)
		sort.Ints(sorted)
		k := keyOf(sorted)
		c, ok := merged[k]
		if !ok {
			c = &Combo{Features: sorted, Values: make([][]float64, len(sorted))}
			merged[k] = c
		}
		for i, f := range sorted {
			c.Values[i] = mergeSorted(c.Values[i], values[f])
		}
	}

	for _, p := range model.Paths() {
		feats := p.Features
		if wantArity[1] {
			for _, f := range feats {
				add([]int{f}, p.Values)
			}
		}
		if wantArity[2] {
			for i := 0; i < len(feats); i++ {
				for j := i + 1; j < len(feats); j++ {
					add([]int{feats[i], feats[j]}, p.Values)
				}
			}
		}
		if wantArity[3] {
			for i := 0; i < len(feats); i++ {
				for j := i + 1; j < len(feats); j++ {
					for k := j + 1; k < len(feats); k++ {
						add([]int{feats[i], feats[j], feats[k]}, p.Values)
					}
				}
			}
		}
	}

	out := make([]Combo, 0, len(merged))
	for _, c := range merged {
		out = append(out, *c)
	}
	// Deterministic order before scoring (map iteration is random).
	sort.Slice(out, func(i, j int) bool {
		return keyLess(keyOf(out[i].Features), keyOf(out[j].Features))
	})
	return out
}

func keyLess(a, b comboKey) bool {
	if a.a != b.a {
		return a.a < b.a
	}
	if a.b != b.b {
		return a.b < b.b
	}
	return a.c < b.c
}

func mergeSorted(a, b []float64) []float64 {
	out := make([]float64, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		var v float64
		switch {
		case i == len(a):
			v = b[j]
			j++
		case j == len(b):
			v = a[i]
			i++
		case a[i] <= b[j]:
			v = a[i]
			if a[i] == b[j] {
				j++
			}
			i++
		default:
			v = b[j]
			j++
		}
		if len(out) == 0 || out[len(out)-1] != v {
			out = append(out, v)
		}
	}
	return out
}

// maxPartitionCells bounds the partition size when scoring a combination:
// beyond this the split values are thinned to keep the gain-ratio
// computation O(N) with a small constant.
const maxPartitionCells = 1024

// ScoreCombos computes the gain ratio of every combination over the training
// rows (Algorithm 2): the combo's split values partition the rows into
// prod_i (|V_i|+1) cells, scored with the task's criterion — binary
// information gain ratio, its K-class generalisation, or the regression
// variance-reduction ratio (stats.TargetCode.GainRatio). It is the one
// scorer of both fit engines, and it never looks at a raw value: pb is the
// bin-code matrix the miner that produced the combinations was trained on,
// code the fit's target code of the same rows (Task.Code), every split value
// is a node threshold and every threshold one of pb.Cuts, so the cell a row
// falls into is a function of its codes alone (fillCellTable). One scan of
// the combo's code columns fills the cell counters, and the code's gain
// ratio finishes — the same arithmetic, in the same order, as binning each
// raw value against the split values and calling stats.GainRatio /
// GainRatioClasses / VarGainRatio, bit for bit
// (TestScoreCombosMatchesRowSpace).
//
// Scoring is combo-parallel on the pool, each combination by one goroutine in
// row order, so the ratios are the same for any pool size. A combination that
// names a feature outside pb, has more than three features, or carries a
// split value that is not a cut of its feature is an error, as is a code
// outside its feature's bins. A cancelled context stops further combos from
// being scored and returns ctx.Err() — partially filled GainRatios must then
// be discarded by the caller.
func ScoreCombos(ctx context.Context, combos []Combo, pb *gbdt.Prebinned, code *stats.TargetCode, pool *parallel.Pool) error {
	if len(combos) == 0 {
		return nil
	}
	if err := pb.Validate(len(code.Q)); err != nil {
		return fmt.Errorf("core: score combinations: %w", err)
	}
	for i := range combos {
		if err := checkCombo(&combos[i], pb.Cuts); err != nil {
			return fmt.Errorf("core: combination %d: %w", i, err)
		}
	}
	return pool.ForChunksCtx(ctx, len(combos), pool.Grain(len(combos)), func(lo, hi int) {
		s := comboScorer{pb: pb, code: code} // each chunk its own tables and counters
		for i := lo; i < hi; i++ {
			combos[i].GainRatio = s.score(&combos[i])
		}
	})
}

// checkCombo holds one combination to what the scorer indexes by.
func checkCombo(c *Combo, cuts [][]float64) error {
	if len(c.Features) > 3 || len(c.Values) != len(c.Features) {
		return fmt.Errorf("%d features and %d split sets, want equal and at most 3", len(c.Features), len(c.Values))
	}
	for i, f := range c.Features {
		if f < 0 || f >= len(cuts) {
			return fmt.Errorf("feature %d outside the %d binned columns", f, len(cuts))
		}
		for _, v := range c.Values[i] {
			if j := stats.SearchCuts(cuts[f], v); j == len(cuts[f]) || cuts[f][j] != v {
				return fmt.Errorf("split value %v is not a cut of feature %d", v, f)
			}
		}
	}
	return nil
}

// fillCellTable maps one feature's bin codes to its coordinate in a
// combination's cell grid, pre-multiplied by stride: code 0 (NaN) sorts below
// every split value, code b+1 lands where its bin's upper cut does, the top
// bin above them all. Exact because values ⊂ cuts: a value v of bin b has
// cuts[b-1] < v <= cuts[b], so values[j] >= v ⇔ values[j] >= cuts[b], and
// tab[code(v)] == stride × SearchCuts(values, v) — ±Inf included
// (FuzzComboCellTable). Entries past the top bin's code are left as they were;
// no validated code reaches them.
func fillCellTable(tab *[256]uint32, values, cuts []float64, stride int) {
	tab[0] = 0
	for b, cut := range cuts {
		tab[b+1] = uint32(stats.SearchCuts(values, cut) * stride)
	}
	tab[len(cuts)+1] = uint32(len(values) * stride)
}

// comboScorer is one goroutine's scoring state: the shared, read-only
// target code and matrix, and its own cell tables and counters.
type comboScorer struct {
	pb   *gbdt.Prebinned
	code *stats.TargetCode

	tab  [3][256]uint32
	zero [256]uint32 // the table of a feature slot the combination does not use
	cnt  []int64
}

// score returns one combination's gain ratio. Whatever the arity, the scan
// reads three (code column, table) pairs — unused slots reread the first
// column through the all-zero table — so there is one loop for class codes
// and one for regression codes.
func (s *comboScorer) score(c *Combo) float64 {
	values := thinValues(c.Values)
	cells := 1
	for _, vs := range values {
		cells *= len(vs) + 1
	}
	if cells <= 1 {
		return 0
	}
	// Mixed-radix cell ids, first feature most significant, scaled by the
	// counters a cell holds.
	var col [3][]uint8
	var tab [3]*[256]uint32
	w := s.code.W
	stride := cells * w
	for i := range col {
		if i >= len(c.Features) {
			col[i], tab[i] = col[0], &s.zero
			continue
		}
		f := c.Features[i]
		stride /= len(values[i]) + 1
		fillCellTable(&s.tab[i], values[i], s.pb.Cuts[f], stride)
		col[i], tab[i] = s.pb.Codes[f], &s.tab[i]
	}
	q := s.code.Q
	n := len(q)
	c0, c1, c2 := col[0][:n], col[1][:n], col[2][:n]
	t0, t1, t2 := tab[0], tab[1], tab[2]
	s.cnt = zeroed(s.cnt, cells*w)
	cnt := s.cnt
	if s.code.Classes > 0 {
		for r, cl := range q {
			cnt[t0[c0[r]]+t1[c1[r]]+t2[c2[r]]+uint32(cl)]++
		}
	} else {
		q2 := s.code.Q2[:n]
		for r := range q {
			t := cnt[t0[c0[r]]+t1[c1[r]]+t2[c2[r]]:]
			t[0]++
			t[1] += q[r]
			t[2] += q2[r]
		}
	}
	return s.code.GainRatio(cnt)
}

// zeroed returns buf at length n, all zero, reallocating only to grow.
func zeroed(buf []int64, n int) []int64 {
	if cap(buf) < n {
		return make([]int64, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// thinValues reduces split-value sets so the partition stays under
// maxPartitionCells, keeping evenly spaced representatives (always the
// extremes).
func thinValues(values [][]float64) [][]float64 {
	out := make([][]float64, len(values))
	copy(out, values)
	cells := 1
	for _, vs := range out {
		cells *= len(vs) + 1
	}
	for cells > maxPartitionCells {
		// Halve the largest value set.
		argmax, maxLen := -1, 1
		for i, vs := range out {
			if len(vs) > maxLen {
				maxLen = len(vs)
				argmax = i
			}
		}
		if argmax < 0 {
			break
		}
		vs := out[argmax]
		keep := (len(vs) + 1) / 2
		thinned := make([]float64, 0, keep)
		for k := 0; k < keep; k++ {
			thinned = append(thinned, vs[k*len(vs)/keep])
		}
		cells = cells / (len(vs) + 1) * (len(thinned) + 1)
		out[argmax] = thinned
	}
	return out
}

// topCombos sorts combinations by gain ratio (descending, ties broken by
// feature indices for determinism) and returns the best gamma per arity
// bucket merged into one list (Algorithm 2's output P̃).
func topCombos(combos []Combo, gamma int) []Combo {
	sort.Slice(combos, func(i, j int) bool {
		if combos[i].GainRatio != combos[j].GainRatio {
			return combos[i].GainRatio > combos[j].GainRatio
		}
		return keyLess(keyOf(combos[i].Features), keyOf(combos[j].Features))
	})
	if gamma > 0 && len(combos) > gamma {
		combos = combos[:gamma]
	}
	return combos
}
