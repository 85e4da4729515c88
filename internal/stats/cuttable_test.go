package stats

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// TestCutTableResolvesEveryBinCount lays one cut table per column at the
// union of three bin counts, 64, 10 and 32, with the criterion at 10, as the
// out-of-core engine lays a column's table at its miner's, criterion's and
// ranker's counts; gathers it through the grid kernel's two scans; and
// resolves it, for a binary, a multiclass:3 and a regression code. The
// columns hold ties, NaNs, ±Inf, a point mass, a constant and no value at
// all. Every count's cuts must be Quantiles' bit for bit, the criterion's
// counters the in-memory kernel's at 10 bins, and the spans' rows, read off
// the table, must be what the span tallies count and, with the marked
// buckets' members, every non-NaN row. A constant column is resolved both
// as out of core, with nothing gathered, and through the zero Grid's one
// bucket, and the two must agree.
func TestCutTableResolvesEveryBinCount(t *testing.T) {
	const crit, n = 10, 3000
	bins := []int{64, crit, 32}
	rng := rand.New(rand.NewSource(44))
	col := func(fill func(i int) float64) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = fill(i)
		}
		return xs
	}
	columns := map[string][]float64{
		"normal": col(func(int) float64 { return rng.NormFloat64() }),
		"ties":   col(func(int) float64 { return float64(rng.Intn(7)) }),
		"NaNs": col(func(i int) float64 {
			if i%3 == 0 {
				return math.NaN()
			}
			return rng.ExpFloat64()
		}),
		"±Inf": col(func(i int) float64 {
			switch i % 29 {
			case 0:
				return math.Inf(1)
			case 1:
				return math.Inf(-1)
			}
			return rng.NormFloat64() / rng.NormFloat64()
		}),
		"point mass": col(func(int) float64 {
			if rng.Intn(5) > 0 {
				return 4.25
			}
			return rng.NormFloat64()
		}),
		"constant": col(func(int) float64 { return -1.5 }),
		"all NaN":  col(func(int) float64 { return math.NaN() }),
	}
	labels := col(func(int) float64 { return float64(rng.Intn(3)) })
	for name, xs := range columns {
		for _, code := range []*TargetCode{{Classes: 2, Binary: true}, {Classes: 3}, {}} {
			code.Encode(labels)
			tag := fmt.Sprintf("%s, %d classes", name, code.Classes)
			tab, got, rows := gatherTable(xs, code, crit, bins, false)

			var q QuantileScratch
			for _, b := range bins {
				if cuts, want := tab.AppendCuts(nil, b), Quantiles(xs, b); !sameBits(cuts, want) {
					t.Errorf("%s: cuts at %d bins %v, Quantiles %v", tag, b, cuts, want)
				}
			}
			_, want := q.cutsAndCounts(xs, code, crit)
			if rows == 0 {
				want = make([]int64, code.W) // no row, no cut: one empty bin
			}
			if !slices.Equal(got, want) {
				t.Errorf("%s: criterion counters %v, the in-memory kernel's %v", tag, got, want)
			}

			spans := tab.SpanRows(nil)
			if len(tab.Spans) != len(spans)*code.W {
				t.Fatalf("%s: %d span counters for %d spans", tag, len(tab.Spans), len(spans))
			}
			total := int64(0)
			for s, r := range spans {
				if c := code.Rows(tab.Spans[s*code.W : (s+1)*code.W]); c != r {
					t.Errorf("%s: span %d tallies %d rows, the table says %d", tag, s, c, r)
				}
				total += r
			}
			for j := range tab.Buckets {
				if _, size, _ := tab.Seg(j); tab.Crit[j] {
					total += int64(size)
				}
			}
			if total != int64(rows) {
				t.Errorf("%s: spans and marked buckets hold %d rows of %d", tag, total, rows)
			}

			if name == "constant" {
				ctab, cgot, _ := gatherTable(xs, code, crit, bins, true)
				if len(ctab.Vals) != 0 || !slices.Equal(cgot, got) {
					t.Errorf("%s: the constant resolve gathers %d values and counts %v; the zero Grid's %v", tag, len(ctab.Vals), cgot, got)
				}
				for _, b := range bins {
					if cuts, want := ctab.AppendCuts(nil, b), tab.AppendCuts(nil, b); !sameBits(cuts, want) {
						t.Errorf("%s: constant cuts at %d bins %v, the zero Grid's %v", tag, b, cuts, want)
					}
				}
			}
		}
	}
}

// gatherTable cuts xs through a cut table laid at crit and bins: the two
// scans on the grid the in-memory kernel lays for crit bins, the table laid
// between them, then resolved. It returns the table, the criterion's
// counters and the non-NaN rows. With constant, xs is taken to hold one
// value and cut as out of core: laid with no sizes, nothing gathered, the
// one span the whole column.
func gatherTable(xs []float64, code *TargetCode, crit int, bins []int, constant bool) (*CutTable, []int64, int) {
	var s QuantileScratch
	g, _ := s.sampleGrid(xs, crit)
	nb, w := g.Buckets(), code.W
	counts, rowB := make([]int64, nb*w), make([]int16, len(xs))
	n := g.BucketRows(rowB, counts, xs, code)
	sizes := make([]int32, nb)
	for b := range sizes {
		sizes[b] = int32(code.Rows(counts[b*w : (b+1)*w]))
	}
	tab := new(CutTable)
	if constant {
		tab.Lay(nil, n, code, crit, bins...)
		for b := 0; b < nb; b++ {
			addCounters(tab.Spans, counts[b*w:], w)
		}
		return tab, tab.ResolveConstant(xs[0], code), n
	}
	tab.Lay(sizes, n, code, crit, bins...)
	var plan GatherPlan
	plan.Reset(nb, tab.Buckets, tab.Crit)
	vpos, cpos := make([]int, len(tab.Buckets)), make([]int, len(tab.Buckets))
	for j := range tab.Buckets {
		vpos[j], _, cpos[j] = tab.Seg(j)
	}
	plan.SpanTallies(tab.Spans, counts, w)
	plan.File(tab.Vals, tab.Codes, vpos, cpos, rowB, xs, code.Q)
	return tab, tab.Resolve(code), n
}

// sameBits reports whether two float slices hold the same bits.
func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}
