package sketch

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/stats"
)

// TestArenaRecycling pins the arena's reuse contract for every pooled kind:
// a returned object comes back on the next take of a compatible size, and
// everything handed out is logically fresh (sketches reset, accumulators
// zeroed) so reuse can never change a computed statistic.
func TestArenaRecycling(t *testing.T) {
	a := NewArena()

	// Quantile: pooled per size; handed back reset.
	q := a.Quantile(128)
	q.AddAll([]float64{3, 1, 2, math.NaN()})
	a.PutQuantile(q)
	q2 := a.Quantile(128)
	if q2 != q {
		t.Error("quantile of the pooled size not reused")
	}
	if q2.Count() != 0 || q2.NaNCount() != 0 {
		t.Errorf("pooled quantile not reset: count=%d nan=%d", q2.Count(), q2.NaNCount())
	}
	if a.Quantile(256) == q2 {
		t.Error("quantile reused across sizes")
	}
	if got := a.Quantile(0).Size(); got != DefaultSize {
		t.Errorf("Quantile(0) size = %d, want DefaultSize", got)
	}
	a.PutQuantile(nil) // no-op, must not panic

	// Floats / Int32s: first-fit by capacity, contents unspecified.
	f := a.Floats(100)
	if len(f) != 100 {
		t.Fatalf("Floats length %d", len(f))
	}
	a.PutFloats(f)
	f2 := a.Floats(50)
	if &f2[0] != &f[0] {
		t.Error("float slice not reused for a smaller request")
	}
	a.PutFloats(nil) // cap 0: dropped, must not panic

	is := a.Int32s(80)
	a.PutInt32s(is)
	if is2 := a.Int32s(80); &is2[0] != &is[0] {
		t.Error("int32 slice not reused")
	}
	a.PutInt32s(nil)

	// Gram: pooled per column count, zeroed on return.
	g := a.Gram(3)
	g.AddChunk([][]float64{{1, 2}, {3, 4}, {5, 6}})
	a.PutGram(g)
	g2 := a.Gram(3)
	if g2 != g {
		t.Error("gram of the pooled width not reused")
	}
	if g2.Rows() != 0 {
		t.Errorf("pooled gram not reset: rows=%d", g2.Rows())
	}
	if a.Gram(4) == g2 {
		t.Error("gram reused across widths")
	}
	a.PutGram(nil)
}

// TestArenaPoolBounds: the pools drop returns beyond their caps instead of
// growing without bound.
func TestArenaPoolBounds(t *testing.T) {
	a := NewArena()
	for i := 0; i < maxArenaQuants+10; i++ {
		a.PutQuantile(NewQuantile(64))
	}
	if n := len(a.quants[64]); n != maxArenaQuants {
		t.Errorf("quantile pool grew to %d, cap is %d", n, maxArenaQuants)
	}
	for i := 0; i < maxArenaSlices+10; i++ {
		a.PutFloats(make([]float64, 4))
		a.PutInt32s(make([]int32, 4))
		a.PutGram(NewGram(2))
	}
	if len(a.floats) != maxArenaSlices || len(a.int32s) != maxArenaSlices || len(a.grams) != maxArenaSlices {
		t.Errorf("slice pools grew past the cap: %d/%d/%d", len(a.floats), len(a.int32s), len(a.grams))
	}
}

// TestSortNonNaNMatchesSortFloat64s drives the radix path (length above
// radixMinN) over adversarial float distributions — mixed signs, infinities,
// zeros of both signs, heavy exponent skew, duplicates — and pins element-
// wise equality with sort.Float64s plus the exact NaN count.
func TestSortNonNaNMatchesSortFloat64s(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	gen := map[string]func(i int) float64{
		"uniform01":  func(int) float64 { return rng.Float64() },
		"mixedSigns": func(int) float64 { return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(13)-6)) },
		"skewedDup":  func(int) float64 { return float64(rng.Intn(4)) },
		"specials": func(i int) float64 {
			switch i % 7 {
			case 0:
				return math.NaN()
			case 1:
				return math.Inf(1)
			case 2:
				return math.Inf(-1)
			case 3:
				return math.Copysign(0, -1)
			case 4:
				return 0
			default:
				return rng.NormFloat64()
			}
		},
	}
	var s SortScratch
	for name, g := range gen {
		// Cover the comparison path (< radixMinN), the boundary, and sizes
		// needing all eight radix passes to cooperate.
		for _, n := range []int{0, 1, radixMinN - 1, radixMinN, 1000, 4096} {
			vs := make([]float64, n)
			nans := 0
			for i := range vs {
				vs[i] = g(i)
				if math.IsNaN(vs[i]) {
					nans++
				}
			}
			want := make([]float64, 0, n)
			for _, v := range vs {
				if !math.IsNaN(v) {
					want = append(want, v)
				}
			}
			sort.Float64s(want)

			got, gotNaN := SortNonNaN(vs, &s)
			if gotNaN != nans {
				t.Fatalf("%s n=%d: nan count %d, want %d", name, n, gotNaN, nans)
			}
			if len(got) != len(want) {
				t.Fatalf("%s n=%d: %d values, want %d", name, n, len(got), len(want))
			}
			for i := range want {
				gv, wv := got[i], want[i]
				// -0.0 and +0.0 compare equal but order differently between
				// the radix mapping and sort.Float64s; both orders are valid.
				if gv != wv && !(gv == 0 && wv == 0) {
					t.Fatalf("%s n=%d: position %d got %v want %v", name, n, i, gv, wv)
				}
			}
		}
	}
}

// TestQuantileTrimScratch: trimming drops the retained merge-phase scratch
// (free lists, bulk buffer, memoised merged summary) but never the logical
// content — ranks, counts and cuts answer identically after a trim, and the
// sketch keeps accepting values.
func TestQuantileTrimScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	q := NewQuantile(256)
	vals := make([]float64, 20000)
	for i := range vals {
		vals[i] = rng.NormFloat64()
	}
	q.AddAll(vals[:15000])

	before := make([]float64, 0, 9)
	for _, frac := range []int64{0, 1, 2, 3, 4} {
		before = append(before, q.RankValue(frac*q.Count()/5))
	}
	q.TrimScratch()
	for i, frac := range []int64{0, 1, 2, 3, 4} {
		if got := q.RankValue(frac * q.Count() / 5); got != before[i] {
			t.Fatalf("rank %d/5 changed across TrimScratch: %v -> %v", frac, before[i], got)
		}
	}
	// Still usable: counts keep folding and bounds stay sane.
	q.AddAll(vals[15000:])
	if q.Count() != 20000 {
		t.Fatalf("count after trim+add: %d", q.Count())
	}
	if q.ErrorBound() < 0 {
		t.Fatal("negative error bound")
	}
}

// TestQuantileReleasePoints: releasing the summary keeps exactly what the fit
// reads once a refiner has the brackets — Count, NaNCount, Min, Max,
// ErrorBound — the refiner opened beforehand still resolves exact cuts, a rank
// query on the emptied sketch is a loud bug rather than a wrong answer, and
// Reset hands back a fresh sketch.
func TestQuantileReleasePoints(t *testing.T) {
	xs := refTestColumn(20000, 29, "nan")
	q := NewQuantile(256)
	q.AddAll(xs)
	count, nan, min, max, bound := q.Count(), q.NaNCount(), q.Min(), q.Max(), q.ErrorBound()
	if bound == 0 {
		t.Fatal("sketch unexpectedly lossless; shrink the size")
	}
	ref := NewRefiner(q, CutRanks(count, 10))
	q.ReleasePoints()
	if q.Count() != count || q.NaNCount() != nan || q.Min() != min || q.Max() != max || q.ErrorBound() != bound {
		t.Fatalf("ReleasePoints changed the exact statistics: %d/%d/%v/%v/%d, want %d/%d/%v/%v/%d",
			q.Count(), q.NaNCount(), q.Min(), q.Max(), q.ErrorBound(), count, nan, min, max, bound)
	}
	ref.AddChunk(xs)
	if err := ref.Err(); err != nil {
		t.Fatal(err)
	}
	got, want := ExactCuts(q, ref, 10), stats.Quantiles(xs, 10)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("cuts off a released sketch's refiner: %v, want %v", got, want)
	}
	for name, use := range map[string]func(){
		"RankValue": func() { q.RankValue(count / 2) },
		"Merge":     func() { NewQuantile(256).Merge(q) },
		"encode":    func() { AppendQuantile(nil, q) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on a released sketch did not panic", name)
				}
			}()
			use()
		}()
	}
	q.Reset()
	q.AddAll(xs[:100])
	if q.Count() == 0 || math.IsNaN(q.RankValue(0)) {
		t.Fatal("a Reset sketch is not usable again")
	}
}
