package sketch

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// TestArenaRecycling pins the arena's reuse contract for every pooled kind:
// a returned object comes back on the next take of a compatible size, and
// everything handed out is logically fresh (accumulators zeroed) so reuse
// can never change a computed statistic.
func TestArenaRecycling(t *testing.T) {
	a := NewArena()

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
