package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// sortedQuantiles is the pre-optimisation reference implementation: full
// sort plus nearest-rank indexing. The selection-based Quantiles must agree
// exactly on every input.
func sortedQuantiles(xs []float64, q int) []float64 {
	if q < 2 {
		return nil
	}
	clean := make([]float64, 0, len(xs))
	for _, v := range xs {
		if !math.IsNaN(v) {
			clean = append(clean, v)
		}
	}
	if len(clean) == 0 {
		return nil
	}
	sort.Float64s(clean)
	cuts := make([]float64, 0, q-1)
	for k := 1; k < q; k++ {
		idx := k * len(clean) / q
		if idx >= len(clean) {
			idx = len(clean) - 1
		}
		cuts = append(cuts, clean[idx])
	}
	out := cuts[:0]
	for i, c := range cuts {
		if i == 0 || c != cuts[i-1] {
			out = append(out, c)
		}
	}
	return out
}

// columnGen names one column distribution of the exactness tables.
type columnGen struct {
	name string
	gen  func(n int) []float64
}

// columnGens lists the distributions the quantile kernel must be exact on:
// the well-behaved ones, and one for every way a sampled bucket grid can be
// given a bad range — heavy tails, a lone outlier, one dominant value,
// infinities, a sample that sees a single value, monotone input.
func columnGens(rng *rand.Rand) []columnGen {
	fill := func(f func(i, n int) float64) func(n int) []float64 {
		return func(n int) []float64 {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = f(i, n)
			}
			return xs
		}
	}
	return []columnGen{
		{"uniform", fill(func(i, n int) float64 { return rng.NormFloat64() })},
		{"duplicates", fill(func(i, n int) float64 { return float64(rng.Intn(5)) })},
		{"sorted", fill(func(i, n int) float64 { return float64(i) })},
		{"reversed", fill(func(i, n int) float64 { return float64(n - i) })},
		{"with-nans", fill(func(i, n int) float64 {
			if rng.Intn(4) == 0 {
				return math.NaN()
			}
			return rng.Float64() * 100
		})},
		{"constant", fill(func(i, n int) float64 { return 3.25 })},
		// A value range so narrow that buckets-per-unit overflows to +Inf.
		{"subnormal-span", fill(func(i, n int) float64 {
			return float64(rng.Intn(7)) * math.SmallestNonzeroFloat64
		})},
		// A ratio of two normals: tails that stretch [min, max] until a grid
		// over it holds the whole column in one or two buckets.
		{"cauchy-ratio", fill(func(i, n int) float64 { return rng.NormFloat64() / rng.NormFloat64() })},
		{"one-outlier", fill(func(i, n int) float64 {
			if i == n/3 {
				return 1e300
			}
			return rng.NormFloat64()
		})},
		{"mostly-one-value", fill(func(i, n int) float64 {
			if rng.Intn(10) == 0 {
				return rng.NormFloat64()
			}
			return 0
		})},
		{"inf-laced", fill(func(i, n int) float64 {
			switch rng.Intn(12) {
			case 0:
				return math.Inf(1)
			case 1:
				return math.Inf(-1)
			}
			return rng.NormFloat64()
		})},
		// Period equal to the sample stride: the sample sees one value.
		{"stride-periodic", fill(func(i, n int) float64 {
			stride := n / SampleSize
			if stride < 1 {
				stride = 1
			}
			if i%stride == 0 {
				return 5
			}
			return rng.NormFloat64()
		})},
	}
}

func TestQuantilesMatchesSortedReference(t *testing.T) {
	var scratch QuantileScratch
	for _, g := range columnGens(rand.New(rand.NewSource(7))) {
		for _, n := range []int{0, 1, 2, 5, 23, 100, 1000, 4096, 20000} {
			for _, q := range []int{2, 10, 64, 255} {
				xs := g.gen(n)
				want := sortedQuantiles(xs, q)
				got := scratch.Quantiles(append([]float64(nil), xs...), q)
				if len(got) != len(want) {
					t.Fatalf("%s n=%d q=%d: %d cuts, want %d", g.name, n, q, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%s n=%d q=%d: cut[%d]=%v want %v", g.name, n, q, i, got[i], want[i])
					}
				}
			}
		}
	}
}

func TestSearchCutsMatchesSortSearch(t *testing.T) {
	cuts := []float64{-3, -1, 0, 0.5, 2, 2, 7}
	for _, v := range []float64{-10, -3, -2, -1, -0.5, 0, 0.25, 0.5, 1, 2, 3, 7, 8} {
		want := sort.SearchFloat64s(cuts, v)
		if got := SearchCuts(cuts, v); got != want {
			t.Fatalf("SearchCuts(%v) = %d, want %d", v, got, want)
		}
	}
	if got := SearchCuts(nil, 1); got != 0 {
		t.Fatalf("SearchCuts(nil) = %d, want 0", got)
	}
}

func TestIVScratchMatchesAssignmentPath(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	var s IVScratch
	for trial := 0; trial < 30; trial++ {
		n := 50 + rng.Intn(500)
		feature := make([]float64, n)
		labels := make([]float64, n)
		for i := range feature {
			feature[i] = rng.NormFloat64()
			if rng.Intn(7) == 0 {
				feature[i] = math.NaN()
			}
			if rng.Float64() < 0.3+0.2*math.Tanh(feature[i]) {
				labels[i] = 1
			}
		}
		assign, nb := EqualFrequencyBins(feature, 10)
		want := ivFromAssignment(assign, nb, labels)
		got := s.InformationValue(feature, labels, 10)
		if math.Abs(got-want) > 1e-12 {
			t.Fatalf("trial %d: IVScratch %v != assignment path %v", trial, got, want)
		}
		wassign, wnb := EqualWidthBins(feature, 10)
		wwant := ivFromAssignment(wassign, wnb, labels)
		wgot := s.InformationValueWidth(feature, labels, 10)
		if math.Abs(wgot-wwant) > 1e-12 {
			t.Fatalf("trial %d: width IVScratch %v != assignment path %v", trial, wgot, wwant)
		}
	}
}

func TestSelectRanksPlacesOrderStatistics(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(2000)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(rng.Intn(n + 1))
		}
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		nRanks := 1 + rng.Intn(9)
		seen := map[int]bool{}
		ranks := []int{}
		for len(ranks) < nRanks {
			r := rng.Intn(n)
			if !seen[r] {
				seen[r] = true
				ranks = append(ranks, r)
			}
		}
		sort.Ints(ranks)
		selectRanks(xs, ranks)
		for _, r := range ranks {
			if xs[r] != sorted[r] {
				t.Fatalf("trial %d: rank %d has %v, want %v", trial, r, xs[r], sorted[r])
			}
		}
	}
}
