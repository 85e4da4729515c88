package sketch

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/stats"
)

// refTestColumn builds columns that stress the refiner: continuous spread,
// heavy duplicate runs, NaNs, and a globally ascending column — split into
// contiguous partitions its partials cover disjoint value ranges, the most a
// merged summary's ranks can drift from any one partition's.
func refTestColumn(n int, seed int64, kind string) []float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]float64, n)
	for i := range out {
		switch kind {
		case "duplicates":
			out[i] = math.Floor(rng.Float64() * 12) // 12 distinct values
		case "constant":
			out[i] = 3.25
		case "nan":
			if rng.Float64() < 0.1 {
				out[i] = math.NaN()
			} else {
				out[i] = rng.NormFloat64()
			}
		default:
			out[i] = rng.NormFloat64() * 50
		}
	}
	if kind == "sorted" {
		sort.Float64s(out)
	}
	return out
}

// checkRefinedCuts runs one column through the sharded engine's cut path —
// per-partition partials of size budget (SortNonNaN + AddSortedScratch) merged
// into a sketch of size size, a refiner over the bins-quantile targets,
// per-partition shadow gathers merged back — and holds it to the three things
// exact cuts rest on: every target's true order statistic lies inside its
// bracket, Err is nil once the gather is in, and ExactCuts equals
// stats.Quantiles.
func checkRefinedCuts(t *testing.T, xs []float64, nparts, size, budget, bins int) {
	t.Helper()
	parts := splitParts(xs, nparts)
	var srt SortScratch
	q := NewQuantile(size)
	for _, p := range parts {
		sorted, nan := SortNonNaN(p, &srt)
		part := NewQuantile(budget)
		part.AddSortedScratch(sorted, nan, &srt)
		q.Merge(part)
	}
	ranks := CutRanks(q.Count(), bins)
	ref := NewRefiner(q, ranks)
	bound := q.ErrorBound()

	clean := sortedClean(xs)
	_, lo, hi, _ := ref.Brackets()
	for i, rank := range ranks {
		if v := clean[rank]; v < lo[i] || v > hi[i] {
			t.Fatalf("target %d: order statistic %v at rank %d outside its bracket [%v, %v] (bound %d)",
				i, v, rank, lo[i], hi[i], bound)
		}
	}
	if ref.NeedsPass() {
		for _, p := range parts {
			sh := ref.Shadow()
			sh.AddChunk(p)
			ref.Merge(sh)
		}
	}
	if err := ref.Err(); err != nil {
		t.Fatalf("bound %d: %v", bound, err)
	}
	got, want := ExactCuts(q, ref, bins), stats.Quantiles(xs, bins)
	if len(got) != len(want) {
		t.Fatalf("%d cuts, want %d (bound %d)", len(got), len(want), bound)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("cut %d: got %v want %v (bound %d)", i, got[i], want[i], bound)
		}
	}
}

// TestRefinerExactCuts: a lossy sketch plus one refinement pass reproduces
// stats.Quantiles bit-for-bit, for every column shape, at every pairing of
// the fitter's sketch size with a partial budget equal to it or an eighth of
// it, from one partition to more partitions than a level holds partials.
func TestRefinerExactCuts(t *testing.T) {
	for _, kind := range []string{"normal", "duplicates", "constant", "nan", "sorted"} {
		xs := refTestColumn(20000, 11, kind)
		for _, size := range []int{64, 256, 1024, 8192} {
			for _, budget := range []int{size, size / 8} {
				for _, nparts := range []int{1, 3, 7, 64} {
					for _, bins := range []int{10, 64} {
						name := fmt.Sprintf("%s/size=%d/budget=%d/parts=%d/bins=%d", kind, size, budget, nparts, bins)
						t.Run(name, func(t *testing.T) { checkRefinedCuts(t, xs, nparts, size, budget, bins) })
					}
				}
			}
		}
	}
}

// TestRefinerErrOnNarrowBracket forges what a sketch understating its error
// bound would produce — brackets too narrow to hold their order statistics —
// and requires the typed error instead of a silently shifted cut.
func TestRefinerErrOnNarrowBracket(t *testing.T) {
	xs := refTestColumn(5000, 23, "normal")
	clean := sortedClean(xs)
	ranks := CutRanks(int64(len(clean)), 10)
	lo, hi := make([]float64, len(ranks)), make([]float64, len(ranks))
	for i, rank := range ranks {
		lo[i], hi[i] = clean[rank-20], clean[rank+20]
	}
	good := NewShadowRefiner(ranks, lo, hi, make([]bool, len(ranks)))
	good.AddChunk(xs)
	if err := good.Err(); err != nil {
		t.Fatalf("brackets that hold their order statistics: %v", err)
	}

	const bad = 3
	for _, forge := range []struct {
		name   string
		lo, hi float64
	}{
		{"bracket above the order statistic", clean[ranks[bad]+5], clean[ranks[bad]+40]},
		{"bracket below the order statistic", clean[ranks[bad]-40], clean[ranks[bad]-5]},
	} {
		flo, fhi := append([]float64(nil), lo...), append([]float64(nil), hi...)
		flo[bad], fhi[bad] = forge.lo, forge.hi
		r := NewShadowRefiner(ranks, flo, fhi, make([]bool, len(ranks)))
		r.AddChunk(xs)
		var be *BracketError
		if err := r.Err(); !errors.As(err, &be) {
			t.Fatalf("%s: Err = %v, want a *BracketError", forge.name, err)
		}
		if be.Target != bad || be.Rank != ranks[bad] {
			t.Fatalf("%s: error names target %d rank %d, want %d rank %d", forge.name, be.Target, be.Rank, bad, ranks[bad])
		}
		if v := r.Value(ranks[bad]); v != flo[bad] && v != fhi[bad] {
			t.Fatalf("%s: Value = %v, want a bracket edge", forge.name, v)
		}
	}
}

// TestRefinerMergeMatchesSequential: per-partition refiners merged give the
// same exact values as one refiner over all chunks.
func TestRefinerMergeMatchesSequential(t *testing.T) {
	xs := refTestColumn(30000, 13, "normal")
	parts := splitParts(xs, 4)
	q := NewQuantile(256)
	for _, p := range parts {
		s := NewQuantile(256)
		s.AddAll(p)
		q.Merge(s)
	}
	ranks := CutRanks(q.Count(), 32)

	seq := NewRefiner(q, ranks)
	for _, p := range parts {
		seq.AddChunk(p)
	}
	merged := NewRefiner(q, ranks)
	for i := len(parts) - 1; i >= 0; i-- { // merge in reverse partition order
		part := NewRefiner(q, ranks)
		part.AddChunk(parts[i])
		merged.Merge(part)
	}
	for _, r := range ranks {
		if seq.Value(r) != merged.Value(r) {
			t.Fatalf("rank %d: sequential %v vs merged %v", r, seq.Value(r), merged.Value(r))
		}
	}
}

// TestRefinerLosslessSkipsPass: a lossless sketch resolves every bracket
// without gathering.
func TestRefinerLosslessSkipsPass(t *testing.T) {
	xs := refTestColumn(4000, 17, "normal")
	q := NewQuantile(8192)
	q.AddAll(xs)
	if q.ErrorBound() != 0 {
		t.Fatal("expected lossless sketch")
	}
	ref := NewRefiner(q, CutRanks(q.Count(), 64))
	if ref.NeedsPass() {
		t.Fatal("lossless sketch should resolve every bracket immediately")
	}
	want := stats.Quantiles(xs, 64)
	got := ExactCuts(q, ref, 64)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("cut %d: got %v want %v", i, got[i], want[i])
		}
	}
}

func TestExactBinnerCutsDropsTrailingMax(t *testing.T) {
	xs := refTestColumn(10000, 19, "duplicates")
	q := NewQuantile(128)
	q.AddAll(xs)
	ref := NewRefiner(q, CutRanks(q.Count(), 64))
	if ref.NeedsPass() {
		ref.AddChunk(xs)
	}
	cuts := ExactBinnerCuts(q, ref, 64)
	for _, c := range cuts {
		if c >= q.Max() {
			t.Fatalf("binner cut %v not below max %v", c, q.Max())
		}
	}
}

func TestCutRanks(t *testing.T) {
	ranks := CutRanks(100, 10)
	want := []int64{10, 20, 30, 40, 50, 60, 70, 80, 90}
	if len(ranks) != len(want) {
		t.Fatalf("got %v want %v", ranks, want)
	}
	for i := range want {
		if ranks[i] != want[i] {
			t.Fatalf("got %v want %v", ranks, want)
		}
	}
	if CutRanks(0, 10) != nil || CutRanks(100, 1) != nil {
		t.Fatal("degenerate inputs should yield nil")
	}
	// Tiny n dedups collapsing ranks.
	if got := CutRanks(3, 10); len(got) >= 9 {
		t.Fatalf("expected deduplicated ranks for n=3, got %v", got)
	}
}

// ExactCuts reads stats.Quantiles(column, bins) off a sketch plus its
// completed refiner: rank targets and value deduplication as a sorted column
// gives them — the exactness contract the refiner's tests hold it to.
func ExactCuts(q *Quantile, r *Refiner, bins int) []float64 {
	ranks := CutRanks(q.Count(), bins)
	out := make([]float64, 0, len(ranks))
	for _, rank := range ranks {
		v := r.Value(rank)
		if m := len(out); m == 0 || out[m-1] != v {
			out = append(out, v)
		}
	}
	return out
}

// ExactBinnerCuts is ExactCuts with the trailing cut >= max dropped,
// mirroring the in-memory GBDT binner.
func ExactBinnerCuts(q *Quantile, r *Refiner, maxBins int) []float64 {
	cuts := ExactCuts(q, r, maxBins)
	if len(cuts) == 0 {
		return nil
	}
	if cuts[len(cuts)-1] >= q.Max() {
		cuts = cuts[:len(cuts)-1]
	}
	return cuts
}
