package sketch

import (
	"math"
	"sort"
	"testing"
)

// blockStats computes what a columnar store records per block.
func blockStats(vals []float64) (mn, mx float64, nonNaN int64) {
	mn, mx = math.NaN(), math.NaN()
	for _, v := range vals {
		if math.IsNaN(v) {
			continue
		}
		if nonNaN == 0 || v < mn {
			mn = v
		}
		if nonNaN == 0 || v > mx {
			mx = v
		}
		nonNaN++
	}
	return mn, mx, nonNaN
}

// TestRefinerSkipBucketEquivalence pins the block-skipping contract: for
// any block whose min/max SkipBucket accepts, folding the block in as a
// single AddOutside count yields bit-identical refined values to streaming
// the block through AddChunk. Sorted data makes block ranges tight, so a
// real fraction of blocks must skip for the test to mean anything.
func TestRefinerSkipBucketEquivalence(t *testing.T) {
	for _, kind := range []string{"normal", "duplicates", "nan"} {
		xs := refTestColumn(50000, 19, kind)
		// Cluster: sort ascending (NaNs at the end) so most blocks span a
		// narrow value range — the layout block skipping is designed for.
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		const blockRows = 500
		var blocks [][]float64
		for off := 0; off < len(sorted); off += blockRows {
			end := off + blockRows
			if end > len(sorted) {
				end = len(sorted)
			}
			blocks = append(blocks, sorted[off:end])
		}

		q := NewQuantile(512) // lossy: brackets stay open, refinement is real
		q.AddAll(sorted)
		ranks := CutRanks(q.Count(), 16)

		full := NewRefiner(q, ranks)
		for _, b := range blocks {
			full.AddChunk(b)
		}

		skipping := NewRefiner(q, ranks)
		skipped := 0
		for _, b := range blocks {
			mn, mx, nonNaN := blockStats(b)
			if nonNaN == 0 {
				skipped++ // all-NaN block contributes nothing
				continue
			}
			if bucket, ok := skipping.SkipBucket(mn, mx); ok {
				skipping.AddOutside(bucket, nonNaN)
				skipped++
				continue
			}
			skipping.AddChunk(b)
		}
		// Duplicate-heavy data can legitimately refuse everything (the few
		// distinct values sit on bracket edges); the smooth distribution
		// must skip a real fraction or the test exercises nothing.
		if kind == "normal" && skipped < len(blocks)/2 {
			t.Fatalf("%s: only %d/%d blocks skippable", kind, skipped, len(blocks))
		}
		t.Logf("%s: skipped %d/%d blocks", kind, skipped, len(blocks))

		for _, r := range ranks {
			if math.Float64bits(full.Value(r)) != math.Float64bits(skipping.Value(r)) {
				t.Fatalf("%s rank %d: full %v vs skipping %v", kind, r, full.Value(r), skipping.Value(r))
			}
		}
	}
}

// TestSkipBucketRefusals pins the guard rails: NaN stats, a range touching
// a bracket, and a range spanning bracket boundaries must all refuse.
func TestSkipBucketRefusals(t *testing.T) {
	xs := refTestColumn(20000, 7, "normal")
	q := NewQuantile(256)
	q.AddAll(xs)
	ranks := CutRanks(q.Count(), 16)
	r := NewRefiner(q, ranks)
	if !r.NeedsPass() {
		t.Skip("sketch resolved losslessly; refusal paths unreachable")
	}

	if _, ok := r.SkipBucket(math.NaN(), math.NaN()); ok {
		t.Fatal("NaN stats accepted")
	}
	// A block spanning the full data range overlaps every bracket.
	mn, mx, _ := blockStats(xs)
	if _, ok := r.SkipBucket(mn, mx); ok {
		t.Fatal("full-range block accepted")
	}
	// A block sitting exactly on an open bracket's lo must refuse: values
	// equal to lo are part of the gather.
	for i, res := range r.resolved {
		if !res {
			if _, ok := r.SkipBucket(r.lo[i], r.lo[i]); ok {
				t.Fatalf("block pinned to open bracket lo %v accepted", r.lo[i])
			}
			break
		}
	}
}
