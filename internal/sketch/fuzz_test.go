package sketch

import (
	"encoding/binary"
	"math"
	"sort"
	"testing"
)

// fuzzFloats decodes the fuzzer's byte string into float64 values (8 bytes
// each, little endian), capped so a pathological input cannot stall a run.
// Every bit pattern is admitted: NaNs, infinities, subnormals, and both
// zero signs all reach the sketch exactly as frame columns would.
func fuzzFloats(data []byte) []float64 {
	n := len(data) / 8
	if n > 512 {
		n = 512
	}
	vs := make([]float64, n)
	for i := range vs {
		vs[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[i*8:]))
	}
	return vs
}

// rankDist returns how far rank r falls outside the span of ranks value v
// occupies in the sorted (NaN-free) reference column — 0 when v is a valid
// nearest-rank answer for r.
func rankDist(sorted []float64, v float64, r int64) int64 {
	lo := int64(sort.SearchFloat64s(sorted, v)) // #values < v (v non-NaN)
	hi := int64(sort.Search(len(sorted), func(i int) bool { return sorted[i] > v }))
	if r < lo {
		return lo - r
	}
	if r >= hi {
		return r - hi + 1
	}
	return 0
}

// checkQuantile asserts one sketch's exact metadata and that every tested
// rank query lands within the sketch's own tracked error bound of the true
// nearest-rank value — the bracket guarantee the refinement pass builds on.
func checkQuantile(t *testing.T, tag string, q *Quantile, sorted []float64, nan int) {
	t.Helper()
	if q.Count() != int64(len(sorted)) {
		t.Fatalf("%s: Count = %d, want %d", tag, q.Count(), len(sorted))
	}
	if q.NaNCount() != int64(nan) {
		t.Fatalf("%s: NaNCount = %d, want %d", tag, q.NaNCount(), nan)
	}
	if len(sorted) == 0 {
		return
	}
	if min := sorted[0]; q.Min() != min {
		t.Fatalf("%s: Min = %v, want %v", tag, q.Min(), min)
	}
	if max := sorted[len(sorted)-1]; q.Max() != max {
		t.Fatalf("%s: Max = %v, want %v", tag, q.Max(), max)
	}
	bound := q.ErrorBound()
	if bound < 0 {
		t.Fatalf("%s: negative ErrorBound %d", tag, bound)
	}
	n := int64(len(sorted))
	for _, r := range []int64{0, n / 4, n / 2, 3 * n / 4, n - 1} {
		v := q.RankValue(r)
		if math.IsNaN(v) {
			t.Fatalf("%s: RankValue(%d) = NaN over %d values", tag, r, n)
		}
		if d := rankDist(sorted, v, r); d > bound {
			t.Fatalf("%s: RankValue(%d) = %v is %d ranks off (tracked bound %d)",
				tag, r, v, d, bound)
		}
	}
}

// FuzzQuantileMergeOrderInvariance drives the quantile sketch through every
// ingestion path the engines use — streamed Add, bulk AddAll, and the sharded
// SortNonNaN + AddSortedScratch pipeline — and through partition merges in
// opposite orders, asserting that each result preserves the exact metadata
// (count, NaN count, min, max) and honours its tracked rank-error bound.
// It also pins SortNonNaN against sort.Float64s on the same data.
func FuzzQuantileMergeOrderInvariance(f *testing.F) {
	f.Add([]byte("quantile sketches keep exact counts!!"), uint16(8), uint8(3))
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0xf8, 0x7f, 1, 2, 3, 4, 5, 6, 7, 8}, uint16(2), uint8(2))
	f.Add([]byte{}, uint16(0), uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, sz uint16, pn uint8) {
		vs := fuzzFloats(data)
		size := 2 + int(sz%510)
		parts := 1 + int(pn%4)

		sorted := make([]float64, 0, len(vs))
		for _, v := range vs {
			if !math.IsNaN(v) {
				sorted = append(sorted, v)
			}
		}
		nan := len(vs) - len(sorted)
		sort.Float64s(sorted)

		// The radix sort must agree with the comparison sort exactly.
		var srt SortScratch
		radix, radixNaN := SortNonNaN(vs, &srt)
		if radixNaN != nan || len(radix) != len(sorted) {
			t.Fatalf("SortNonNaN: %d values %d NaNs, want %d values %d NaNs",
				len(radix), radixNaN, len(sorted), nan)
		}
		for i, v := range radix {
			if v != sorted[i] && !(v == 0 && sorted[i] == 0) {
				t.Fatalf("SortNonNaN[%d] = %v, want %v", i, v, sorted[i])
			}
		}

		// Per-value streaming vs bulk load.
		qAdd := NewQuantile(size)
		for _, v := range vs {
			qAdd.Add(v)
		}
		checkQuantile(t, "Add", qAdd, sorted, nan)
		qBulk := NewQuantile(size)
		qBulk.AddAll(vs)
		checkQuantile(t, "AddAll", qBulk, sorted, nan)

		// Partition partials via the sharded pass's sorted path, merged
		// forward and backward: merge order may change the summary's
		// structure but never the metadata or the error-bound guarantee.
		chunks := splitParts(vs, parts)
		partials := make([]*Quantile, len(chunks))
		for i, c := range chunks {
			cs, cn := SortNonNaN(c, &srt)
			partials[i] = NewQuantile(size)
			partials[i].AddSortedScratch(cs, cn, &srt)
		}
		fwd := NewQuantile(size)
		for _, p := range partials {
			fwd.Merge(p)
		}
		checkQuantile(t, "merge-forward", fwd, sorted, nan)
		rev := NewQuantile(size)
		for i := len(partials) - 1; i >= 0; i-- {
			rev.Merge(partials[i])
		}
		checkQuantile(t, "merge-reverse", rev, sorted, nan)
		if fwd.Count() != rev.Count() || fwd.NaNCount() != rev.NaNCount() ||
			fwd.Min() != rev.Min() || fwd.Max() != rev.Max() {
			if !(len(sorted) == 0 && fwd.Count() == rev.Count()) {
				t.Fatalf("merge order changed metadata: fwd(%d,%d,%v,%v) rev(%d,%d,%v,%v)",
					fwd.Count(), fwd.NaNCount(), fwd.Min(), fwd.Max(),
					rev.Count(), rev.NaNCount(), rev.Min(), rev.Max())
			}
		}

		// Reset + reuse must behave like a fresh sketch (the arena contract).
		fwd.Reset()
		fwd.AddAll(vs)
		checkQuantile(t, "reset-reuse", fwd, sorted, nan)
	})
}

// FuzzHistMerge drives the mergeable criterion histograms the sharded
// selection stage folds across partitions: ClassHist counts must merge
// exactly (they are integral), and MomentHist's partition-parallel
// BinIDs+AddBinned replay must be bit-identical to the sequential pass,
// with Merge agreeing up to float regrouping.
func FuzzHistMerge(f *testing.F) {
	f.Add([]byte("histogram counts merge exactly, always"), uint8(5), uint8(3), uint8(2))
	f.Add([]byte{0x80, 0, 0, 0, 0, 0, 0xf0, 0x7f, 9, 9, 9, 9, 9, 9, 9, 9}, uint8(1), uint8(2), uint8(4))
	f.Fuzz(func(t *testing.T, data []byte, nc, kk, pn uint8) {
		vals := fuzzFloats(data)
		k := 2 + int(kk%5)
		parts := 1 + int(pn%4)

		// Cut points: distinct finite values drawn from the data itself,
		// ascending — the shape ExactCuts produces.
		uniq := map[float64]bool{}
		cuts := make([]float64, 0, int(nc%16))
		for _, v := range vals {
			if len(cuts) == cap(cuts) {
				break
			}
			if math.IsNaN(v) || math.IsInf(v, 0) || uniq[v] {
				continue
			}
			uniq[v] = true
			cuts = append(cuts, v)
		}
		sort.Float64s(cuts)

		// Labels: class indices for ClassHist, reused as continuous targets
		// for MomentHist. Derived from the same bytes, offset by one.
		labels := make([]float64, len(vals))
		for i := range labels {
			b := byte(0)
			if i+1 < len(data) {
				b = data[i+1]
			}
			labels[i] = float64(int(b) % (k + 1)) // includes out-of-range k
		}

		// ClassHist: sequential pass vs per-partition shadows merged in
		// reverse order — integral counts make the fold exact.
		seq := NewClassHist(cuts, k)
		seq.AddCol(vals, labels)
		merged := NewClassHist(cuts, k)
		var shadows []*ClassHist
		lo := 0
		for _, c := range splitParts(vals, parts) {
			sh := merged.Shadow()
			sh.AddCol(c, labels[lo:lo+len(c)])
			shadows = append(shadows, sh)
			lo += len(c)
		}
		for i := len(shadows) - 1; i >= 0; i-- {
			if err := merged.Merge(shadows[i]); err != nil {
				t.Fatalf("ClassHist.Merge: %v", err)
			}
		}
		for i := range seq.flat {
			if merged.flat[i] != seq.flat[i] {
				t.Fatalf("ClassHist count[%d] = %v merged, %v sequential", i, merged.flat[i], seq.flat[i])
			}
		}
		for c := range seq.nan {
			if merged.nan[c] != seq.nan[c] {
				t.Fatalf("ClassHist nan[%d] = %v merged, %v sequential", c, merged.nan[c], seq.nan[c])
			}
		}
		if mc, sc := merged.Criterion(), seq.Criterion(); mc != sc && !(math.IsNaN(mc) && math.IsNaN(sc)) {
			t.Fatalf("ClassHist criterion %v merged, %v sequential", mc, sc)
		}

		// MomentHist: the partition-parallel replay (BinIDs concurrently,
		// AddBinned folded in partition order) must reproduce the sequential
		// pass bit for bit — this is the sharded regression pass's exactness
		// contract.
		mseq := NewMomentHist(cuts)
		mseq.AddCol(vals, labels)
		mrep := NewMomentHist(cuts)
		lo = 0
		for _, c := range splitParts(vals, parts) {
			ids := make([]int32, len(c))
			mrep.BinIDs(c, ids)
			mrep.AddBinned(ids, labels[lo:lo+len(c)])
			lo += len(c)
		}
		for b := range mseq.cnt {
			if mrep.cnt[b] != mseq.cnt[b] {
				t.Fatalf("MomentHist cnt[%d] = %v replayed, %v sequential", b, mrep.cnt[b], mseq.cnt[b])
			}
			if math.Float64bits(mrep.sum[b]) != math.Float64bits(mseq.sum[b]) {
				t.Fatalf("MomentHist sum[%d] = %x replayed, %x sequential",
					b, math.Float64bits(mrep.sum[b]), math.Float64bits(mseq.sum[b]))
			}
			if math.Float64bits(mrep.sumsq[b]) != math.Float64bits(mseq.sumsq[b]) {
				t.Fatalf("MomentHist sumsq[%d] = %x replayed, %x sequential",
					b, math.Float64bits(mrep.sumsq[b]), math.Float64bits(mseq.sumsq[b]))
			}
		}
		if mrep.nanN != mseq.nanN {
			t.Fatalf("MomentHist nan = %v replayed, %v sequential", mrep.nanN, mseq.nanN)
		}

		// MomentHist.Merge regroups float sums, so counts stay exact and
		// sums agree to a relative tolerance.
		mmrg := NewMomentHist(cuts)
		lo = 0
		for _, c := range splitParts(vals, parts) {
			mp := NewMomentHist(cuts)
			mp.AddCol(c, labels[lo:lo+len(c)])
			lo += len(c)
			if err := mmrg.Merge(mp); err != nil {
				t.Fatalf("MomentHist.Merge: %v", err)
			}
		}
		for b := range mseq.cnt {
			if mmrg.cnt[b] != mseq.cnt[b] {
				t.Fatalf("MomentHist merged cnt[%d] = %v, want %v", b, mmrg.cnt[b], mseq.cnt[b])
			}
			if !closeEnough(mmrg.sum[b], mseq.sum[b]) {
				t.Fatalf("MomentHist merged sum[%d] = %v, want %v", b, mmrg.sum[b], mseq.sum[b])
			}
			if !closeEnough(mmrg.sumsq[b], mseq.sumsq[b]) {
				t.Fatalf("MomentHist merged sumsq[%d] = %v, want %v", b, mmrg.sumsq[b], mseq.sumsq[b])
			}
		}
	})
}

// closeEnough compares float sums that may have been regrouped: exact for
// specials, relative 1e-9 otherwise.
func closeEnough(a, b float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	if math.IsInf(a, 0) || math.IsInf(b, 0) {
		return a == b
	}
	diff := math.Abs(a - b)
	scale := math.Max(math.Abs(a), math.Abs(b))
	return diff <= 1e-9*math.Max(scale, 1)
}

// FuzzRefinerBracket drives the exact-cut path the sharded engine runs —
// budgeted per-partition partials merged into a larger sketch, ±ErrorBound
// brackets, per-partition gathers — over arbitrary bit patterns, sketch sizes
// from 2 up, partial budgets from the full size down to a single point, one
// to 64 partitions, and (asc) the column sorted first, so that contiguous
// partitions hold disjoint value ranges. Every bracket must contain its order
// statistic, Err must stay nil, and the cuts must equal stats.Quantiles: the
// containment property the ±ErrorBound bracket rests on.
func FuzzRefinerBracket(f *testing.F) {
	f.Add([]byte("brackets hold their order statistics, every one"), uint8(6), uint8(7), uint8(2), uint8(9), false)
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0xf8, 0x7f, 1, 2, 3, 4, 5, 6, 7, 8}, uint8(0), uint8(0), uint8(0), uint8(0), true)
	f.Fuzz(func(t *testing.T, data []byte, sz, div, pn, bn uint8, asc bool) {
		vs := fuzzFloats(data)
		if asc {
			sort.Float64s(vs) // NaNs first, then ascending
		}
		size := 2 + int(sz)
		budget := size / (1 + int(div%8))
		if budget < 1 {
			budget = 1
		}
		checkRefinedCuts(t, vs, 1+int(pn%64), size, budget, 2+int(bn%63))
	})
}
