package stats

import "slices"

// CutTable is one column's cut table: the step between the grid kernel's two
// scans (Grid.BucketRows, GatherPlan.File) and the step after them, which
// both engines take through it — in memory QuantileScratch.cutsAndCounts, out
// of core the shard fitter across its count and gather passes.
//
//   - Lay takes, from the grid's bucket sizes, the union of the nearest ranks
//     of every bin count the column is cut at, finds each rank's bucket, and
//     marks the cut buckets that hold one of the criterion's ranks. Buckets
//     and Crit are what GatherPlan.Reset lays the second scan's plan from.
//     Every cut bucket gets a segment of Vals for its members and every
//     marked one a segment of Codes for their target codes (Seg); Spans holds
//     the code's counters of each run of buckets between marked ones.
//   - Resolve selects every rank exactly among its bucket's members and
//     tallies the criterion's bins; ResolveConstant is its form for a column
//     of one value, which gathers nothing.
//   - AppendCuts reads the cuts at any bin count the table was laid at off
//     the resolved ranks, and SpanRows each span's rows off the ranks alone.
//
// The zero value is ready to use, and laying a table again reuses its
// backings.
type CutTable struct {
	Buckets []int     // the cut buckets, ascending
	Crit    []bool    // Crit[j]: cut bucket j holds a criterion rank
	Vals    []float64 // the cut buckets' members, bucket by bucket
	Codes   []int64   // the marked buckets' members' codes, in the same order
	Spans   []int64   // W counters for each run of buckets between marked ones

	n     int
	ranks []int     // the nearest ranks of every bin count laid, ascending
	crit  []bool    // crit[i]: ranks[i] is one of the criterion's
	local []int     // ranks[i]'s offset in its bucket
	at    []float64 // ranks[i]'s value, once resolved
	segs  []cutSeg  // one per cut bucket
	sel   []float64 // a marked bucket's members, copied to select on
	cuts  []float64 // the criterion's cuts
	ends  []int     // how many of them the first j+1 marked buckets hold
	bins  []int64   // the criterion's per-bin counters
}

// cutSeg is a cut bucket's place in the table: its ranks,
// ranks[first:first+count]; its members, Vals[start:start+size]; and, when it
// is marked, their codes, Codes[code:code+size] (−1 when it is not).
type cutSeg struct{ first, count, start, size, code int }

// cutRank is the nearest rank of the k-th q-quantile of n values (0 < k < q),
// the rank Quantiles reads: k·n/q, which is below n.
func cutRank(k, n, q int) int { return k * n / q }

// Lay lays the table out for a column of n non-NaN values of which sizes[b]
// lie in grid bucket b: the ranks of the criterion's bin count crit and of
// every count in bins, their buckets, and the segments of the gather. A nil
// code has no criterion (crit is one more bin count, and nothing is coded or
// tallied); nil sizes place no rank, as for a constant column.
func (t *CutTable) Lay(sizes []int32, n int, code *TargetCode, crit int, bins ...int) {
	room := max(crit-1, 0)
	for _, q := range bins {
		room += max(q-1, 0)
	}
	t.n = n
	t.ranks = t.appendRanks(grown(t.ranks, room)[:0], crit)
	for _, q := range bins {
		t.ranks = t.appendRanks(t.ranks, q)
	}
	slices.Sort(t.ranks)
	t.ranks = slices.Compact(t.ranks)
	nr := len(t.ranks)
	t.crit, t.local, t.at = grown(t.crit, room)[:nr], grown(t.local, room)[:nr], grown(t.at, room)[:nr]
	k := 1
	for i, r := range t.ranks {
		for k < crit && cutRank(k, n, crit) < r {
			k++
		}
		t.crit[i] = code != nil && k < crit && cutRank(k, n, crit) == r
	}

	// Ranks are ascending, so one cumulative scan over the buckets places them
	// all; a rank at or past the counted rows is left unplaced.
	t.segs, t.Buckets, t.Crit = grown(t.segs, room)[:0], grown(t.Buckets, room)[:0], grown(t.Crit, room)[:0]
	cum, ri, vals, codes, marked, most := 0, 0, 0, 0, 0, 0
	for b := 0; b < len(sizes) && ri < nr; b++ {
		c := int(sizes[b])
		sg := cutSeg{first: ri, start: vals, size: c, code: -1}
		mark := false
		for ri < nr && t.ranks[ri] < cum+c {
			t.local[ri] = t.ranks[ri] - cum
			mark = mark || t.crit[ri]
			ri++
		}
		cum += c
		if sg.count = ri - sg.first; sg.count == 0 {
			continue
		}
		if mark {
			sg.code = codes
			codes += c
			marked++
			most = max(most, c)
		}
		t.segs = append(t.segs, sg)
		t.Buckets = append(t.Buckets, b)
		t.Crit = append(t.Crit, mark)
		vals += c
	}
	t.Vals, t.Codes, t.sel = grown(t.Vals, vals), grown(t.Codes, codes), grown(t.sel, most)
	t.Spans = t.Spans[:0]
	if code != nil {
		t.Spans = zeroed(t.Spans, (marked+1)*code.W)
	}
}

// appendRanks appends the nearest ranks of a q-bin cut of the table's n
// values to dst (none when q < 2 or n is 0).
func (t *CutTable) appendRanks(dst []int, q int) []int {
	for k := 1; k < q && t.n > 0; k++ {
		dst = append(dst, cutRank(k, t.n, q))
	}
	return dst
}

// Seg is cut bucket j's place in the gather: its size members go to
// Vals[start:] and, when it is marked, their codes to Codes[code:] (code is −1
// when it is not) — GatherPlan.File's cursors, and a fold's bounds.
func (t *CutTable) Seg(j int) (start, size, code int) {
	sg := t.segs[j]
	return sg.start, sg.size, sg.code
}

// SpanRows appends each span's rows to dst: those of the buckets between two
// marked ones, read off the ranks — a cut bucket's rows start at its first
// rank less that rank's offset in it.
func (t *CutTable) SpanRows(dst []int64) []int64 {
	lo := 0
	for _, sg := range t.segs {
		if sg.code >= 0 {
			begin := t.ranks[sg.first] - t.local[sg.first]
			dst = append(dst, int64(begin-lo))
			lo = begin + sg.size
		}
	}
	return append(dst, int64(t.n-lo))
}

// Resolve resolves the gathered table: multi-rank selection over each cut
// bucket's members gives every rank its exact value — in place, or on a copy
// where codes are paired with the members. With the code the table was laid
// with, it then returns the criterion's per-bin counters (bins[b·W:]; nil for
// a nil code): a span lies in one bin, the one above every cut of the marked
// buckets below it, and a marked bucket's member is placed by comparison
// with that bucket's own cuts — a cut in another bucket is below or above
// every member by monotonicity. The counters alias the table.
func (t *CutTable) Resolve(code *TargetCode) []int64 {
	for _, sg := range t.segs {
		seg := t.Vals[sg.start : sg.start+sg.size]
		if sg.code >= 0 {
			seg = append(t.sel[:0], seg...)
		}
		loc := t.local[sg.first : sg.first+sg.count]
		selectRanks(seg, loc)
		for i, r := range loc {
			t.at[sg.first+i] = seg[r]
		}
	}
	if code == nil {
		return nil
	}
	// The criterion's cuts, marked bucket by marked bucket: equal values share
	// a bucket, so dropping a repeat of the last cut is the global
	// deduplication.
	t.cuts, t.ends = t.cuts[:0], t.ends[:0]
	for _, sg := range t.segs {
		if sg.code < 0 {
			continue
		}
		for i := sg.first; i < sg.first+sg.count; i++ {
			if v := t.at[i]; t.crit[i] && (len(t.cuts) == 0 || v != t.cuts[len(t.cuts)-1]) {
				t.cuts = append(t.cuts, v)
			}
		}
		t.ends = append(t.ends, len(t.cuts))
	}
	w := code.W
	t.bins = zeroed(t.bins, (len(t.cuts)+1)*w)
	lo, s := 0, 0
	for _, sg := range t.segs {
		if sg.code < 0 {
			continue
		}
		addCounters(t.bins[lo*w:], t.Spans[s*w:], w)
		hi := t.ends[s]
		for p := 0; p < sg.size; p++ {
			b := lo + SearchCuts(t.cuts[lo:hi], t.Vals[sg.start+p])
			code.Add(t.bins[b*w:][:w], t.Codes[sg.code+p])
		}
		lo, s = hi, s+1
	}
	addCounters(t.bins[lo*w:], t.Spans[s*w:], w)
	return t.bins
}

// ResolveConstant is Resolve for a column whose every value is v, laid with
// no sizes and a code: it gathers nothing, every rank is v, and the
// criterion's one cut, v, has every row — the one span — in the bin at or
// below it. It is what the zero Grid's one bucket resolves to.
func (t *CutTable) ResolveConstant(v float64, code *TargetCode) []int64 {
	for i := range t.at {
		t.at[i] = v
	}
	t.bins = zeroed(t.bins, 2*code.W)
	copy(t.bins, t.Spans)
	return t.bins
}

// addCounters adds w counters of src to dst.
func addCounters(dst, src []int64, w int) {
	for c, v := range src[:w] {
		dst[c] += v
	}
}

// AppendCuts appends the resolved column's cuts at q bins to dst — the
// values at q's nearest ranks, repeats dropped: Quantiles' cuts. q must be a
// bin count the table was laid at.
func (t *CutTable) AppendCuts(dst []float64, q int) []float64 {
	start, i := len(dst), 0
	for k := 1; k < q && t.n > 0; k++ {
		for r := cutRank(k, t.n, q); t.ranks[i] != r; {
			i++
		}
		if v := t.at[i]; len(dst) == start || dst[len(dst)-1] != v {
			dst = append(dst, v)
		}
	}
	return dst
}

// Release lets go of the gather and the working buffers, keeping what
// AppendCuts reads: a table held for its cuts after Resolve. The counters
// Resolve returned stay valid.
func (t *CutTable) Release() {
	*t = CutTable{n: t.n, ranks: t.ranks, at: t.at}
}
