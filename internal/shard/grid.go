package shard

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/core"
	"repro/internal/frame"
	"repro/internal/operators"
	"repro/internal/sketch"
	"repro/internal/stats"
	"repro/internal/wire"
)

// This file cuts every column exactly, out of core, on the in-memory
// quantile kernel's grid and with its very functions, split across the pass
// seam: the count pass counts each bucket (stats.Grid.Count), the fitter lays
// the column's cut table (stats.CutTable), and the gather pass runs the
// kernel's two scans on every chunk (stats.Grid.BucketRows, then
// stats.GatherPlan.File). The source columns go through the two passes once,
// before the first round; each round's generated candidates go through them
// again.
//
//   - The base pass keeps a row sample: the stats.SampleSize rows with the
//     smallest sampleKey of their global row index, the same rows for any
//     partitioning, and each source column's moments, whose non-NaN count the
//     count pass is held to. The fitter reads a source column's values at the
//     sample off it, evaluates a candidate there through the live program and
//     core.Apply, and lays stats.SampleGrid over the result.
//   - The count pass (PassSketchGen) returns, per column and chunk, its
//     non-NaN values per bucket of that grid and their range (GridCounts). A
//     source column's counts add up to the chunk's non-NaN rows, as the base
//     pass reported them; a generated column holds no NaN (core.Apply
//     sanitises it), so its counts add up to the chunk's rows. The fitter adds
//     them up and lays the cut table at the miner's, the criterion's and the
//     ranker's bin counts: the bucket of every rank a cut of the column can
//     ask for, and which of them hold a criterion rank. A generated column's
//     moments, which only the Pearson stage reads, are left to the Gram pass,
//     which regenerates just the survivors.
//   - The gather pass (PassRefine) returns the values in those cut buckets
//     (Gather), the target code of each value in a bucket holding a
//     criterion cut, and the counters of the runs of buckets between them.
//     The fit's stats.TargetCode, which the kernel rebuilds on its chunk's
//     labels, says what a row adds (class counts for a count task; rows, Σq
//     and Σq2 for regression) and checks what a peer sends. The fitter files
//     the gathers into the cut table and resolves it (CutTable.Resolve):
//     every rank selected exactly and the codes binned, the cuts and the
//     criterion tallies in-memory fitting gives, bit for bit — integers, so
//     the order the partitions arrive in does not matter. Every cut of the
//     column is read off the resolved table (CutTable.AppendCuts). A live
//     column keeps the criterion it was first counted with: its values,
//     labels and cuts do not change between rounds.
//
// A column whose sample has no usable range gets the zero Grid: the whole
// column is one bucket, as in the in-memory kernel. A constant column
// gathers nothing: once the count pass has seen its range close to one
// value, every rank is that value (CutTable.ResolveConstant). A column that is mostly one value but not
// all of it (a point mass that the sample's trimmed range collapses onto) is
// gathered whole, so its gather pass ships every non-NaN value of it.

// The errors the two grid folds answer peer bytes with, each wrapped in a
// positioned "shard: … partial N …" error: a wrong count or a wrong gather
// stops the pass instead of becoming a wrong cut.
var (
	// ErrGridCounts: a column's bucket counts do not sum to the partial's
	// rows (a source column's: its non-NaN rows), or are not one grid's worth.
	ErrGridCounts = errors.New("bucket counts do not add up to the partial's rows")
	// ErrGatherSize: a gather holds more values for a cut bucket than the
	// count pass found in it, or — once every partition is in — fewer, or
	// span tallies that do not match the buckets they cover.
	ErrGatherSize = errors.New("gather size differs from the counts of its buckets")
	// ErrGatherBucket: a gathered value lies outside the bucket it is filed
	// under.
	ErrGatherBucket = errors.New("gathered value outside its bucket")
	// ErrClassID: a member's target code outside the task's codes — a class
	// id at or above the class count, or a regression code beyond the
	// target code's range.
	ErrClassID = errors.New("target code outside the task's codes")
	// ErrBlob: a grid, gather or sample blob that is truncated or malformed.
	ErrBlob = errors.New("truncated or malformed blob")
)

// sampleKey orders rows for the row sample: splitmix64's finaliser over the
// global row index — a fixed bijection, so keys never tie and the sample is
// a function of the row indices alone.
func sampleKey(row int) uint64 {
	z := uint64(row) + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// sampleRows returns the rows of [start, start+n) that a bottom-k sample of
// them holds: the min(n, stats.SampleSize) with the smallest keys, in key
// order.
func sampleRows(start, n int) []int {
	rows := make([]int, n)
	for i := range rows {
		rows[i] = start + i
	}
	slices.SortFunc(rows, func(a, b int) int {
		ka, kb := sampleKey(a), sampleKey(b)
		switch {
		case ka < kb:
			return -1
		case ka > kb:
			return 1
		}
		return 0
	})
	return rows[:min(n, stats.SampleSize)]
}

// RowSample is a bottom-k row sample: Rows in ascending sampleKey order and,
// column-major, every source column's value at each (Vals[j][i] is column j
// at Rows[i]).
type RowSample struct {
	Rows []int
	Vals [][]float64
}

// chunkSample is the base pass's sample of one chunk.
func chunkSample(cols [][]float64, start, n int) *RowSample {
	s := &RowSample{Rows: sampleRows(start, n), Vals: make([][]float64, len(cols))}
	for j, col := range cols {
		s.Vals[j] = make([]float64, len(s.Rows))
		for i, r := range s.Rows {
			s.Vals[j][i] = col[r-start]
		}
	}
	return s
}

// merge returns the bottom-k of s and o together (s may be nil).
func (s *RowSample) merge(o *RowSample) *RowSample {
	if s == nil {
		return o
	}
	out := &RowSample{Vals: make([][]float64, len(s.Vals))}
	type src struct {
		from *RowSample
		i    int
	}
	var picks []src
	i, j := 0, 0
	for len(picks) < stats.SampleSize && (i < len(s.Rows) || j < len(o.Rows)) {
		if j == len(o.Rows) || (i < len(s.Rows) && sampleKey(s.Rows[i]) < sampleKey(o.Rows[j])) {
			picks = append(picks, src{s, i})
			i++
		} else {
			picks = append(picks, src{o, j})
			j++
		}
	}
	out.Rows = make([]int, len(picks))
	for k, p := range picks {
		out.Rows[k] = p.from.Rows[p.i]
	}
	for c := range out.Vals {
		out.Vals[c] = make([]float64, len(picks))
		for k, p := range picks {
			out.Vals[c][k] = p.from.Vals[c][p.i]
		}
	}
	return out
}

// WireSize and AppendWire are the sample's blob: the rows as an int list,
// then the column count and each column as a float list.
func (s *RowSample) WireSize() int { return 4 + 8*len(s.Rows) + 4 + len(s.Vals)*(4+8*len(s.Rows)) }

// AppendWire appends WireSize bytes.
func (s *RowSample) AppendWire(b []byte) []byte {
	b = wire.AppendInts(b, s.Rows)
	b = wire.AppendU32(b, uint32(len(s.Vals)))
	for _, col := range s.Vals {
		b = wire.AppendF64s(b, col)
	}
	return b
}

func decodeRowSample(b []byte) (*RowSample, error) {
	r := wire.NewReader(b)
	s := &RowSample{Rows: r.Ints()}
	s.Vals = make([][]float64, r.Len(4))
	for j := range s.Vals {
		s.Vals[j] = r.F64s(nil)
	}
	return s, blobDone(&r)
}

// blobDone is ErrBlob unless the blob parsed whole.
func blobDone(r *wire.Reader) error {
	if r.Failed() || len(r.Rest()) != 0 {
		return ErrBlob
	}
	return nil
}

// checkSample holds a partition's sample to the rows it must hold: the
// bottom-k of the partial's row span, with a value per source column at each.
func checkSample(p *Partial, cols int) error {
	s := p.Sample
	if s == nil || len(s.Vals) != cols {
		return fmt.Errorf("shard: base-sketch partial %d carries no sample of its %d columns", p.Chunk, cols)
	}
	if !slices.Equal(s.Rows, sampleRows(p.Start, p.Rows)) {
		return fmt.Errorf("shard: base-sketch partial %d samples rows that are not its bottom %d", p.Chunk, stats.SampleSize)
	}
	for _, col := range s.Vals {
		if len(col) != len(s.Rows) {
			return fmt.Errorf("shard: base-sketch partial %d samples %d values of %d rows", p.Chunk, len(col), len(s.Rows))
		}
	}
	return nil
}

// GridSpec is one column of the two grid passes, named as an EntrySpec names
// one — live column Base, or, when Base is negative, the generated recipe Gen
// — and the grid its values are bucketed on: the zero Grid when its sample had
// no usable range, and then the whole column is bucket 0 of one. In the
// gather pass, Buckets lists the cut buckets (ascending) and IV marks those
// that hold a criterion cut.
type GridSpec struct {
	Base    int
	Gen     GenSpec
	Grid    stats.Grid
	Buckets []int
	IV      []bool
}

// check holds a spec that may be a peer's to what the kernels index by: a
// valid grid or none and, in the gather pass, ascending cut buckets inside it
// with one IV mark each.
func (g *GridSpec) check(gather bool) error {
	if g.Grid != (stats.Grid{}) && !g.Grid.Valid() {
		return fmt.Errorf("shard: grid %+v is not a grid", g.Grid)
	}
	if !gather {
		return nil
	}
	for j, b := range g.Buckets {
		if b < 0 || b >= g.Grid.Buckets() || (j > 0 && b <= g.Buckets[j-1]) {
			return fmt.Errorf("shard: cut bucket %d of %d is not ascending inside the grid", b, g.Grid.Buckets())
		}
	}
	if len(g.IV) != len(g.Buckets) {
		return fmt.Errorf("shard: %d criterion marks for %d cut buckets", len(g.IV), len(g.Buckets))
	}
	return nil
}

// GridCounts is one column's count-pass partial: its non-NaN values' range,
// and how many fall in each bucket of its grid (nil for a column without
// one).
type GridCounts struct {
	Min, Max float64
	Counts   []int32
}

// WireSize is the exact length of AppendWire's output.
func (g *GridCounts) WireSize() int {
	n := 16 + wire.UvarintSize(uint64(len(g.Counts)))
	for _, c := range g.Counts {
		n += wire.UvarintSize(uint64(c))
	}
	return n
}

// AppendWire appends the range and the counts, each a varint: most buckets
// of a chunk hold a few rows.
func (g *GridCounts) AppendWire(b []byte) []byte {
	b = wire.AppendF64(b, g.Min)
	b = wire.AppendF64(b, g.Max)
	b = wire.AppendUvarint(b, uint64(len(g.Counts)))
	for _, c := range g.Counts {
		b = wire.AppendUvarint(b, uint64(c))
	}
	return b
}

// minGridBlob is the shortest blob that can hold a grid's counts: the range,
// the count of counts, and a byte a bucket.
var minGridBlob = 16 + wire.UvarintSize(stats.NumBuckets) + stats.NumBuckets

// decodeGridCounts decodes a GridCounts blob, its counts into the front of
// slab.
func decodeGridCounts(b []byte, slab []int32) (GridCounts, error) {
	r := wire.NewReader(b)
	g := GridCounts{Min: r.F64(), Max: r.F64()}
	n := r.Uvarint()
	if n != 0 && (n != stats.NumBuckets || len(slab) < stats.NumBuckets) {
		return g, ErrBlob
	}
	if n > 0 {
		g.Counts = slab[:n:n]
		for i := range g.Counts {
			c := r.Uvarint()
			if c > math.MaxInt32 {
				r.Fail()
			}
			g.Counts[i] = int32(c)
		}
	}
	return g, blobDone(&r)
}

// Gather is one column's gather-pass partial: the chunk's values in the
// column's cut buckets, bucket by bucket (Sizes[j] of them in cut bucket
// j); the target code of every value in a criterion cut bucket (Codes, in
// the same order); and, the target code's W counters a run, the tallies of
// the runs of buckets between criterion cut buckets (Spans).
type Gather struct {
	Sizes []int32
	Vals  []float64
	Codes []int64
	Spans []int64
}

// WireSize is the exact length of AppendWire's output.
func (g *Gather) WireSize() int {
	return varintsSize(g.Sizes) + 8*len(g.Vals) + varintsSize(g.Codes) + varintsSize(g.Spans)
}

func varintsSize[T int32 | int64](vs []T) int {
	n := wire.UvarintSize(uint64(len(vs)))
	for _, v := range vs {
		n += wire.UvarintSize(uint64(v))
	}
	return n
}

// AppendWire appends the sizes, the values (raw bits, as many as the sizes
// add up to), the codes and the span tallies: each list a count and its
// values as the varints of their two's-complement bits (a negative
// regression code or Σq takes ten bytes).
func (g *Gather) AppendWire(b []byte) []byte {
	b = appendVarints(b, g.Sizes)
	for _, v := range g.Vals {
		b = wire.AppendF64(b, v)
	}
	b = appendVarints(b, g.Codes)
	return appendVarints(b, g.Spans)
}

func appendVarints[T int32 | int64](b []byte, vs []T) []byte {
	b = wire.AppendUvarint(b, uint64(len(vs)))
	for _, v := range vs {
		b = wire.AppendUvarint(b, uint64(v))
	}
	return b
}

// gatherSlabs parses gather blobs into three slabs: the sizes, the codes and
// span tallies, and the values. With fill unset it only measures them — ns,
// ni and nv count what the slabs must hold — and every count is checked
// against the bytes left, so what the slabs are sized by is backed by the
// blobs. With fill set, the slabs hold at least that much, and each gather's
// slices are carved off them in turn.
type gatherSlabs struct {
	fill       bool
	sizes      []int32
	ints       []int64
	vals       []float64
	ns, ni, nv int
}

// varints reads a count and that many varints, carved off slab from *at on
// when filling, and returns them and, for sizes (each at most MaxInt32),
// their sum.
func varints[T int32 | int64](r *wire.Reader, fill bool, slab []T, at *int, sizes bool) (out []T, sum int) {
	n := r.Uvarint()
	if n > uint64(len(r.Rest())) { // a varint is at least a byte
		r.Fail()
		return nil, 0
	}
	if fill {
		out = slab[*at : *at+int(n) : *at+int(n)]
	}
	*at += int(n)
	for i := 0; i < int(n); i++ {
		v := r.Uvarint()
		if sizes {
			if v > math.MaxInt32 {
				r.Fail()
			}
			sum += int(v)
		}
		if fill {
			out[i] = T(v)
		}
	}
	return out, sum
}

// read parses one gather blob, into g when filling.
func (s *gatherSlabs) read(b []byte, g *Gather) error {
	r := wire.NewReader(b)
	sizes, total := varints(&r, s.fill, s.sizes, &s.ns, true)
	var vals []float64
	if total > len(r.Rest())/8 {
		r.Fail()
	} else if !r.Failed() {
		if s.fill {
			vals = s.vals[s.nv : s.nv+total : s.nv+total]
			r.FillF64s(vals)
		} else {
			r.Take(8 * total)
		}
		s.nv += total
	}
	codes, _ := varints(&r, s.fill, s.ints, &s.ni, false)
	spans, _ := varints(&r, s.fill, s.ints, &s.ni, false)
	if s.fill {
		*g = Gather{Sizes: sizes, Vals: vals, Codes: codes, Spans: spans}
	}
	return blobDone(&r)
}

// gridState is a column's state between its two grid passes: its grid spec,
// and, from the count pass, its summed bucket counts and least value, and
// whether it is constant — then every rank is its one value and it gathers
// nothing. During the gather pass, fill counts what each cut bucket's segment
// of the column's cut table holds so far.
type gridState struct {
	spec     GridSpec
	counts   []int32
	min      float64
	constant bool
	fill     []int
}

// sampleGen evaluates a generated candidate on the row sample — the one
// evaluator, core.Apply, over the sample's live columns.
func sampleGen(g GenSpec, ap operators.Applier, sampleLive [][]float64) []float64 {
	if len(sampleLive) == 0 {
		return nil
	}
	in := make([][]float64, len(g.Feats))
	for k, fi := range g.Feats {
		in[k] = sampleLive[fi]
	}
	vals := make([]float64, len(sampleLive[0]))
	core.Apply(ap, in, vals)
	return vals
}

// newGridState lays the in-memory grid over the column's values at the row
// sample (vals, which it takes over and permutes). stats.SampleGrid trims the
// sample for a q-bin cut; the fit cuts at several bin counts, so each of them
// is tried, and the grid kept is the one whose cut buckets hold the fewest
// sample values (the first on a tie): the gather of the column's cut table t
// laid over the sample's counts on it. A heavy-tailed column, whose trimmed
// range the tails stretch at the finest count, gathers a fraction of what it
// would; the cuts are exact on any grid.
func newGridState(spec GridSpec, vals []float64, cfg *core.Config, t *stats.CutTable) *gridState {
	st := &gridState{spec: spec, counts: make([]int32, 1), min: math.Inf(1)}
	sample := slices.DeleteFunc(vals, func(v float64) bool { return v != v })
	work := make([]float64, len(sample))
	best := len(sample) + 1
	var counts []int32
	for _, q := range []int{cfg.Miner.MaxBins, cfg.IVBins, cfg.Ranker.MaxBins} {
		grid, ok := stats.SampleGrid(append(work[:0], sample...), q)
		if !ok {
			continue
		}
		if counts == nil {
			counts = make([]int32, stats.NumBuckets)
		}
		clear(counts)
		grid.Count(counts, sample)
		t.Lay(counts, len(sample), nil, cfg.IVBins, cfg.Miner.MaxBins, cfg.Ranker.MaxBins)
		if n := len(t.Vals); n < best {
			best, st.spec.Grid = n, grid
		}
	}
	if st.spec.Grid != (stats.Grid{}) {
		clear(counts)
		st.counts = counts
	}
	return st
}

// valueRange returns the least and greatest non-NaN value of xs (+Inf and
// -Inf when there is none). The scan is plain comparisons, which a NaN fails
// both of; the float min and max builtins cost branches on every value for
// their NaN and signed-zero rules. Only the latter matter here: the builtins
// order -0 below +0, so that the two ends have the same bits only when every
// value has them (a constant column). An end at zero is therefore found again
// by signedRange.
func valueRange(xs []float64) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, v := range xs {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if lo == 0 || hi == 0 {
		return signedRange(xs)
	}
	return lo, hi
}

// signedRange is valueRange with the builtins, which tell -0 from +0.
func signedRange(xs []float64) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, v := range xs {
		if v == v {
			lo, hi = min(lo, v), max(hi, v)
		}
	}
	return lo, hi
}

// computeGridCounts is the count pass's kernel: every column read or
// regenerated, its range and its counts on its grid.
func (ws *WorkerState) computeGridCounts(ctx context.Context, spec *PassSpec, c *frame.Chunk, p *Partial) error {
	for i := range spec.Grids {
		if err := spec.Grids[i].check(false); err != nil {
			return err
		}
	}
	cols := ws.liveCols(c)
	n := len(spec.Grids)
	p.Counts = make([]GridCounts, n)
	gridded := 0
	for i := range spec.Grids {
		if spec.Grids[i].Grid != (stats.Grid{}) {
			gridded++
		}
	}
	p.countSlab = ws.arena.Int32s(gridded * stats.NumBuckets)
	used := 0
	for i := range spec.Grids {
		if spec.Grids[i].Grid != (stats.Grid{}) {
			p.Counts[i].Counts = p.countSlab[used : used+stats.NumBuckets : used+stats.NumBuckets]
			used += stats.NumBuckets
		}
	}
	return ws.forCols(ctx, n, func(s *scratch, i int) error {
		g := &spec.Grids[i]
		vals, err := ws.colOf(s, g.Base, g.Gen, cols, s.floats(p.Rows))
		if err != nil {
			return err
		}
		gc := &p.Counts[i]
		gc.Min, gc.Max = valueRange(vals)
		if gc.Counts != nil {
			clear(gc.Counts)
			g.Grid.Count(gc.Counts, vals)
		}
		return nil
	})
}

// gatherCol is the gather pass's kernel for one candidate column: the grid
// kernel's two scans (stats.Grid.BucketRows, stats.GatherPlan.File) over the
// chunk's column, whose rows code codes. Between them, the per-bucket
// counters of the first give the cut buckets' sizes and the spans' tallies;
// the second files the cut buckets' values and, in a criterion cut bucket,
// their codes. It fills out, reusing its backings.
func gatherCol(g *GridSpec, plan *stats.GatherPlan, vals []float64, code *stats.TargetCode, s *scratch, out *Gather) {
	w := code.W
	s.cnt, s.rowB = roomy(s.cnt, g.Grid.Buckets()*w), roomy(s.rowB, len(vals))
	clear(s.cnt)
	g.Grid.BucketRows(s.rowB, s.cnt, vals, code)
	out.Sizes = roomy(out.Sizes, len(g.Buckets))
	for j, b := range g.Buckets {
		out.Sizes[j] = int32(code.Rows(s.cnt[b*w : (b+1)*w]))
	}
	out.Spans = roomy(out.Spans, plan.Spans*w)
	plan.SpanTallies(out.Spans, s.cnt, w)
	s.pos = roomy(s.pos, 2*len(g.Buckets))
	vpos, cpos := s.pos[:len(g.Buckets)], s.pos[len(g.Buckets):]
	total, coded := 0, 0
	for j, n := range out.Sizes {
		vpos[j] = total
		total += int(n)
		cpos[j] = -1
		if g.IV[j] {
			cpos[j] = coded
			coded += int(n)
		}
	}
	out.Vals = roomy(out.Vals, total)
	out.Codes = roomy(out.Codes, coded)
	plan.File(out.Vals, out.Codes, vpos, cpos, s.rowB, vals, code.Q)
}

// roomy returns s at length n, contents unspecified: in its own backing when
// that is large enough, else in a new one with an eighth more room, so that
// the next partition's slightly larger column still fits.
func roomy[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n, n+n/8)
	}
	return s[:n]
}

// passGridCounts is the count pass over the columns being cut: the fold adds
// each column's bucket counts up, merges its range, and then locates the
// bucket of every rank its cuts can ask for. A source column's counts answer
// to the partition's non-NaN rows, which the base pass reported (f.nonNaN); a
// generated column's to its rows.
func (f *fitter) passGridCounts(cols []*column) error {
	spec := &PassSpec{Kind: PassSketchGen, Grids: make([]GridSpec, len(cols))}
	for i, c := range cols {
		spec.Grids[i] = c.grid.spec
	}
	err := f.runPass(spec, func(p *Partial) error {
		if len(p.Counts) != len(cols) {
			return fmt.Errorf("shard: grid-count partial %d has %d counts, want %d", p.Chunk, len(p.Counts), len(cols))
		}
		err := f.each(len(cols), func(i int) error {
			want := int64(p.Rows)
			if base := spec.Grids[i].Base; base >= 0 {
				nn, ok := f.nonNaN[p.Chunk]
				if !ok || base >= len(nn) {
					return fmt.Errorf("shard: grid-count partial %d col %d: the base pass reported no rows of it: %w", p.Chunk, i, ErrGridCounts)
				}
				want = nn[base]
			}
			if err := cols[i].foldCounts(&p.Counts[i], want); err != nil {
				return fmt.Errorf("shard: grid-count partial %d col %d: %w", p.Chunk, i, err)
			}
			return nil
		})
		p.ReleaseCounts(f.arena)
		return err
	})
	if err != nil {
		return err
	}
	return f.each(len(cols), func(i int) error {
		cols[i].locate(&f.cfg, f.code)
		return nil
	})
}

// ReleaseCounts returns the slab behind a count partial's counts to the arena
// once they are folded, like a merged quantile partial: a partial that came
// over the wire was decoded into it. The counts must not be used afterwards.
func (p *Partial) ReleaseCounts(arena *sketch.Arena) {
	arena.PutInt32s(p.countSlab)
	p.countSlab = nil
}

// ReleaseGathers returns the slabs behind a gather partial's gathers to the
// arena once they are filed, as ReleaseCounts does for counts: a partial that
// came over the wire was decoded into them. The gathers must not be used
// afterwards. A partial handed over by pointer holds no slab: its gathers are
// the worker state's.
func (p *Partial) ReleaseGathers(arena *sketch.Arena) {
	arena.PutInt32s(p.gatherSize)
	arena.PutInt64s(p.gatherInt)
	arena.PutFloats(p.gatherVal)
	p.gatherSize, p.gatherInt, p.gatherVal = nil, nil, nil
}

// foldCounts merges one chunk's count-pass partial into the column, whose
// non-NaN values in the chunk number n.
func (c *column) foldCounts(gc *GridCounts, n int64) error {
	st := c.grid
	if st.spec.Grid == (stats.Grid{}) {
		if gc.Counts != nil {
			return fmt.Errorf("%d bucket counts without a grid: %w", len(gc.Counts), ErrGridCounts)
		}
		st.counts[0] += int32(n)
	} else {
		if len(gc.Counts) != len(st.counts) {
			return fmt.Errorf("%d bucket counts, want %d: %w", len(gc.Counts), len(st.counts), ErrGridCounts)
		}
		var sum int64
		for _, v := range gc.Counts {
			sum += int64(v)
		}
		if sum != n {
			return fmt.Errorf("bucket counts sum to %d of %d values: %w", sum, n, ErrGridCounts)
		}
		for b, v := range gc.Counts {
			st.counts[b] += v
		}
	}
	if n > 0 {
		if !(gc.Min <= gc.Max) {
			return fmt.Errorf("range [%v, %v] of %d values: %w", gc.Min, gc.Max, n, ErrGridCounts)
		}
		st.min, c.max = min(st.min, gc.Min), max(c.max, gc.Max)
	}
	c.n += n
	return nil
}

// locate lays the column's cut table from the summed counts at the fit's
// bin counts (the miner's, the criterion's and the ranker's), the criterion
// coded by code — with no cut bucket for a constant column, whose every rank
// is its one value — and hands the gather pass its cut buckets and marks.
func (c *column) locate(cfg *core.Config, code *stats.TargetCode) {
	st := c.grid
	sizes := st.counts
	// Equal bits, not just equal values: a column of -0 and +0 is gathered, so
	// that its cuts carry the signs selection gives them in memory.
	if st.constant = c.n > 0 && math.Float64bits(st.min) == math.Float64bits(c.max); st.constant {
		sizes = nil
	}
	c.cut.Lay(sizes, int(c.n), code, cfg.IVBins, cfg.Miner.MaxBins, cfg.Ranker.MaxBins)
	st.spec.Buckets, st.spec.IV = c.cut.Buckets, c.cut.Crit
	st.fill = make([]int, len(c.cut.Buckets))
}

// passGather is the gather pass over the columns the count pass located:
// the fold files every gathered value into its segment, checking it against
// the counts; then every column's cut table is resolved exactly, and its
// criterion tallied. The pass carries the fit's target code's regression
// centring and scale, with which the kernels code their chunk's labels.
func (f *fitter) passGather(cols []*column) error {
	if len(cols) == 0 {
		return nil
	}
	spec := &PassSpec{Kind: PassRefine, Grids: make([]GridSpec, len(cols))}
	for i, c := range cols {
		spec.Grids[i] = c.grid.spec
	}
	spec.Target = stats.TargetCode{Mean: f.code.Mean, Scale: f.code.Scale, Room: f.code.Room}
	err := f.runPass(spec, func(p *Partial) error {
		if len(p.Gathers) != len(cols) {
			return fmt.Errorf("shard: gather partial %d has %d gathers, want %d", p.Chunk, len(p.Gathers), len(cols))
		}
		err := f.each(len(cols), func(i int) error {
			if err := cols[i].foldGather(p.Gathers[i], f.code, int64(p.Rows)); err != nil {
				return fmt.Errorf("shard: gather partial %d col %d: %w", p.Chunk, i, err)
			}
			return nil
		})
		p.ReleaseGathers(f.arena)
		return err
	})
	if err != nil {
		return err
	}
	return f.each(len(cols), func(i int) error {
		if err := cols[i].resolve(f.code); err != nil {
			return fmt.Errorf("shard: gather of %q: %w", cols[i].Name, err)
		}
		return nil
	})
}

// foldGather files one chunk's gather of the candidate, over rows rows, into
// its cut table.
func (c *column) foldGather(ga *Gather, code *stats.TargetCode, rows int64) error {
	t, st := &c.cut, c.grid
	if ga == nil || len(ga.Sizes) != len(t.Buckets) {
		return fmt.Errorf("a gather of the wrong number of cut buckets: %w", ErrGatherSize)
	}
	gridded := st.spec.Grid != (stats.Grid{})
	at, coded := 0, 0
	for j, sz := range ga.Sizes {
		b := t.Buckets[j]
		start, size, codeAt := t.Seg(j)
		n := int(sz)
		if n < 0 || n > size-st.fill[j] || at+n > len(ga.Vals) {
			return fmt.Errorf("cut bucket %d: %d more values than the %d counted: %w", b, sz, size-st.fill[j], ErrGatherSize)
		}
		seg := ga.Vals[at : at+n]
		for _, v := range seg {
			if v != v || (gridded && st.spec.Grid.Bucket(v) != b) {
				return fmt.Errorf("%v filed under bucket %d: %w", v, b, ErrGatherBucket)
			}
		}
		copy(t.Vals[start+st.fill[j]:], seg)
		if codeAt >= 0 {
			if coded+n > len(ga.Codes) {
				return fmt.Errorf("%d codes for more values: %w", len(ga.Codes), ErrGatherSize)
			}
			for _, q := range ga.Codes[coded : coded+n] {
				if !code.Valid(q) {
					return fmt.Errorf("code %d: %w", q, ErrClassID)
				}
			}
			copy(t.Codes[codeAt+st.fill[j]:], ga.Codes[coded:coded+n])
			coded += n
		}
		st.fill[j] += n
		at += n
	}
	if at != len(ga.Vals) || coded != len(ga.Codes) || len(ga.Spans) != len(t.Spans) {
		return fmt.Errorf("%d values, %d codes and %d span counters for %d, %d and %d: %w",
			len(ga.Vals), len(ga.Codes), len(ga.Spans), at, coded, len(t.Spans), ErrGatherSize)
	}
	for s := 0; s < len(ga.Spans); s += code.W {
		sp := ga.Spans[s : s+code.W]
		if !code.ValidSpan(sp, rows) {
			return fmt.Errorf("span tally %v: %w", sp, ErrGatherSize)
		}
		for c, v := range sp {
			t.Spans[s+c] += v
		}
	}
	return nil
}

// resolve is the gather's end: every segment must be full and every span
// must count the rows the table says it holds; then the table is resolved —
// each rank selected exactly, the criterion tallied off the codes — and lets
// go of its gather.
func (c *column) resolve(code *stats.TargetCode) error {
	t, st := &c.cut, c.grid
	for j, b := range t.Buckets {
		if _, size, _ := t.Seg(j); st.fill[j] != size {
			return fmt.Errorf("cut bucket %d gathered %d of its %d values: %w", b, st.fill[j], size, ErrGatherSize)
		}
	}
	for s, want := range t.SpanRows(nil) {
		if got := code.Rows(t.Spans[s*code.W : (s+1)*code.W]); got != want {
			return fmt.Errorf("span %d counts %d rows of its buckets' %d: %w", s, got, want, ErrGatherSize)
		}
	}
	if st.constant {
		c.ivCounts = t.ResolveConstant(c.max, code)
	} else {
		c.ivCounts = t.Resolve(code)
	}
	c.crit = code.Criterion(c.ivCounts)
	t.Release()
	c.grid = nil
	return nil
}
