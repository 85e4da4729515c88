package shard

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/core"
	"repro/internal/frame"
	"repro/internal/operators"
	"repro/internal/sketch"
	"repro/internal/stats"
	"repro/internal/wire"
)

// This file cuts the round's generated candidates exactly, out of core, with
// the in-memory quantile kernel (stats.QuantileScratch) split across the pass
// seam: its counting scan is one pass and its gather scan another.
//
//   - The base pass also keeps a row sample: the stats.SampleSize rows with
//     the smallest sampleKey of their global row index, the same rows for any
//     partitioning. The fitter evaluates each candidate on it through the
//     live program and core.Apply, and lays stats.SampleGrid over the result.
//   - The count pass (PassSketchGen) returns, per candidate and chunk, its
//     values per bucket of that grid (GridCounts) and their Moments. The
//     fitter adds the counts up and finds the bucket of every rank a cut of
//     the column can ask for (stats.LocateRanks over cutRankUnion).
//   - The gather pass (PassRefine) returns the values in those cut buckets
//     (Gather) — for a count task also the class of each value in a bucket
//     holding a criterion cut, and the class counts of the runs of buckets
//     between them. The fitter selects every rank exactly
//     (stats.SelectInBuckets) and, for a count task, bins the classes
//     (stats.AppendCuts, stats.BinClassCounts): the cuts and the criterion
//     counts in-memory fitting gives, bit for bit.
//
// A candidate whose sample has no usable range gets the zero Grid: the whole
// column is one bucket, which the gather pass then returns whole — the
// in-memory kernel's fallback to selection over the whole column.

// The errors the two grid folds answer peer bytes with, each wrapped in a
// positioned "shard: … partial N …" error: a wrong count or a wrong gather
// stops the pass instead of becoming a wrong cut.
var (
	// ErrGridCounts: a candidate's bucket counts do not sum to the
	// partial's non-NaN rows, or are not one grid's worth.
	ErrGridCounts = errors.New("bucket counts do not add up to the partial's rows")
	// ErrGatherSize: a gather holds more values for a cut bucket than the
	// count pass found in it, or — once every partition is in — fewer, or
	// class counts that do not match the buckets they cover.
	ErrGatherSize = errors.New("gather size differs from the counts of its buckets")
	// ErrGatherBucket: a gathered value lies outside the bucket it is filed
	// under.
	ErrGatherBucket = errors.New("gathered value outside its bucket")
	// ErrClassID: a class id at or above the task's class count.
	ErrClassID = errors.New("class id outside the task's classes")
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

// GridSpec is one generated candidate of the two grid passes: its recipe and
// the grid its values are bucketed on — the zero Grid when its sample had no
// usable range, and then the whole column is bucket 0 of one. In the gather
// pass, Buckets lists the cut buckets (ascending) and, for a count task, IV
// marks those that hold a criterion cut.
type GridSpec struct {
	Gen     GenSpec
	Grid    stats.Grid
	Buckets []int
	IV      []bool
}

// buckets is how many buckets the spec's grid has.
func (g *GridSpec) buckets() int {
	if g.Grid == (stats.Grid{}) {
		return 1
	}
	return stats.NumBuckets
}

// check holds a spec that may be a peer's to what the kernels index by: a
// valid grid or none, ascending cut buckets inside it, and one IV mark per
// cut bucket exactly when the task counts classes.
func (g *GridSpec) check(gather, counts bool) error {
	if g.Grid != (stats.Grid{}) && !g.Grid.Valid() {
		return fmt.Errorf("shard: grid %+v is not a grid", g.Grid)
	}
	if !gather {
		return nil
	}
	for j, b := range g.Buckets {
		if b < 0 || b >= g.buckets() || (j > 0 && b <= g.Buckets[j-1]) {
			return fmt.Errorf("shard: cut bucket %d of %d is not ascending inside the grid", b, g.buckets())
		}
	}
	want := 0
	if counts {
		want = len(g.Buckets)
	}
	if len(g.IV) != want {
		return fmt.Errorf("shard: %d criterion marks for %d cut buckets", len(g.IV), len(g.Buckets))
	}
	return nil
}

// gridTables is what the gather kernel looks a bucket up in, built once per
// pass from a GridSpec: slot[b] is b's index among the cut buckets (-1: not
// one), span[b] the run of buckets between criterion cut buckets that b lies
// in (-1: a criterion cut bucket itself).
type gridTables struct {
	slot, span []int16
	spans      int
}

func newGridTables(g *GridSpec) *gridTables {
	nb := g.buckets()
	t := &gridTables{slot: make([]int16, nb), span: make([]int16, nb)}
	for b := range t.slot {
		t.slot[b] = -1
	}
	for j, b := range g.Buckets {
		t.slot[b] = int16(j)
	}
	j := 0
	for b := range t.span {
		if j < len(g.Buckets) && g.Buckets[j] == b {
			iv := len(g.IV) > 0 && g.IV[j]
			j++
			if iv {
				t.span[b] = -1
				t.spans++
				continue
			}
		}
		t.span[b] = int16(t.spans)
	}
	t.spans++
	return t
}

// GridCounts is one candidate's count-pass partial: its non-NaN values'
// range, and how many fall in each bucket of its grid (nil for a candidate
// without one).
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

// Gather is one candidate's gather-pass partial: the chunk's values in the
// candidate's cut buckets, bucket by bucket (Sizes[j] of them in cut bucket
// j). For a count task also the class of every value in a criterion cut
// bucket (Class, in the same order) and, k per run, the class counts of the
// runs of buckets between criterion cut buckets (Spans).
type Gather struct {
	Sizes []int32
	Vals  []float64
	Class []int32
	Spans []int32
}

// WireSize is the exact length of AppendWire's output.
func (g *Gather) WireSize() int {
	n := wire.UvarintSize(uint64(len(g.Sizes))) + 8*len(g.Vals) +
		wire.UvarintSize(uint64(len(g.Class))) + wire.UvarintSize(uint64(len(g.Spans)))
	for _, vs := range [][]int32{g.Sizes, g.Class, g.Spans} {
		for _, v := range vs {
			n += wire.UvarintSize(uint64(v))
		}
	}
	return n
}

// AppendWire appends the sizes (varints), the values (raw bits, as many as
// the sizes add up to), the classes and the span counts (varints).
func (g *Gather) AppendWire(b []byte) []byte {
	b = wire.AppendUvarint(b, uint64(len(g.Sizes)))
	for _, v := range g.Sizes {
		b = wire.AppendUvarint(b, uint64(v))
	}
	for _, v := range g.Vals {
		b = wire.AppendF64(b, v)
	}
	for _, vs := range [][]int32{g.Class, g.Spans} {
		b = wire.AppendUvarint(b, uint64(len(vs)))
		for _, v := range vs {
			b = wire.AppendUvarint(b, uint64(v))
		}
	}
	return b
}

func decodeGather(b []byte) (*Gather, error) {
	r := wire.NewReader(b)
	g := &Gather{}
	varints := func() []int32 {
		n := r.Uvarint()
		if n > uint64(len(r.Rest())) { // a varint is at least a byte
			r.Fail()
			return nil
		}
		out := make([]int32, n)
		for i := range out {
			v := r.Uvarint()
			if v > math.MaxInt32 {
				r.Fail()
			}
			out[i] = int32(v)
		}
		return out
	}
	g.Sizes = varints()
	total := 0
	for _, s := range g.Sizes {
		total += int(s)
	}
	if total > len(r.Rest())/8 {
		r.Fail()
	} else if !r.Failed() {
		g.Vals = make([]float64, total)
		r.FillF64s(g.Vals)
	}
	g.Class = varints()
	g.Spans = varints()
	return g, blobDone(&r)
}

// gridState is a generated candidate's state between its two passes.
type gridState struct {
	spec GridSpec

	// After the count pass: the summed bucket counts, and where every rank of
	// cutRankUnion falls — the cut buckets (needs) and each rank's offset in
	// its bucket (local). ivRanks are the criterion's ranks.
	counts  []int32
	ranks   []int // cutRankUnion, as ints
	needs   []stats.CutBucket
	local   []int
	ivRanks []int

	// During the gather pass: the cut buckets' members, segment by segment as
	// needs lays them out, and for a count task the classes of the criterion
	// cut buckets' members, segment by segment from classAt[j] (-1: not one);
	// fill counts what each segment holds so far, spans the run counts.
	gather  []float64
	class   []int32
	classAt []int
	fill    []int
	spans   []int32
}

// newGridState evaluates the candidate on the row sample — the one evaluator,
// core.Apply, over the sample's live columns — and lays the in-memory grid
// over it. stats.SampleGrid trims the sample for a q-bin cut; the fit cuts at
// several bin counts, so each of them is tried, and the grid kept is the one
// whose cut buckets hold the fewest sample values (the first on a tie). A
// heavy-tailed column, whose trimmed range the tails stretch at the finest
// count, gathers a fraction of what it would; the cuts are exact on any grid.
func newGridState(g GenSpec, ap operators.Applier, sampleLive [][]float64, cfg *core.Config) *gridState {
	st := &gridState{spec: GridSpec{Gen: g}, counts: make([]int32, 1)}
	if len(sampleLive) == 0 || len(sampleLive[0]) == 0 {
		return st
	}
	in := make([][]float64, len(g.Feats))
	for k, fi := range g.Feats {
		in[k] = sampleLive[fi]
	}
	vals := make([]float64, len(sampleLive[0]))
	core.Apply(ap, in, vals)
	sorted := slices.DeleteFunc(vals, func(v float64) bool { return v != v })
	slices.Sort(sorted)
	ranks := cutRankUnion(int64(len(sorted)), cfg)
	work := make([]float64, len(sorted))
	best := len(sorted) + 1
	for _, q := range []int{cfg.Miner.MaxBins, cfg.IVBins, cfg.Ranker.MaxBins} {
		grid, ok := stats.SampleGrid(append(work[:0], sorted...), q)
		if !ok {
			continue
		}
		if n := sampleGather(sorted, ranks, grid); n < best {
			best = n
			st.spec.Grid, st.counts = grid, make([]int32, stats.NumBuckets)
		}
	}
	return st
}

// sampleGather is how many values of a sorted sample lie in the buckets of g
// that hold its order statistics at ranks — the share of the column those
// cut buckets would gather, as the sample sees it.
func sampleGather(sorted []float64, ranks []int64, g stats.Grid) int {
	n, last := 0, -1
	for _, r := range ranks {
		b := g.Bucket(sorted[r])
		if b == last {
			continue
		}
		last = b
		lo := sort.Search(len(sorted), func(i int) bool { return g.Bucket(sorted[i]) >= b })
		hi := sort.Search(len(sorted), func(i int) bool { return g.Bucket(sorted[i]) > b })
		n += hi - lo
	}
	return n
}

// valueRange returns the least and greatest non-NaN value of xs (+Inf and
// -Inf when there is none).
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
	return lo, hi
}

// computeGridCounts is the count pass's kernel: every candidate regenerated,
// its moments, its range and its counts on its grid.
func (ws *WorkerState) computeGridCounts(ctx context.Context, spec *PassSpec, c *frame.Chunk, p *Partial) error {
	for i := range spec.Grids {
		if err := spec.Grids[i].check(false, false); err != nil {
			return err
		}
	}
	cols := ws.liveCols(c)
	n := len(spec.Grids)
	p.Counts = make([]GridCounts, n)
	p.Moments = make([]sketch.Moments, n)
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
		vals := s.floats(p.Rows)
		if err := ws.genCol(g.Gen, cols, vals); err != nil {
			return err
		}
		p.Moments[i].AddAll(vals)
		gc := &p.Counts[i]
		gc.Min, gc.Max = valueRange(vals)
		if gc.Counts != nil {
			clear(gc.Counts)
			g.Grid.Count(gc.Counts, vals)
		}
		return nil
	})
}

// classIDs returns the chunk's labels as the count task's class ids: 0/1
// thresholded at 0.5 for binary, the class index for multiclass — a label
// outside the classes is an error (the fit validated them on its first pass).
func (ws *WorkerState) classIDs(labels []float64) ([]int32, error) {
	if ws.task.Kind == core.TaskMulticlass {
		cls := ws.labelCls(labels, ws.task.Classes)
		for i, c := range cls {
			if c < 0 {
				return nil, fmt.Errorf("shard: label %v of row %d is not one of %d classes", labels[i], i, ws.task.Classes)
			}
		}
		return cls, nil
	}
	if cap(ws.cls) < len(labels) {
		ws.cls = make([]int32, len(labels))
	}
	cls := ws.cls[:len(labels)]
	for i, y := range labels {
		cls[i] = 0
		if y > 0.5 {
			cls[i] = 1
		}
	}
	return cls, nil
}

// gatherCol is the gather pass's kernel for one candidate column, in two
// scans of the chunk's column. The first buckets every value and counts it
// per bucket (and class): counters spread over the whole grid, so that
// consecutive values rarely wait on one another's increment. The per-bucket
// counts then give the cut buckets' sizes and, for a count task, the spans'
// class counts. The second scan files the cut buckets' values (and, in a
// criterion cut bucket, their classes).
func gatherCol(g *GridSpec, t *gridTables, vals []float64, cls []int32, k int, s *scratch) *Gather {
	stride := 1
	if cls != nil {
		stride = k
	}
	cnt := s.counts(len(t.slot) * stride)
	rowB := s.rowBuckets(len(vals))
	gridded := g.Grid != (stats.Grid{})
	for i, v := range vals {
		if v != v {
			rowB[i] = -1
			continue
		}
		b := 0
		if gridded {
			b = g.Grid.Bucket(v)
		}
		rowB[i] = int16(b)
		c := 0
		if cls != nil {
			c = int(cls[i])
		}
		cnt[b*stride+c]++
	}
	out := &Gather{Sizes: make([]int32, len(g.Buckets))}
	for j, b := range g.Buckets {
		for _, n := range cnt[b*stride : (b+1)*stride] {
			out.Sizes[j] += n
		}
	}
	if cls != nil {
		out.Spans = make([]int32, t.spans*k)
		for b, sp := range t.span {
			if sp >= 0 {
				dst := out.Spans[int(sp)*k : (int(sp)+1)*k]
				for c, n := range cnt[b*k : (b+1)*k] {
					dst[c] += n
				}
			}
		}
	}
	pos := s.cursor(2 * len(g.Buckets))
	vpos, cpos := pos[:len(g.Buckets)], pos[len(g.Buckets):]
	total, classed := 0, 0
	for j, n := range out.Sizes {
		vpos[j] = total
		total += int(n)
		cpos[j] = -1
		if cls != nil && g.IV[j] {
			cpos[j] = classed
			classed += int(n)
		}
	}
	out.Vals = make([]float64, total)
	if cls != nil {
		out.Class = make([]int32, classed)
	}
	for i, b := range rowB {
		if b < 0 {
			continue
		}
		sl := t.slot[b]
		if sl < 0 {
			continue
		}
		out.Vals[vpos[sl]] = vals[i]
		vpos[sl]++
		if at := cpos[sl]; at >= 0 {
			out.Class[at] = cls[i]
			cpos[sl]++
		}
	}
	return out
}

// passGridCounts is the count pass over the round's generated candidates: the
// fold adds each candidate's bucket counts up, merges its moments and range,
// and then locates the bucket of every rank its cuts can ask for.
func (f *fitter) passGridCounts(gens []*core.Candidate) error {
	spec := &PassSpec{Kind: PassSketchGen, Grids: make([]GridSpec, len(gens))}
	for i, c := range gens {
		spec.Grids[i] = col(c).grid.spec
	}
	err := f.runPass(spec, func(p *Partial) error {
		if len(p.Counts) != len(gens) || len(p.Moments) != len(gens) {
			return fmt.Errorf("shard: grid-count partial %d has %d counts and %d moments, want %d",
				p.Chunk, len(p.Counts), len(p.Moments), len(gens))
		}
		err := f.each(len(gens), func(i int) error {
			if err := col(gens[i]).foldCounts(&p.Counts[i], &p.Moments[i], p.Rows); err != nil {
				return fmt.Errorf("shard: grid-count partial %d cand %d: %w", p.Chunk, i, err)
			}
			return nil
		})
		p.ReleaseCounts(f.arena)
		return err
	})
	if err != nil {
		return err
	}
	return f.each(len(gens), func(i int) error {
		col(gens[i]).locate(&f.cfg)
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

// foldCounts merges one chunk's count-pass partial into the candidate.
func (c *column) foldCounts(gc *GridCounts, mom *sketch.Moments, rows int) error {
	st := c.grid
	if mom.Rows != int64(rows) || mom.N < 0 || mom.N > mom.Rows {
		return fmt.Errorf("moments of %d rows (%d non-NaN) for %d: %w", mom.Rows, mom.N, rows, ErrGridCounts)
	}
	if st.spec.Grid == (stats.Grid{}) {
		if gc.Counts != nil {
			return fmt.Errorf("%d bucket counts without a grid: %w", len(gc.Counts), ErrGridCounts)
		}
		st.counts[0] += int32(mom.N)
	} else {
		if len(gc.Counts) != len(st.counts) {
			return fmt.Errorf("%d bucket counts, want %d: %w", len(gc.Counts), len(st.counts), ErrGridCounts)
		}
		var sum int64
		for _, v := range gc.Counts {
			sum += int64(v)
		}
		if sum != mom.N {
			return fmt.Errorf("bucket counts sum to %d of %d non-NaN rows: %w", sum, mom.N, ErrGridCounts)
		}
		for b, v := range gc.Counts {
			st.counts[b] += v
		}
	}
	if mom.N > 0 && !(gc.Min <= gc.Max) {
		return fmt.Errorf("range [%v, %v] of %d values: %w", gc.Min, gc.Max, mom.N, ErrGridCounts)
	}
	c.mom.Merge(mom)
	c.max = max(c.max, gc.Max)
	return nil
}

// locate fills the cut table's shape from the summed counts: the non-NaN
// count, the union ranks, the cut buckets that hold them, and the gather
// pass's bucket list.
func (c *column) locate(cfg *core.Config) {
	st := c.grid
	c.n = c.mom.N
	c.ranks = cutRankUnion(c.n, cfg)
	st.ranks = make([]int, len(c.ranks))
	for i, r := range c.ranks {
		st.ranks[i] = int(r)
	}
	ranks := st.ranks
	st.local = make([]int, len(ranks))
	var total int
	st.needs, total = stats.LocateRanks(nil, st.local, st.counts, 1, ranks)
	st.gather = make([]float64, total)
	st.fill = make([]int, len(st.needs))
	st.spec.Buckets = make([]int, len(st.needs))
	for j, nd := range st.needs {
		st.spec.Buckets[j] = nd.Bucket
	}
	if cfg.Task.Kind == core.TaskRegression {
		return
	}
	for _, r := range sketch.CutRanks(c.n, cfg.IVBins) {
		st.ivRanks = append(st.ivRanks, int(r))
	}
	st.spec.IV = make([]bool, len(st.needs))
	st.classAt = make([]int, len(st.needs))
	iv, ivBuckets, classed := 0, 0, 0
	for j, nd := range st.needs {
		for _, r := range ranks[nd.First : nd.First+nd.Count] {
			if iv < len(st.ivRanks) && st.ivRanks[iv] == r {
				st.spec.IV[j] = true
				iv++
			}
		}
		st.classAt[j] = -1
		if st.spec.IV[j] {
			st.classAt[j] = classed
			classed += nd.Size
			ivBuckets++
		}
	}
	st.class = make([]int32, classed)
	st.spans = make([]int32, (ivBuckets+1)*taskClasses(cfg.Task))
}

// taskClasses is k of a count task's class ids: 2 for binary.
func taskClasses(task core.Task) int {
	if task.Kind == core.TaskMulticlass {
		return task.Classes
	}
	return 2
}

// passGather is the gather pass of a round: the generated candidates' cut
// buckets and, for a count task, the live features' criterion histograms at
// their known cuts. The fold files every gathered value into its segment,
// checking it against the counts; then every generated candidate's cut table
// is resolved exactly, and for a count task its criterion counts.
func (f *fitter) passGather(cands []*core.Candidate) error {
	gens := cands[len(f.live):]
	spec := &PassSpec{Kind: PassRefine, Grids: make([]GridSpec, len(gens))}
	for i, c := range gens {
		spec.Grids[i] = col(c).grid.spec
	}
	counts := f.cfg.Task.Kind != core.TaskRegression
	if counts {
		spec.Entries = make([]EntrySpec, len(f.live))
		for i, lf := range f.live {
			spec.Entries[i] = EntrySpec{Base: i, Cuts: lf.ivCuts}
		}
	}
	if len(spec.Grids)+len(spec.Entries) == 0 {
		return nil
	}
	// The prepared histograms are the merge targets; the in-process kernels
	// shadow these same objects, reading only their cuts and bucket index.
	hists := spec.prepared(f.cfg.Task).hists
	k := taskClasses(f.cfg.Task)
	err := f.runPass(spec, func(p *Partial) error {
		if len(p.Gathers) != len(gens) || len(p.Hists) != len(hists) || len(p.Refiners) != 0 {
			return fmt.Errorf("shard: gather partial %d has %d gathers and %d histograms, want %d and %d",
				p.Chunk, len(p.Gathers), len(p.Hists), len(gens), len(hists))
		}
		return f.each(len(gens)+len(hists), func(i int) error {
			if i >= len(gens) {
				// MergeHist's cut-equality check doubles as an integrity check on
				// the partition's histogram.
				if err := hists[i-len(gens)].MergeHist(p.Hists[i-len(gens)]); err != nil {
					return fmt.Errorf("shard: gather partial %d live %d: %w", p.Chunk, i-len(gens), err)
				}
				return nil
			}
			if err := col(gens[i]).foldGather(p.Gathers[i], k, counts); err != nil {
				return fmt.Errorf("shard: gather partial %d cand %d: %w", p.Chunk, i, err)
			}
			return nil
		})
	})
	if err != nil {
		return err
	}
	for i, h := range hists {
		f.live[i].crit = h.Criterion()
	}
	return f.each(len(gens), func(i int) error {
		if err := col(gens[i]).resolve(f.cfg.Task); err != nil {
			return fmt.Errorf("shard: gather of %q: %w", gens[i].Node.Name, err)
		}
		return nil
	})
}

// foldGather files one chunk's gather of the candidate into its segments.
func (c *column) foldGather(ga *Gather, k int, counts bool) error {
	st := c.grid
	if ga == nil || len(ga.Sizes) != len(st.needs) {
		return fmt.Errorf("a gather of the wrong number of cut buckets: %w", ErrGatherSize)
	}
	gridded := st.spec.Grid != (stats.Grid{})
	at, classed := 0, 0
	for j, sz := range ga.Sizes {
		nd := st.needs[j]
		n := int(sz)
		if n < 0 || st.fill[j]+n > nd.Size || at+n > len(ga.Vals) {
			return fmt.Errorf("cut bucket %d: %d more values than the %d counted: %w", nd.Bucket, n, nd.Size-st.fill[j], ErrGatherSize)
		}
		seg := ga.Vals[at : at+n]
		for _, v := range seg {
			if v != v || (gridded && st.spec.Grid.Bucket(v) != nd.Bucket) {
				return fmt.Errorf("%v filed under bucket %d: %w", v, nd.Bucket, ErrGatherBucket)
			}
		}
		dst := nd.Start + st.fill[j]
		copy(st.gather[dst:], seg)
		if counts && st.spec.IV[j] {
			if classed+n > len(ga.Class) {
				return fmt.Errorf("%d classes for more values: %w", len(ga.Class), ErrGatherSize)
			}
			for _, cl := range ga.Class[classed : classed+n] {
				if cl < 0 || int(cl) >= k {
					return fmt.Errorf("class %d of %d: %w", cl, k, ErrClassID)
				}
			}
			copy(st.class[st.classAt[j]+st.fill[j]:], ga.Class[classed:classed+n])
			classed += n
		}
		st.fill[j] += n
		at += n
	}
	if at != len(ga.Vals) || classed != len(ga.Class) || len(ga.Spans) != len(st.spans) {
		return fmt.Errorf("%d values, %d classes and %d span counts for %d, %d and %d: %w",
			len(ga.Vals), len(ga.Class), len(ga.Spans), at, classed, len(st.spans), ErrGatherSize)
	}
	for i, v := range ga.Spans {
		if v < 0 {
			return fmt.Errorf("span count %d: %w", v, ErrGatherSize)
		}
		st.spans[i] += v
	}
	return nil
}

// resolve is the gather's end: every segment must be full and every span
// must count the rows of its buckets, then each rank is selected exactly and,
// for a count task, the criterion counted off the classes.
func (c *column) resolve(task core.Task) error {
	st := c.grid
	for j, nd := range st.needs {
		if st.fill[j] != nd.Size {
			return fmt.Errorf("cut bucket %d gathered %d of its %d values: %w", nd.Bucket, st.fill[j], nd.Size, ErrGatherSize)
		}
	}
	counts := task.Kind != core.TaskRegression
	if counts {
		k := taskClasses(task)
		want := make([]int64, len(st.spans)/k)
		s, j := 0, 0
		for b, n := range st.counts {
			if j < len(st.needs) && st.needs[j].Bucket == b {
				iv := st.spec.IV[j]
				j++
				if iv {
					s++
					continue
				}
			}
			want[s] += int64(n)
		}
		for s, w := range want {
			var got int64
			for _, v := range st.spans[s*k : (s+1)*k] {
				got += int64(v)
			}
			if got != w {
				return fmt.Errorf("span %d counts %d rows of its buckets' %d: %w", s, got, w, ErrGatherSize)
			}
		}
	}
	// Selection permutes: the criterion cut buckets' members stay paired with
	// their classes in a copy, laid out as the classes are.
	var ivVals []float64
	if counts {
		ivVals = make([]float64, len(st.class))
		for j, nd := range st.needs {
			if at := st.classAt[j]; at >= 0 {
				copy(ivVals[at:], st.gather[nd.Start:nd.Start+nd.Size])
			}
		}
	}
	c.at = make([]float64, len(st.local))
	stats.SelectInBuckets(c.at, st.needs, st.local, st.gather, nil)
	if counts {
		c.ivCuts, c.ivCounts = st.criterion(c.at, ivVals, task)
		c.crit = countCriterion(task, c.ivCuts, c.ivCounts)
	}
	c.grid = nil
	return nil
}

// criterion bins the classes at the criterion's cuts: the criterion ranks'
// cut buckets, their members (ivVals, laid out as the classes) and classes,
// and the runs between them are the in-memory kernel's own inputs to
// AppendCuts and BinClassCounts.
func (st *gridState) criterion(at, ivVals []float64, task core.Task) (cuts []float64, bins []int32) {
	var needs []stats.CutBucket
	var ivAt []float64
	iv := 0
	for j, nd := range st.needs {
		if !st.spec.IV[j] {
			continue
		}
		first := len(ivAt)
		for u := nd.First; u < nd.First+nd.Count; u++ {
			if iv < len(st.ivRanks) && st.ivRanks[iv] == st.ranks[u] {
				ivAt = append(ivAt, at[u])
				iv++
			}
		}
		needs = append(needs, stats.CutBucket{Bucket: nd.Bucket, First: first, Count: len(ivAt) - first, Start: st.classAt[j], Size: nd.Size})
	}
	ends := make([]int, len(needs))
	cuts = stats.AppendCuts(nil, ends, ivAt, needs)
	k := taskClasses(task)
	bins = make([]int32, (len(cuts)+1)*k)
	stats.BinClassCounts(bins, k, cuts, ends, st.spans, needs, ivVals, st.class)
	return cuts, bins
}

// countCriterion is the count task's criterion over per-bin class counts
// (bins[b·k+c]), in the arithmetic of sketch.LabelHist.IV and
// sketch.ClassHist.Criterion.
func countCriterion(task core.Task, cuts []float64, bins []int32) float64 {
	if len(cuts) == 0 {
		return 0
	}
	nb := len(cuts) + 1
	if task.Kind == core.TaskMulticlass {
		k := task.Classes
		counts := make([][]float64, k)
		for c := range counts {
			counts[c] = make([]float64, nb)
			for b := range counts[c] {
				counts[c][b] = float64(bins[b*k+c])
			}
		}
		return stats.MulticlassIVFromCounts(counts)
	}
	pos, neg := make([]float64, nb), make([]float64, nb)
	var np, nn float64
	for b := range pos {
		neg[b], pos[b] = float64(bins[2*b]), float64(bins[2*b+1])
		np += pos[b]
		nn += neg[b]
	}
	return stats.IVFromCounts(pos, neg, np, nn)
}
