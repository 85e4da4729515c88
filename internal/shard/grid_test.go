package shard_test

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/colstore"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/frame"
	"repro/internal/operators"
	"repro/internal/shard"
	"repro/internal/sketch"
	"repro/internal/stats"
)

// gridRows is the differential table's row count: three partitions of 1,500
// leave a single-row one.
const gridRows = 3001

// gridFrame builds the columns the grid passes must cut exactly whatever they
// hold: normals, a lognormal, a point mass (80% zeros), a constant, a base
// column with ±Inf, one with NaN, and one whose extremes sit at rows the row
// sample cannot hold (the largest sample keys) — with labels of the task.
func gridFrame(t *testing.T, task core.Task) *frame.Frame {
	t.Helper()
	rng := rand.New(rand.NewSource(5))
	names := []string{"n1", "n2", "logn", "zeros", "one", "inf", "nan", "wild"}
	cols := make([][]float64, len(names))
	for j := range cols {
		cols[j] = make([]float64, gridRows)
	}
	for r := 0; r < gridRows; r++ {
		cols[0][r], cols[1][r] = rng.NormFloat64(), rng.NormFloat64()
		cols[2][r] = math.Exp(1.5 * rng.NormFloat64())
		if rng.Float64() >= 0.8 {
			cols[3][r] = rng.NormFloat64()
		}
		cols[4][r] = 1
		cols[5][r] = rng.NormFloat64()
		cols[6][r] = rng.NormFloat64()
		if rng.Float64() < 0.1 {
			cols[6][r] = math.NaN()
		}
		cols[7][r] = rng.NormFloat64()
	}
	for i := 0; i < 10; i++ {
		cols[5][rng.Intn(gridRows)] = math.Inf(1 - 2*(i%2))
	}
	byKey := make([]int, gridRows)
	for r := range byKey {
		byKey[r] = r
	}
	sort.Slice(byKey, func(a, b int) bool { return shard.SampleKey(byKey[a]) > shard.SampleKey(byKey[b]) })
	for i, r := range byKey[:8] {
		cols[7][r] = math.Copysign(1e12, float64(i%2)-0.5)
	}
	labels := make([]float64, gridRows)
	for r := range labels {
		s := cols[0][r] + 0.5*cols[3][r] + 0.3*rng.NormFloat64()
		switch task.Kind {
		case core.TaskMulticlass:
			labels[r] = float64(min(2, max(0, int(s+1))))
		case core.TaskRegression:
			labels[r] = s
		default:
			if s > 0 {
				labels[r] = 1
			}
		}
	}
	fr := &frame.Frame{Label: labels}
	for j, name := range names {
		fr.AddColumn(name, cols[j])
	}
	return fr
}

// gridGens are the generated candidates the table cuts: the lognormal, a
// ratio of normals, the point mass, the ±Inf and NaN columns after the
// clamp, a constant (no sampled range: the whole-column gather), the column
// whose extremes the sample misses, and two mixes.
var gridGens = []shard.GenSpec{
	{Op: "mul", Feats: []int{2, 4}}, {Op: "div", Feats: []int{0, 1}}, {Op: "mul", Feats: []int{3, 4}},
	{Op: "add", Feats: []int{5, 4}}, {Op: "add", Feats: []int{6, 4}}, {Op: "mul", Feats: []int{4, 4}},
	{Op: "mul", Feats: []int{7, 4}}, {Op: "sub", Feats: []int{0, 2}}, {Op: "div", Feats: []int{3, 1}},
}

// sizedChunks is a source of given partition sizes — an empty partition
// among them — over a frame.
type sizedChunks struct {
	f     *frame.Frame
	sizes []int
	next  int
	start int
}

func (s *sizedChunks) Names() []string { return s.f.Names() }
func (s *sizedChunks) NumCols() int    { return len(s.f.Names()) }
func (s *sizedChunks) Reset() error    { s.next, s.start = 0, 0; return nil }
func (s *sizedChunks) Next() (*frame.Chunk, error) {
	if s.next == len(s.sizes) {
		return nil, io.EOF
	}
	n := s.sizes[s.next]
	c := &frame.Chunk{Index: s.next, Start: s.start, Cols: make([][]float64, s.NumCols()), Label: s.f.Label[s.start : s.start+n]}
	for j := range c.Cols {
		c.Cols[j] = s.f.Col(j)[s.start : s.start+n]
	}
	s.next++
	s.start += n
	return c, nil
}

// distExec is the in-process distributed executor over a colstore file of
// the frame in groupRows-row groups: a coordinator and two worker sessions
// over net.Pipe. stop closes it and waits for the sessions.
func distExec(t *testing.T, train *frame.Frame, groupRows int) (exec shard.Executor, src frame.ChunkSource, stop func()) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "train.col")
	if err := colstore.WriteFrame(path, train, colstore.WriterOptions{GroupRows: groupRows}); err != nil {
		t.Fatal(err)
	}
	local, err := colstore.OpenSource(path)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	var conns []dist.Conn
	for i := 0; i < 2; i++ {
		a, b := net.Pipe()
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = dist.ServeConn(context.Background(), dist.NewConn(b))
		}()
		conns = append(conns, dist.NewConn(a))
	}
	coord := dist.NewCoordinator(dist.SourceSpec{Kind: dist.SourceColstore, Path: path}, conns...)
	return coord, local, func() {
		coord.Close()
		wg.Wait()
		local.Close()
	}
}

// wantGridCut is the in-memory kernel's answer for one column: its cuts at
// every bin count (stats.QuantileScratch), its binner cuts, and its
// criterion's per-bin tallies — class counts, or the coded target's rows, Σq
// and Σq2 — and criterion (stats.IVScratch, stats.CritScratch).
func wantGridCut(col, labels []float64, task core.Task, cfg core.Config) shard.GridCut {
	var q stats.QuantileScratch
	want := shard.GridCut{Cuts: map[int][]float64{}}
	for _, bins := range []int{cfg.Miner.MaxBins, cfg.IVBins, cfg.Ranker.MaxBins} {
		want.Cuts[bins] = append([]float64{}, q.Quantiles(col, bins)...)
	}
	want.BinnerCuts = append([]float64(nil), want.Cuts[cfg.Miner.MaxBins]...)
	hi := math.Inf(-1)
	for _, v := range col {
		if v > hi {
			hi = v
		}
	}
	if n := len(want.BinnerCuts); n > 0 && want.BinnerCuts[n-1] >= hi {
		want.BinnerCuts = want.BinnerCuts[:n-1]
	}
	cuts := want.Cuts[cfg.IVBins]
	if task.Kind == core.TaskRegression {
		var code stats.TargetCode
		code.Encode(labels)
		want.Counts = make([]int64, (len(cuts)+1)*stats.Tally)
		for i, v := range col {
			if v == v {
				code.Add(want.Counts[stats.SearchCuts(cuts, v)*stats.Tally:], code.Q[i])
			}
		}
		var cs stats.CritScratch
		want.Crit = cs.CorrelationRatio(col, labels, cfg.IVBins)
		return want
	}
	k := 2
	if task.Kind == core.TaskMulticlass {
		k = task.Classes
	}
	want.Counts = make([]int64, (len(cuts)+1)*k)
	for i, v := range col {
		if v != v {
			continue
		}
		c := int(labels[i])
		if task.Kind != core.TaskMulticlass {
			c = 0
			if labels[i] > 0.5 {
				c = 1
			}
		}
		want.Counts[stats.SearchCuts(cuts, v)*k+c]++
	}
	if task.Kind == core.TaskMulticlass {
		var cs stats.CritScratch
		want.Crit = cs.MulticlassIV(col, labels, k, cfg.IVBins)
	} else {
		want.Crit = stats.InformationValue(col, labels, cfg.IVBins)
	}
	return want
}

// sameGridCut compares two answers bit for bit: float64 bits of every cut and
// of the criterion, every count.
func sameGridCut(got, want shard.GridCut) error {
	bits := func(xs []float64) []uint64 {
		out := make([]uint64, len(xs))
		for i, x := range xs {
			out[i] = math.Float64bits(x)
		}
		return out
	}
	for bins, w := range want.Cuts {
		if !reflect.DeepEqual(bits(got.Cuts[bins]), bits(w)) {
			return fmt.Errorf("cuts at %d bins:\n got %v\nwant %v", bins, got.Cuts[bins], w)
		}
	}
	if !reflect.DeepEqual(bits(got.BinnerCuts), bits(want.BinnerCuts)) {
		return fmt.Errorf("binner cuts:\n got %v\nwant %v", got.BinnerCuts, want.BinnerCuts)
	}
	if !reflect.DeepEqual(got.Counts, want.Counts) {
		return fmt.Errorf("criterion tallies:\n got %v\nwant %v", got.Counts, want.Counts)
	}
	if math.Float64bits(got.Crit) != math.Float64bits(want.Crit) {
		return fmt.Errorf("criterion %v, want %v", got.Crit, want.Crit)
	}
	return nil
}

// TestGridCutsAreExact is the differential pin of the grid passes: for every
// task family, every column's cuts (at the miner's, the criterion's and the
// ranker's bin counts, and as binner cuts) and its criterion's per-bin
// tallies and criterion must equal the in-memory
// kernel's on the materialised column bit for bit — the source columns, which
// the grid passes cut before the first round, as well as the generated
// candidates. The columns are the shapes that stress a grid (see gridFrame);
// the fits run over 1, 3 and 7 partitions, a single-row partition and an
// empty one, on pools of 1, 2 and 8 workers, through the in-process executor
// and the in-process distributed one. A constant column — the source column
// "one" and the candidate one·one — gathers no value at all.
func TestGridCutsAreExact(t *testing.T) {
	for _, task := range []core.Task{core.BinaryTask(), core.MulticlassTask(3), core.RegressionTask()} {
		task := task
		t.Run(task.String(), func(t *testing.T) {
			train := gridFrame(t, task)
			cfg := shard.Config{Core: core.DefaultConfig()}
			cfg.Core.Task = task
			norm, err := core.NormalizeConfig(cfg.Core)
			if err != nil {
				t.Fatal(err)
			}
			reg := operators.NewRegistry()
			wantGen := make([]shard.GridCut, len(gridGens))
			for i, g := range gridGens {
				op, err := reg.Get(g.Op)
				if err != nil {
					t.Fatal(err)
				}
				ap, err := op.Fit(make([][]float64, 2))
				if err != nil {
					t.Fatal(err)
				}
				col := make([]float64, gridRows)
				core.Apply(ap, [][]float64{train.Col(g.Feats[0]), train.Col(g.Feats[1])}, col)
				wantGen[i] = wantGridCut(col, train.Label, task, norm)
			}
			wantLive := make([]shard.GridCut, len(train.Names()))
			for j := range wantLive {
				wantLive[j] = wantGridCut(train.Col(j), train.Label, task, norm)
			}
			check := func(name string, src frame.ChunkSource, exec shard.Executor, workers int) {
				t.Helper()
				cfg := cfg
				cfg.Core.Workers = workers
				gen, live, err := shard.CutGenerated(context.Background(), src, exec, cfg, gridGens)
				if err != nil {
					t.Fatalf("%s, %d workers: %v", name, workers, err)
				}
				for i := range gen {
					if err := sameGridCut(gen[i], wantGen[i]); err != nil {
						t.Fatalf("%s, %d workers: candidate %d (%s %v): %v", name, workers, i, gridGens[i].Op, gridGens[i].Feats, err)
					}
				}
				for j := range live {
					if err := sameGridCut(live[j], wantLive[j]); err != nil {
						t.Fatalf("%s, %d workers: source column %q: %v", name, workers, train.Names()[j], err)
					}
				}
			}
			for _, parts := range []int{1, 3, 7} {
				rows := (gridRows + parts - 1) / parts
				for _, workers := range []int{1, 2, 8} {
					check(fmt.Sprintf("local, %d partitions", parts), frame.NewFrameChunks(train, rows), nil, workers)
					exec, src, stop := distExec(t, train, rows)
					check(fmt.Sprintf("dist, %d partitions", parts), src, exec, workers)
					stop()
				}
			}
			check("local, a single-row partition", frame.NewFrameChunks(train, 1500), nil, 2)
			exec, src, stop := distExec(t, train, 1500)
			check("dist, a single-row partition", src, exec, 2)
			stop()
			check("local, an empty partition", &sizedChunks{f: train, sizes: []int{1500, 0, 1500, 1}}, nil, 2)

			const one = 4 // the constant source column
			seen, gathered := 0, 0
			watched := &seamExec{src: frame.NewFrameChunks(train, 1000), watch: func(spec *shard.PassSpec, p *shard.Partial) {
				if spec.Kind != shard.PassRefine {
					return
				}
				for i, g := range spec.Grids {
					if g.Base == one || g.Base < 0 && g.Gen.Op == "mul" && reflect.DeepEqual(g.Gen.Feats, []int{one, one}) {
						seen++
						gathered += len(p.Gathers[i].Vals)
					}
				}
			}}
			check("local through the seam", watched.src, watched, 1)
			if seen != 2*4 || gathered != 0 { // two columns, four partitions
				t.Fatalf("the constant columns' gathers hold %d values over %d partials, want 0 over 8", gathered, seen)
			}
		})
	}
}

// permExec folds every gather pass's partials after the full wire hop in a
// random order of the partitions — an order the Executor contract does not
// allow and no executor delivers — and every other pass's in partition order.
type permExec struct {
	src frame.ChunkSource
	rng *rand.Rand
	ws  *shard.WorkerState
}

func (e *permExec) Open(_ context.Context, names []string, task core.Task, _ int) error {
	e.ws = shard.NewWorkerState(names, task)
	return nil
}

func (e *permExec) SetLive(_ context.Context, epoch int, nodes []shard.NodeSpec, live []string) error {
	return e.ws.SetLive(epoch, nodes, live)
}

func (e *permExec) RunPass(ctx context.Context, spec *shard.PassSpec, fold func(*shard.Partial) error) (shard.PassResult, error) {
	var res shard.PassResult
	if err := e.src.Reset(); err != nil {
		return res, err
	}
	var frames [][]byte
	for {
		c, err := e.src.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return res, err
		}
		p, err := e.ws.ComputePartial(ctx, spec, c)
		if err != nil {
			return res, err
		}
		frames = append(frames, dist.AppendPartial(nil, spec.Pass, spec.Kind, p))
		e.ws.Release(p)
	}
	if spec.Kind == shard.PassRefine {
		e.rng.Shuffle(len(frames), func(i, j int) { frames[i], frames[j] = frames[j], frames[i] })
	}
	for _, msg := range frames {
		_, p, err := dist.DecodePartial(msg)
		if err != nil {
			return res, err
		}
		res.Rows += p.Rows
		res.Parts++
		if err := fold(p); err != nil {
			return res, err
		}
	}
	return res, nil
}

// TestRegressionCriteriaAreOrderFree is the property the regression
// criterion rides the gather pass on: its tallies are integer sums of the
// coded target, so a regression fit's gather partials folded in any order of
// the partitions, over any partitioning, give every column — source and
// generated — the same tallies and the same criterion bits as one partition
// folded alone. The target is offset by 1e9, where float sums of y and y²
// would carry the order in their low bits. Partitionings are drawn at random,
// empty partitions included, from 2 to 200 partitions.
func TestRegressionCriteriaAreOrderFree(t *testing.T) {
	train := gridFrame(t, core.RegressionTask())
	for i := range train.Label {
		train.Label[i] += 1e9
	}
	cfg := shard.Config{Core: core.DefaultConfig()}
	cfg.Core.Task = core.RegressionTask()
	ctx := context.Background()
	wantGen, wantLive, err := shard.CutGenerated(ctx, frame.NewFrameChunks(train, gridRows), nil, cfg, gridGens)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(39))
	for trial := 0; trial < 12; trial++ {
		sizes := make([]int, 2+rng.Intn(199))
		for r := 0; r < gridRows; r++ {
			sizes[rng.Intn(len(sizes))]++
		}
		exec := &permExec{src: &sizedChunks{f: train, sizes: sizes}, rng: rng}
		gen, live, err := shard.CutGenerated(ctx, exec.src, exec, cfg, gridGens)
		if err != nil {
			t.Fatalf("%d partitions: %v", len(sizes), err)
		}
		for i, got := range append(gen, live...) {
			want := append(wantGen, wantLive...)[i]
			if !slices.Equal(got.Counts, want.Counts) || math.Float64bits(got.Crit) != math.Float64bits(want.Crit) {
				t.Fatalf("%d partitions, column %d: tallies %v and η² %v, want %v and %v",
					len(sizes), i, got.Counts, got.Crit, want.Counts, want.Crit)
			}
		}
	}
}

// TestGramMomentsMatchCountPassFormula pins the moments the Pearson stage
// reads of a generated survivor, which the Gram pass computes: over 1, 3 and
// 4 partitions, through the in-process executor and the distributed one,
// every generated candidate's moments equal, bit for bit, Moments.AddAll over
// each chunk of its materialised column merged in partition order — the
// count pass's formula before the Gram pass took it over. A constant
// candidate (one·one) is still the one constant() reports.
func TestGramMomentsMatchCountPassFormula(t *testing.T) {
	train := gridFrame(t, core.BinaryTask())
	cfg := shard.Config{Core: core.DefaultConfig()}
	reg := operators.NewRegistry()
	cols := make([][]float64, len(gridGens))
	for i, g := range gridGens {
		op, err := reg.Get(g.Op)
		if err != nil {
			t.Fatal(err)
		}
		ap, err := op.Fit(make([][]float64, 2))
		if err != nil {
			t.Fatal(err)
		}
		cols[i] = make([]float64, gridRows)
		core.Apply(ap, [][]float64{train.Col(g.Feats[0]), train.Col(g.Feats[1])}, cols[i])
	}
	bits := func(m sketch.Moments) [5]uint64 {
		return [5]uint64{uint64(m.Rows), uint64(m.N), uint64(m.NaNs), math.Float64bits(m.Mean), math.Float64bits(m.M2)}
	}
	for _, parts := range []int{1, 3, 4} {
		rows := (gridRows + parts - 1) / parts
		want := make([]sketch.Moments, len(cols))
		for i, col := range cols {
			for lo := 0; lo < gridRows; lo += rows {
				var part sketch.Moments
				part.AddAll(col[lo:min(lo+rows, gridRows)])
				want[i].Merge(&part)
			}
		}
		check := func(name string, src frame.ChunkSource, exec shard.Executor) {
			t.Helper()
			got, constant, err := shard.GramMoments(context.Background(), src, exec, cfg, gridGens)
			if err != nil {
				t.Fatalf("%s, %d partitions: %v", name, parts, err)
			}
			for i := range got {
				if bits(got[i]) != bits(want[i]) {
					t.Fatalf("%s, %d partitions: candidate %d (%s %v): moments %+v, want %+v",
						name, parts, i, gridGens[i].Op, gridGens[i].Feats, got[i], want[i])
				}
				if wantConst := i == 5; constant[i] != wantConst {
					t.Fatalf("%s, %d partitions: candidate %d (%s %v) constant=%v, want %v",
						name, parts, i, gridGens[i].Op, gridGens[i].Feats, constant[i], wantConst)
				}
			}
		}
		check("local", frame.NewFrameChunks(train, rows), nil)
		exec, src, stop := distExec(t, train, rows)
		check("dist", src, exec)
		stop()
	}
}

// gatherWith returns the index of the first gather of the partial that ok
// accepts.
func gatherWith(p *shard.Partial, ok func(g *shard.Gather) bool) int {
	for i, g := range p.Gathers {
		if ok(g) {
			return i
		}
	}
	panic("no gather of the shape the corruption needs")
}

// TestGridFoldsRefusePeerBytes is the table of what the grid folds — and the
// Gram fold, which takes the generated survivors' moments over from the
// count pass — refuse: every row corrupts one partial of a real fit — on the
// source columns' count pass, a round's count or gather pass, or its Gram
// pass — by pointer and in wire form, and the fit must stop on the named
// error, positioned on the partial, instead of cutting or correlating
// anywhere. The rows named "regression: …" corrupt a regression fit's
// gather, whose codes and span tallies are the coded target's, and those
// named "multiclass:3: …" a three-class fit's.
func TestGridFoldsRefusePeerBytes(t *testing.T) {
	tasks := []core.Task{core.BinaryTask(), core.RegressionTask(), core.MulticlassTask(3)}
	trains := map[core.Task]*frame.Frame{}
	for _, task := range tasks {
		trains[task] = gridFrame(t, task)
	}
	taskOf := func(name string) core.Task {
		for _, task := range tasks[1:] {
			if strings.HasPrefix(name, task.String()+": ") {
				return task
			}
		}
		return core.BinaryTask()
	}
	gridded := func(g *shard.Gather) bool { return len(g.Sizes) > 1 } // a whole-column gather has one bucket
	shortCount := func(p *shard.Partial) int {
		for i, gc := range p.Counts {
			for b, n := range gc.Counts {
				if n > 0 {
					gc.Counts[b]--
					return i
				}
			}
		}
		panic("no counts")
	}
	moments := func(edit func(m *sketch.Moments)) func(p *shard.Partial) int {
		return func(p *shard.Partial) int {
			edit(&p.Moments[0])
			return 0
		}
	}
	// Passes of a kind count from 1: the first count and gather passes cut the
	// source columns, the second ones the round's candidates.
	for _, tc := range []struct {
		name string
		kind shard.PassKind
		nth  int
		want error
		bad  func(p *shard.Partial) int // returns the column it corrupted
	}{
		// A source column's counts answer to its non-NaN rows, which the base
		// pass reported: one more value, filed from a NaN row, is refused.
		{"source counts that count a NaN row", shard.PassSketchGen, 1, shard.ErrGridCounts, func(p *shard.Partial) int {
			const nanCol = 6
			for b, n := range p.Counts[nanCol].Counts {
				if n > 0 {
					p.Counts[nanCol].Counts[b]++
					return nanCol
				}
			}
			panic("no counts")
		}},
		{"source counts short of the non-NaN rows", shard.PassSketchGen, 1, shard.ErrGridCounts, shortCount},
		{"counts short of the partition's rows", shard.PassSketchGen, 2, shard.ErrGridCounts, shortCount},
		// A generated column holds no NaN, so the rows are what the counts
		// answer to: moments beside them, as a version-2 count partial carried,
		// that file the missing row as a NaN excuse nothing.
		{"counts short of the rows, the row claimed as a NaN", shard.PassSketchGen, 2, shard.ErrGridCounts, func(p *shard.Partial) int {
			i := shortCount(p)
			p.Moments = make([]sketch.Moments, len(p.Counts))
			for j := range p.Moments {
				p.Moments[j] = sketch.Moments{Rows: int64(p.Rows), N: int64(p.Rows)}
			}
			p.Moments[i].N, p.Moments[i].NaNs = int64(p.Rows-1), 1
			return i
		}},
		// In wire form the blob decoder refuses this one first, with ErrBlob.
		{"counts without a grid's worth of buckets", shard.PassSketchGen, 2, shard.ErrGridCounts, func(p *shard.Partial) int {
			for i := range p.Counts {
				if p.Counts[i].Counts != nil {
					p.Counts[i].Counts = p.Counts[i].Counts[:10]
					return i
				}
			}
			panic("no counts")
		}},
		// The first value of a gather is in its first non-empty bucket.
		{"a gather larger than its bucket", shard.PassRefine, 2, shard.ErrGatherSize, func(p *shard.Partial) int {
			i := gatherWith(p, func(g *shard.Gather) bool { return len(g.Vals) > 0 })
			g := p.Gathers[i]
			for j := range g.Sizes {
				if g.Sizes[j] > 0 {
					g.Sizes[j]++
					break
				}
			}
			g.Vals = append([]float64{g.Vals[0]}, g.Vals...)
			return i
		}},
		// And its last value in its last non-empty one.
		{"a gather short of a value", shard.PassRefine, 2, shard.ErrGatherSize, func(p *shard.Partial) int {
			i := gatherWith(p, func(g *shard.Gather) bool { return len(g.Vals) > 0 })
			g := p.Gathers[i]
			for j := len(g.Sizes) - 1; j >= 0; j-- {
				if g.Sizes[j] > 0 {
					g.Sizes[j]--
					break
				}
			}
			g.Vals = g.Vals[:len(g.Vals)-1]
			return i
		}},
		{"a value outside its bucket", shard.PassRefine, 2, shard.ErrGatherBucket, func(p *shard.Partial) int {
			i := gatherWith(p, func(g *shard.Gather) bool { return gridded(g) && len(g.Vals) > 0 })
			p.Gathers[i].Vals[0] += 1e6
			return i
		}},
		{"a class id past the classes", shard.PassRefine, 2, shard.ErrClassID, func(p *shard.Partial) int {
			i := gatherWith(p, func(g *shard.Gather) bool { return len(g.Codes) > 0 })
			p.Gathers[i].Codes[0] = 2
			return i
		}},
		{"regression: a code past the target code's range", shard.PassRefine, 2, shard.ErrClassID, func(p *shard.Partial) int {
			i := gatherWith(p, func(g *shard.Gather) bool { return len(g.Codes) > 0 })
			p.Gathers[i].Codes[0] = math.MaxInt64 / 2
			return i
		}},
		{"regression: span sums past what their rows can reach", shard.PassRefine, 2, shard.ErrGatherSize, func(p *shard.Partial) int {
			p.Gathers[0].Spans[1] = 1 << 62
			return 0
		}},
		{"regression: a span tally short of a row", shard.PassRefine, 2, shard.ErrGatherSize, func(p *shard.Partial) int {
			i := gatherWith(p, func(g *shard.Gather) bool { return g.Spans[0] > 0 })
			p.Gathers[i].Spans[0]--
			return i
		}},
		// Class counts, each non-negative, that wrap around int64 to the
		// span's true rows: the resolve's row check alone would add them up
		// to what it wants.
		{"multiclass:3: span class counts that wrap to their rows", shard.PassRefine, 2, shard.ErrGatherSize, func(p *shard.Partial) int {
			sp := p.Gathers[0].Spans[:3]
			const third = 6148914691236517315 // just over 2^64/3: the three counts wrap
			rows := uint64(sp[0] + sp[1] + sp[2])
			sp[0], sp[1], sp[2] = third, third, int64(rows-2*third)
			return 0
		}},
		{"survivor moments over more rows than the partial's", shard.PassGramCodes, 1, shard.ErrGramMoments,
			moments(func(m *sketch.Moments) { m.Rows++; m.N++ })},
		{"survivor moments with a NaN", shard.PassGramCodes, 1, shard.ErrGramMoments,
			moments(func(m *sketch.Moments) { m.N--; m.NaNs++ })},
		{"survivor moments with a negative M2", shard.PassGramCodes, 1, shard.ErrGramMoments,
			moments(func(m *sketch.Moments) { m.M2 = -1 })},
		{"survivor moments with a finite mean and a NaN M2", shard.PassGramCodes, 1, shard.ErrGramMoments,
			moments(func(m *sketch.Moments) { m.M2 = math.NaN() })},
	} {
		for _, wire := range []bool{false, true} {
			task := taskOf(tc.name)
			exec := &seamExec{src: frame.NewFrameChunks(trains[task], 1000), wire: wire, bad: tc.kind, nth: tc.nth,
				corrupt: func(p *shard.Partial, wire bool) {
					if !wire {
						tc.bad(p)
						return
					}
					// Corrupt the typed form, then put it back on the wire.
					spec := &shard.PassSpec{Kind: tc.kind}
					if tc.kind == shard.PassRefine {
						spec.Grids = make([]shard.GridSpec, len(p.Blobs))
					}
					q := *p
					if err := q.Decode(spec, sketch.NewArena()); err != nil {
						t.Fatal(err)
					}
					i := tc.bad(&q)
					if tc.kind == shard.PassGramCodes {
						i++ // the Gram is blob 0
					}
					p.Blobs = append([][]byte(nil), p.Blobs...)
					p.Blobs[i] = q.AppendBlob(nil, tc.kind, i)
				}}
			want := tc.want
			if wire && tc.name == "counts without a grid's worth of buckets" {
				want = shard.ErrBlob
			}
			_, _, _, err := gridFit(exec, task)
			if !errors.Is(err, want) || !strings.HasPrefix(err.Error(), "shard: ") {
				t.Errorf("%s, wire=%v: the fit returned %v, want %v", tc.name, wire, err, want)
			}
		}
	}
	// A truncated blob of either grid pass fails its decode, named.
	for kind, nth := range map[shard.PassKind]int{shard.PassSketchGen: 1, shard.PassRefine: 2} {
		exec := &seamExec{src: frame.NewFrameChunks(trains[core.BinaryTask()], 1000), wire: true, bad: kind, nth: nth,
			corrupt: func(p *shard.Partial, _ bool) { p.Blobs[0] = p.Blobs[0][:len(p.Blobs[0])-3] }}
		if _, _, _, err := gridFit(exec, core.BinaryTask()); !errors.Is(err, shard.ErrBlob) {
			t.Errorf("truncated kind %d blob: the fit returned %v, want %v", kind, err, shard.ErrBlob)
		}
	}
}

// gridFit is a one-round fit of the task through a seam executor.
func gridFit(exec *seamExec, task core.Task) (*core.Pipeline, *core.Report, *shard.Stats, error) {
	cfg := core.DefaultConfig()
	cfg.Task = task
	cfg.Seed = 1
	cfg.Miner.NumTrees, cfg.Ranker.NumTrees = 8, 8
	return shard.Fit(context.Background(), exec.src, shard.Config{Core: cfg, Exec: exec})
}
