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
// every bin count (stats.QuantileScratch), its binner cuts, and for a count
// task its criterion's per-bin class counts and criterion (stats.IVScratch,
// stats.CritScratch).
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
	if task.Kind == core.TaskRegression {
		return want
	}
	k := 2
	if task.Kind == core.TaskMulticlass {
		k = task.Classes
	}
	cuts := want.Cuts[cfg.IVBins]
	want.Counts = make([]int32, (len(cuts)+1)*k)
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
func sameGridCut(got, want shard.GridCut, counts bool) error {
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
	if !counts {
		return nil
	}
	if !reflect.DeepEqual(got.Counts, want.Counts) {
		return fmt.Errorf("criterion class counts:\n got %v\nwant %v", got.Counts, want.Counts)
	}
	if math.Float64bits(got.Crit) != math.Float64bits(want.Crit) {
		return fmt.Errorf("criterion %v, want %v", got.Crit, want.Crit)
	}
	return nil
}

// TestGridCutsAreExact is the differential pin of the grid passes: for every
// task family, every generated candidate's cuts (at the miner's, the
// criterion's and the ranker's bin counts, and as binner cuts) and, for a
// count task, its criterion's per-bin class counts and criterion must equal
// the in-memory kernel's on the materialised column bit for bit — and the
// source columns' cut tables (base sketches and their refiners) likewise.
// The columns are the shapes that stress a grid (see gridFrame); the fits run
// over 1, 3 and 7 partitions, a single-row partition and an empty one, on
// pools of 1, 2 and 8 workers, through the in-process executor and the
// in-process distributed one.
func TestGridCutsAreExact(t *testing.T) {
	for _, task := range []core.Task{core.BinaryTask(), core.MulticlassTask(3), core.RegressionTask()} {
		task := task
		t.Run(task.String(), func(t *testing.T) {
			train := gridFrame(t, task)
			cfg := shard.Config{Core: core.DefaultConfig(), SketchSize: 128}
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
			counts := task.Kind != core.TaskRegression
			check := func(name string, src frame.ChunkSource, exec shard.Executor, workers int) {
				t.Helper()
				cfg := cfg
				cfg.Core.Workers = workers
				gen, live, err := shard.CutGenerated(context.Background(), src, exec, cfg, gridGens)
				if err != nil {
					t.Fatalf("%s, %d workers: %v", name, workers, err)
				}
				for i := range gen {
					if err := sameGridCut(gen[i], wantGen[i], counts); err != nil {
						t.Fatalf("%s, %d workers: candidate %d (%s %v): %v", name, workers, i, gridGens[i].Op, gridGens[i].Feats, err)
					}
				}
				for j := range live {
					if err := sameGridCut(live[j], wantLive[j], false); err != nil {
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
		})
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

// TestGridFoldsRefusePeerBytes is the table of what the grid folds refuse:
// every row corrupts one partial of a real fit — on the count pass or a
// round's gather pass — by pointer and in wire form, and the fit must stop on
// the named error, positioned on the partial, instead of cutting anywhere.
func TestGridFoldsRefusePeerBytes(t *testing.T) {
	train := gridFrame(t, core.BinaryTask())
	gridded := func(g *shard.Gather) bool { return len(g.Sizes) > 1 } // a whole-column gather has one bucket
	for _, tc := range []struct {
		name string
		kind shard.PassKind
		want error
		bad  func(p *shard.Partial) int // returns the candidate it corrupted
	}{
		{"counts short of the non-NaN rows", shard.PassSketchGen, shard.ErrGridCounts, func(p *shard.Partial) int {
			for i, gc := range p.Counts {
				for b, n := range gc.Counts {
					if n > 0 {
						gc.Counts[b]--
						return i
					}
				}
			}
			panic("no counts")
		}},
		// In wire form the blob decoder refuses this one first, with ErrBlob.
		{"counts without a grid's worth of buckets", shard.PassSketchGen, shard.ErrGridCounts, func(p *shard.Partial) int {
			for i := range p.Counts {
				if p.Counts[i].Counts != nil {
					p.Counts[i].Counts = p.Counts[i].Counts[:10]
					return i
				}
			}
			panic("no counts")
		}},
		// The first value of a gather is in its first non-empty bucket.
		{"a gather larger than its bucket", shard.PassRefine, shard.ErrGatherSize, func(p *shard.Partial) int {
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
		{"a gather short of a value", shard.PassRefine, shard.ErrGatherSize, func(p *shard.Partial) int {
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
		{"a value outside its bucket", shard.PassRefine, shard.ErrGatherBucket, func(p *shard.Partial) int {
			i := gatherWith(p, func(g *shard.Gather) bool { return gridded(g) && len(g.Vals) > 0 })
			p.Gathers[i].Vals[0] += 1e6
			return i
		}},
		{"a class id past the classes", shard.PassRefine, shard.ErrClassID, func(p *shard.Partial) int {
			i := gatherWith(p, func(g *shard.Gather) bool { return len(g.Class) > 0 })
			p.Gathers[i].Class[0] = 2
			return i
		}},
	} {
		// The count pass is the first of its kind; the live refinement is the
		// first gather pass (the sketches are lossy), the round's the second.
		nth := 1
		if tc.kind == shard.PassRefine {
			nth = 2
		}
		for _, wire := range []bool{false, true} {
			exec := &seamExec{src: frame.NewFrameChunks(train, 1000), wire: wire, bad: tc.kind, nth: nth,
				corrupt: func(p *shard.Partial, wire bool) {
					if !wire {
						tc.bad(p)
						return
					}
					// Corrupt the typed form, then put it back on the wire.
					spec := &shard.PassSpec{Kind: tc.kind}
					if tc.kind == shard.PassRefine {
						spec.Grids = make([]shard.GridSpec, len(p.Blobs)-train.NumCols())
						spec.Entries = make([]shard.EntrySpec, train.NumCols())
					}
					q := *p
					if err := q.Decode(spec, sketch.NewArena()); err != nil {
						t.Fatal(err)
					}
					i := tc.bad(&q)
					if tc.kind == shard.PassSketchGen {
						i *= 2
					}
					p.Blobs = append([][]byte(nil), p.Blobs...)
					p.Blobs[i] = q.AppendBlob(nil, tc.kind, i)
				}}
			want := tc.want
			if wire && tc.name == "counts without a grid's worth of buckets" {
				want = shard.ErrBlob
			}
			_, _, _, err := gridFit(exec)
			if !errors.Is(err, want) || !strings.HasPrefix(err.Error(), "shard: ") {
				t.Errorf("%s, wire=%v: the fit returned %v, want %v", tc.name, wire, err, want)
			}
		}
	}
	// A truncated blob of either grid pass fails its decode, named.
	for kind, nth := range map[shard.PassKind]int{shard.PassSketchGen: 1, shard.PassRefine: 2} {
		exec := &seamExec{src: frame.NewFrameChunks(train, 1000), wire: true, bad: kind, nth: nth,
			corrupt: func(p *shard.Partial, _ bool) { p.Blobs[0] = p.Blobs[0][:len(p.Blobs[0])-3] }}
		if _, _, _, err := gridFit(exec); !errors.Is(err, shard.ErrBlob) {
			t.Errorf("truncated kind %d blob: the fit returned %v, want %v", kind, err, shard.ErrBlob)
		}
	}
}

// gridFit is a one-round binary fit through a seam executor.
func gridFit(exec *seamExec) (*core.Pipeline, *core.Report, *shard.Stats, error) {
	cfg := core.DefaultConfig()
	cfg.Seed = 1
	cfg.Miner.NumTrees, cfg.Ranker.NumTrees = 8, 8
	return shard.Fit(context.Background(), exec.src, shard.Config{Core: cfg, SketchSize: 128, Exec: exec})
}
