package shard_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/dist"
	"repro/internal/frame"
	"repro/internal/shard"
	"repro/internal/sketch"
	"repro/internal/stats"
)

// seamExec is a fake Executor standing exactly on the seam: it streams a
// source through WorkerState.ComputePartial one chunk at a time and hands
// each partial to the fold either by pointer or after the full wire hop
// (dist's partial frame with its blobs rendered by Partial.AppendBlob, then
// Partial.Decode inside the fold). One partial of one pass kind can be
// corrupted on the way.
type seamExec struct {
	src  frame.ChunkSource
	wire bool

	// corrupt, when set, is applied to the first partial of pass kind bad just
	// before it reaches the fold.
	bad     shard.PassKind
	nth     int // which pass of kind bad, from 1 (0: the first)
	corrupt func(p *shard.Partial, wire bool)

	// pools, when set, has every chunk computed once more on a shared pool of
	// each size; each result must render to the bytes the first did.
	pools  []int
	others []*shard.WorkerState
	t      *testing.T

	ws    *shard.WorkerState
	kinds map[shard.PassKind]int
	specs []uint64 // digest of every pass spec, in issue order

	frame []byte // reused across partials, as a dist worker reuses its own
}

func (e *seamExec) Open(_ context.Context, names []string, task core.Task, sketchSize int) error {
	e.ws = shard.NewWorkerState(names, task, sketchSize)
	e.kinds = map[shard.PassKind]int{}
	e.others = nil
	for _, workers := range e.pools {
		e.others = append(e.others, shard.NewWorkerStateOn(names, task, sketchSize, workers))
	}
	return nil
}

func (e *seamExec) SetLive(_ context.Context, epoch int, nodes []shard.NodeSpec, live []string) error {
	for _, ws := range e.others {
		if err := ws.SetLive(epoch, nodes, live); err != nil {
			return err
		}
	}
	return e.ws.SetLive(epoch, nodes, live)
}

// specDigest hashes everything a spec says. Later specs carry what earlier
// folds produced (cuts, brackets, mined combinations, surviving entries), so
// equal digest sequences mean equal fitter state after every pass.
func specDigest(s *shard.PassSpec) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d %d %d|%v|%v|%v|%v", s.Pass, s.Kind, s.Epoch,
		s.LiveCuts, s.Grids, s.Entries, s.Refines)
	return h.Sum64()
}

func (e *seamExec) RunPass(ctx context.Context, spec *shard.PassSpec, fold func(*shard.Partial) error) (shard.PassResult, error) {
	e.kinds[spec.Kind]++
	e.specs = append(e.specs, specDigest(spec))
	var res shard.PassResult
	if err := e.src.Reset(); err != nil {
		return res, err
	}
	for {
		c, err := e.src.Next()
		if errors.Is(err, io.EOF) {
			return res, nil
		}
		if err != nil {
			return res, err
		}
		computed, err := e.ws.ComputePartial(ctx, spec, c)
		if err != nil {
			return res, err
		}
		p := computed
		if len(e.others) > 0 {
			// The whole wire form: every blob through BlobCount/AppendBlob plus
			// the plain Labels, Ints and Codes.
			e.frame = dist.AppendPartial(e.frame[:0], spec.Pass, spec.Kind, computed)
			for i, ws := range e.others {
				q, err := ws.ComputePartial(ctx, spec, c)
				if err != nil {
					return res, err
				}
				if got := dist.AppendPartial(nil, spec.Pass, spec.Kind, q); !bytes.Equal(got, e.frame) {
					e.t.Errorf("pass kind %d chunk %d: a pool of %d renders %d bytes that differ from the default pool's %d",
						spec.Kind, c.Index, e.pools[i], len(got), len(e.frame))
				}
				ws.Release(q)
			}
		}
		if e.wire {
			e.frame = dist.AppendPartial(e.frame[:0], spec.Pass, spec.Kind, computed)
			if _, p, err = dist.DecodePartial(e.frame); err != nil {
				return res, err
			}
		}
		if e.corrupt != nil && spec.Kind == e.bad && e.kinds[spec.Kind] == max(e.nth, 1) && res.Parts == 0 {
			e.corrupt(p, e.wire)
		}
		rows := p.Rows
		err = fold(p)
		e.ws.Release(computed)
		if err != nil {
			return res, err
		}
		res.Rows += rows
		res.Parts++
	}
}

var seamTasks = []struct {
	task    core.Task
	target  datagen.TargetKind
	classes int
	kinds   []shard.PassKind
}{
	// No score kind: the mined combinations are scored on the resident miner
	// codes (core.ScoreCombos), so no task streams a pass for them.
	{core.BinaryTask(), datagen.TargetBinary, 0, []shard.PassKind{
		shard.PassBaseSketch, shard.PassCodes, shard.PassSketchGen,
		shard.PassRefine, shard.PassGramCodes}},
	{core.MulticlassTask(3), datagen.TargetMulticlass, 3, []shard.PassKind{
		shard.PassBaseSketch, shard.PassCodes, shard.PassSketchGen,
		shard.PassRefine, shard.PassGramCodes}},
	{core.RegressionTask(), datagen.TargetRegression, 0, []shard.PassKind{
		shard.PassBaseSketch, shard.PassCodes, shard.PassSketchGen,
		shard.PassRefine, shard.PassHistIDs, shard.PassGramCodes}},
}

// seamFit runs one small sharded fit through exec (nil: the in-process
// executor). The sketch size is far below the row count, so the quantile
// summaries are lossy and the refine passes really run; a second iteration
// makes round 2 replay round 1's node program. Short boosting runs keep the
// table fast — the GBDT stages are not what it tests. workers sizes the
// fitter's pool, the one its folds and cut derivations run on.
func seamFit(t *testing.T, task core.Task, train *frame.Frame, iterations, workers int, exec shard.Executor) (*core.Pipeline, *core.Report, *shard.Stats, error) {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.Task = task
	cfg.Seed = 1
	cfg.Iterations = iterations
	cfg.Workers = workers
	cfg.Miner.NumTrees, cfg.Ranker.NumTrees = 12, 12
	return shard.Fit(context.Background(), frame.NewFrameChunks(train, 300),
		shard.Config{Core: cfg, SketchSize: 128, Exec: exec})
}

// corruptions are the wrong shapes a kernel or a peer could hand a fold. Each
// lists the pass kinds it applies to; every fold must answer with a typed
// error — never a panic, never silently wrong statistics.
var corruptions = []struct {
	name   string
	kinds  []shard.PassKind
	nth    int  // which pass of the kind, from 1 (0: the first)
	counts bool // a count task's only
	apply  func(p *shard.Partial, wire bool)
}{
	{"short Ints",
		[]shard.PassKind{shard.PassHistIDs}, 0, false,
		func(p *shard.Partial, _ bool) { p.Ints = p.Ints[:len(p.Ints)-1] }},
	{"missing payload",
		[]shard.PassKind{shard.PassBaseSketch, shard.PassCodes, shard.PassSketchGen, shard.PassRefine, shard.PassGramCodes}, 0, false,
		func(p *shard.Partial, _ bool) {
			p.Blobs, p.Codes = nil, nil
			p.Quantiles, p.Moments, p.Refiners, p.Hists, p.Gram = nil, nil, nil, nil, nil
			p.Sample, p.Counts, p.Gathers = nil, nil, nil
		}},
	{"missing gathers",
		[]shard.PassKind{shard.PassRefine}, 2, false,
		func(p *shard.Partial, _ bool) {
			p.Blobs, p.Gathers, p.Hists = nil, nil, nil
		}},
	{"rows past n",
		[]shard.PassKind{shard.PassCodes, shard.PassSketchGen, shard.PassRefine, shard.PassHistIDs, shard.PassGramCodes}, 0, false,
		func(p *shard.Partial, _ bool) { p.Start = 1 << 30 }},
	{"short code column",
		[]shard.PassKind{shard.PassCodes}, 0, false,
		func(p *shard.Partial, _ bool) { p.Codes[0] = p.Codes[0][:len(p.Codes[0])-1] }},
	{"wrong Gram K",
		[]shard.PassKind{shard.PassGramCodes}, 0, false,
		func(p *shard.Partial, wire bool) {
			if wire {
				k := len(p.Codes) + 1
				p.Blobs[0] = sketch.AppendGram(nil, sketch.NewGram(k))
				return
			}
			p.Gram = sketch.NewGram(p.Gram.K() + 1)
		}},
	// The resident codes index the GBDT histograms and the combination
	// scorer's cell tables: a code beyond its column's bins must stop at the
	// fold that would place it, not panic a pool worker of the trainer.
	{"code outside its bins",
		[]shard.PassKind{shard.PassCodes, shard.PassGramCodes}, 0, false,
		func(p *shard.Partial, _ bool) {
			for _, codes := range p.Codes {
				if len(codes) > 0 { // a gram partial leaves aliased columns nil
					codes[0] = 255
					return
				}
			}
		}},
	{"id out of range",
		[]shard.PassKind{shard.PassHistIDs}, 0, false,
		func(p *shard.Partial, _ bool) { p.Ints[0] = 1 << 20 }},
	{"id below NaN marker",
		[]shard.PassKind{shard.PassHistIDs}, 0, false,
		func(p *shard.Partial, _ bool) { p.Ints[0] = -2 }},
	// Wire tag 5 was a MomentHist codec no fit used; the live criterion
	// histograms of a gather partial must not take one in, by either road.
	{"MomentHist as a count histogram",
		[]shard.PassKind{shard.PassRefine}, 2, true,
		func(p *shard.Partial, wire bool) {
			if wire {
				last := len(p.Blobs) - 1
				p.Blobs[last] = append([]byte{5}, p.Blobs[last][1:]...)
				return
			}
			p.Hists[len(p.Hists)-1] = sketch.NewMomentHist(nil)
		}},
	{"truncated blob",
		[]shard.PassKind{shard.PassBaseSketch, shard.PassSketchGen, shard.PassRefine, shard.PassGramCodes}, 0, false,
		func(p *shard.Partial, wire bool) {
			if wire {
				p.Blobs[0] = p.Blobs[0][:len(p.Blobs[0])/2]
				return
			}
			p.Rows = -1 // no blob to truncate by pointer: a negative shape instead
		}},
}

// emptyGathers replaces every gather of a refine partial with the gather of
// an empty chunk over the same targets.
func emptyGathers(p *shard.Partial, wire bool) {
	if wire {
		for i, b := range p.Blobs {
			// Tag and u32 target count, then nt+1 below-bracket counters and, per
			// target, two edge counters and a gather length — all zero.
			nt := int(binary.LittleEndian.Uint32(b[1:5]))
			p.Blobs[i] = append(append([]byte(nil), b[:5]...), make([]byte, 8*(nt+1)+20*nt)...)
		}
		return
	}
	for i, r := range p.Refiners {
		p.Refiners[i] = sketch.NewShadowRefiner(r.Brackets())
	}
}

// seamPools are the pool sizes a partial's bytes and the fitter's state are
// held equal across: inline, the pair, an odd size and more than the table's
// columns.
var seamPools = []int{1, 2, 3, 8}

// TestSeam is the one table over the pass seam. For every task family it
// fits through the fake executor by pointer and over the wire hop, and holds
// both to the in-process executor's result: same pass-spec digests pass by
// pass (so the same fitter state after every fold of every pass kind), same
// pipeline, report and stats. Then every pass kind of the task is fed each
// applicable wrong-shape partial, by pointer and in wire form, and the fit
// must fail with a positioned "shard: … partial N …" error; a spec of a
// retired score kind, which a protocol-version-1 peer could still send, must
// come back from the kernel as an unknown-kind error.
//
// Pool-size invariance rides the same table: one fit has every chunk of every
// pass computed on pools of 1, 2, 3 and 8 workers besides the default and
// holds the wire renderings byte-equal, and fits whose fitter pool is each of
// those sizes must issue the same pass-spec digests — the same fitter state
// after every parallel fold and cut derivation.
func TestSeam(t *testing.T) {
	for _, tc := range seamTasks {
		tc := tc
		t.Run(tc.task.String(), func(t *testing.T) {
			ds, err := datagen.Generate(datagen.Spec{
				Name: "seam", Train: 1200, Test: 16, Dim: 6, Interactions: 2, SignalScale: 2.5, Seed: 11,
				Target: tc.target, Classes: tc.classes,
			})
			if err != nil {
				t.Fatal(err)
			}
			train := ds.Train
			wantP, wantRep, wantSt, err := seamFit(t, tc.task, train, 2, 1, nil)
			if err != nil {
				t.Fatal(err)
			}
			var digests [][]uint64
			for _, wire := range []bool{false, true} {
				exec := &seamExec{src: frame.NewFrameChunks(train, 300), wire: wire}
				p, rep, st, err := seamFit(t, tc.task, train, 2, 1, exec)
				if err != nil {
					t.Fatalf("wire=%v: %v", wire, err)
				}
				if !reflect.DeepEqual(p.Output, wantP.Output) || !reflect.DeepEqual(p.Formulas(), wantP.Formulas()) {
					t.Fatalf("wire=%v: selection diverged from the in-process executor:\n got %v\nwant %v", wire, p.Output, wantP.Output)
				}
				if *st != *wantSt {
					t.Fatalf("wire=%v: stats %+v, want %+v", wire, *st, *wantSt)
				}
				for i, ir := range rep.Iterations {
					w := wantRep.Iterations[i]
					got := [...]any{ir.CombosMined, ir.CombosKept, ir.BestGainRatio, ir.Generated, ir.Candidates, ir.AfterIV, ir.AfterPearson, ir.Selected}
					want := [...]any{w.CombosMined, w.CombosKept, w.BestGainRatio, w.Generated, w.Candidates, w.AfterIV, w.AfterPearson, w.Selected}
					if got != want {
						t.Fatalf("wire=%v: round %d report %v, want %v", wire, i+1, got, want)
					}
				}
				for _, kind := range tc.kinds {
					if exec.kinds[kind] == 0 {
						t.Errorf("wire=%v: pass kind %d never ran", wire, kind)
					}
				}
				if len(exec.kinds) != len(tc.kinds) {
					t.Errorf("wire=%v: ran pass kinds %v, want exactly %v", wire, exec.kinds, tc.kinds)
				}
				digests = append(digests, exec.specs)
			}
			if !reflect.DeepEqual(digests[0], digests[1]) {
				t.Fatalf("pass specs diverge between the by-pointer and the wire fold:\n%v\n%v", digests[0], digests[1])
			}

			for _, workers := range seamPools {
				exec := &seamExec{src: frame.NewFrameChunks(train, 300)}
				if workers == 1 {
					exec.pools, exec.t = seamPools, t
				}
				p, _, _, err := seamFit(t, tc.task, train, 2, workers, exec)
				if err != nil {
					t.Fatalf("fold pool %d: %v", workers, err)
				}
				if !reflect.DeepEqual(exec.specs, digests[0]) {
					t.Fatalf("fold pool %d: pass specs diverge from the one-worker fold:\n%v\n%v", workers, exec.specs, digests[0])
				}
				if !reflect.DeepEqual(p.Formulas(), wantP.Formulas()) {
					t.Fatalf("fold pool %d: selection %v, want %v", workers, p.Output, wantP.Output)
				}
			}

			for _, co := range corruptions {
				for _, kind := range co.kinds {
					if !containsKind(tc.kinds, kind) || (co.counts && tc.task.Kind == core.TaskRegression) {
						continue
					}
					for _, wire := range []bool{false, true} {
						exec := &seamExec{src: frame.NewFrameChunks(train, 300), wire: wire, bad: kind, nth: co.nth, corrupt: co.apply}
						_, _, _, err := seamFit(t, tc.task, train, 1, 1, exec)
						if err == nil {
							t.Errorf("%s, kind %d, wire=%v: the fold accepted it", co.name, kind, wire)
							continue
						}
						if msg := err.Error(); !strings.HasPrefix(msg, "shard: ") || !strings.Contains(msg, "partial") {
							t.Errorf("%s, kind %d, wire=%v: untyped error %q", co.name, kind, wire, msg)
						}
					}
				}
			}
			// A well-formed gather that is not the partition's — here, of no rows
			// at all — passes every shape check and leaves the first pass's
			// targets outside their brackets. The fit must stop on the typed
			// bracket error rather than cut at a bracket edge.
			for _, wire := range []bool{false, true} {
				exec := &seamExec{src: frame.NewFrameChunks(train, 300), wire: wire, bad: shard.PassRefine, corrupt: emptyGathers}
				_, _, _, err := seamFit(t, tc.task, train, 1, 1, exec)
				var be *sketch.BracketError
				if !errors.As(err, &be) || !strings.HasPrefix(err.Error(), "shard: refine ") || !strings.Contains(err.Error(), "outside its bracket") {
					t.Errorf("empty gather, wire=%v: fit returned %v, want a shard: refine … outside its bracket error", wire, err)
				}
			}
			ws := shard.NewWorkerState(train.Names(), tc.task, 128)
			c, err := frame.NewFrameChunks(train, 300).Next()
			if err != nil {
				t.Fatal(err)
			}
			for _, kind := range []shard.PassKind{shard.PassScoreBinary, shard.PassScoreClasses, shard.PassScoreMomentIDs, shard.PassHistCounts} {
				_, err := ws.ComputePartial(context.Background(), &shard.PassSpec{Pass: 3, Kind: kind}, c)
				if err == nil || !strings.HasPrefix(err.Error(), "shard: unknown pass kind") {
					t.Errorf("retired kind %d: the kernel answered %v, want an unknown-kind error", kind, err)
				}
			}
		})
	}
}

func containsKind(kinds []shard.PassKind, k shard.PassKind) bool {
	for _, x := range kinds {
		if x == k {
			return true
		}
	}
	return false
}

// TestSeamPartialSizedByBudget pins what a partial costs to its budget
// instead of the chunk: for chunks from half the budget to a 65,536-row row
// group, every quantile blob of a base-sketch partial declares min(sketch
// size, PartialSize) and renders to at most its header plus 16 B per budgeted
// point, while Count still says every row went in; and every grid-count blob
// of a count partial is one grid's varints — at most 3 bytes a bucket below
// 2^21 rows — beside its range. The partials are computed under pools of 1, 2,
// 3 and 8 and must render to the same bytes, as everywhere on the seam.
func TestSeamPartialSizedByBudget(t *testing.T) {
	const maxRows = 65536
	ds, err := datagen.Generate(datagen.Spec{
		Name: "seam-budget", Train: maxRows, Test: 16, Dim: 6, Interactions: 2, SignalScale: 2.5, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	names := ds.Train.Names()
	grid := stats.Grid{Lo: -4, Scale: stats.NumBuckets / 8.0}
	gens := []shard.GridSpec{
		{Gen: shard.GenSpec{Op: "add", Feats: []int{0, 1}}, Grid: grid}, {Gen: shard.GenSpec{Op: "sub", Feats: []int{2, 3}}, Grid: grid},
		{Gen: shard.GenSpec{Op: "mul", Feats: []int{4, 5}}, Grid: grid}, {Gen: shard.GenSpec{Op: "div", Feats: []int{1, 4}}},
	}
	// An empty one-level sketch's encoding: tag, size, count, NaN count, min,
	// max, level count, then the level's point count and error.
	header := sketch.NewQuantile(1).WireSize() + 4 + 8
	for _, sketchSize := range []int{0, 128} { // the default, and a user's size below the budget
		budget := shard.PartialSize
		if sketchSize > 0 && sketchSize < budget {
			budget = sketchSize
		}
		states := make([]*shard.WorkerState, len(seamPools))
		for i, workers := range seamPools {
			states[i] = shard.NewWorkerStateOn(names, core.BinaryTask(), sketchSize, workers)
			if err := states[i].SetLive(1, nil, names); err != nil {
				t.Fatal(err)
			}
		}
		for _, rows := range []int{512, 1024, 1025, 5000, 20000, maxRows} {
			src := frame.NewFrameChunks(ds.Train, rows)
			c, err := src.Next()
			if err != nil {
				t.Fatal(err)
			}
			for _, spec := range []*shard.PassSpec{
				{Pass: 1, Kind: shard.PassBaseSketch, Epoch: 1},
				{Pass: 2, Kind: shard.PassSketchGen, Epoch: 1, Grids: gens},
			} {
				var first []byte
				for i, ws := range states {
					p, err := ws.ComputePartial(context.Background(), spec, c)
					if err != nil {
						t.Fatal(err)
					}
					if i == 0 && spec.Kind == shard.PassSketchGen {
						for b := 0; b < p.BlobCount(spec.Kind); b += 2 {
							if got, max := p.BlobSize(spec.Kind, b), 16+2+3*stats.NumBuckets; got > max {
								t.Errorf("sketch size %d, %d rows: count blob %d is %d bytes, a grid allows %d", sketchSize, rows, b/2, got, max)
							}
							if n := p.Moments[b/2].Rows; n != int64(rows) {
								t.Errorf("sketch size %d, %d rows: count partial %d covers %d rows", sketchSize, rows, b/2, n)
							}
						}
					}
					if i == 0 && spec.Kind == shard.PassBaseSketch {
						for b := 0; b < 2*len(p.Quantiles); b += 2 {
							if got, max := p.BlobSize(spec.Kind, b), header+16*budget; got > max {
								t.Errorf("sketch size %d, kind %d, %d rows: quantile blob %d is %d bytes, budget allows %d",
									sketchSize, spec.Kind, rows, b/2, got, max)
							}
							q := p.Quantiles[b/2]
							if q.Size() != budget || q.Count()+q.NaNCount() != int64(rows) {
								t.Errorf("sketch size %d, kind %d, %d rows: partial %d declares size %d over %d values, want %d over %d",
									sketchSize, spec.Kind, rows, b/2, q.Size(), q.Count()+q.NaNCount(), budget, rows)
							}
							if lossless := q.ErrorBound() == 0; lossless != (rows <= budget) {
								t.Errorf("sketch size %d, kind %d, %d rows: partial %d lossless=%v, want %v",
									sketchSize, spec.Kind, rows, b/2, lossless, rows <= budget)
							}
						}
					}
					got := dist.AppendPartial(nil, spec.Pass, spec.Kind, p)
					ws.Release(p)
					if i == 0 {
						first = got
					} else if !bytes.Equal(got, first) {
						t.Errorf("sketch size %d, kind %d, %d rows: a pool of %d renders %d bytes that differ from a pool of %d's %d",
							sketchSize, spec.Kind, rows, seamPools[i], len(got), seamPools[0], len(first))
					}
				}
			}
		}
	}
}
