package shard_test

import (
	"context"
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
	corrupt func(p *shard.Partial, wire bool)

	ws    *shard.WorkerState
	kinds map[shard.PassKind]int
	specs []uint64 // digest of every pass spec, in issue order

	frame []byte // reused across partials, as a dist worker reuses its own
}

func (e *seamExec) Open(_ context.Context, names []string, task core.Task, sketchSize int) error {
	e.ws = shard.NewWorkerState(names, task, sketchSize)
	e.kinds = map[shard.PassKind]int{}
	return nil
}

func (e *seamExec) SetLive(_ context.Context, epoch int, nodes []shard.NodeSpec, live []string) error {
	return e.ws.SetLive(epoch, nodes, live)
}

// specDigest hashes everything a spec says. Later specs carry what earlier
// folds produced (cuts, brackets, mined combinations, surviving entries), so
// equal digest sequences mean equal fitter state after every pass.
func specDigest(s *shard.PassSpec) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d %d %d %d|%v|%v|%v|%v|%v", s.Pass, s.Kind, s.Epoch, s.Classes,
		s.LiveCuts, s.Combos, s.Gens, s.Entries, s.Refines)
	return h.Sum64()
}

func (e *seamExec) RunPass(_ context.Context, spec *shard.PassSpec, fold func(*shard.Partial) error) (shard.PassResult, error) {
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
		computed, err := e.ws.ComputePartial(spec, c)
		if err != nil {
			return res, err
		}
		p := computed
		if e.wire {
			e.frame = dist.AppendPartial(e.frame[:0], spec.Pass, spec.Kind, computed)
			if _, p, err = dist.DecodePartial(e.frame); err != nil {
				return res, err
			}
		}
		if e.corrupt != nil && spec.Kind == e.bad && e.kinds[spec.Kind] == 1 && res.Parts == 0 {
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
	{core.BinaryTask(), datagen.TargetBinary, 0, []shard.PassKind{
		shard.PassBaseSketch, shard.PassCodes, shard.PassScoreBinary, shard.PassSketchGen,
		shard.PassRefine, shard.PassHistCounts, shard.PassGramCodes}},
	{core.MulticlassTask(3), datagen.TargetMulticlass, 3, []shard.PassKind{
		shard.PassBaseSketch, shard.PassCodes, shard.PassScoreClasses, shard.PassSketchGen,
		shard.PassRefine, shard.PassHistCounts, shard.PassGramCodes}},
	{core.RegressionTask(), datagen.TargetRegression, 0, []shard.PassKind{
		shard.PassBaseSketch, shard.PassCodes, shard.PassScoreMomentIDs, shard.PassSketchGen,
		shard.PassRefine, shard.PassHistIDs, shard.PassGramCodes}},
}

// seamFit runs one small sharded fit through exec (nil: the in-process
// executor). The sketch size is far below the row count, so the quantile
// summaries are lossy and the refine passes really run; a second iteration
// makes round 2 replay round 1's node program. Short boosting runs keep the
// table fast — the GBDT stages are not what it tests.
func seamFit(t *testing.T, task core.Task, train *frame.Frame, iterations int, exec shard.Executor) (*core.Pipeline, *core.Report, *shard.Stats, error) {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.Task = task
	cfg.Seed = 1
	cfg.Iterations = iterations
	cfg.Workers = 1
	cfg.Miner.NumTrees, cfg.Ranker.NumTrees = 12, 12
	return shard.Fit(context.Background(), frame.NewFrameChunks(train, 300),
		shard.Config{Core: cfg, SketchSize: 128, Exec: exec})
}

// corruptions are the wrong shapes a kernel or a peer could hand a fold. Each
// lists the pass kinds it applies to; every fold must answer with a typed
// error — never a panic, never silently wrong statistics.
var corruptions = []struct {
	name  string
	kinds []shard.PassKind
	apply func(p *shard.Partial, wire bool)
}{
	{"short Ints",
		[]shard.PassKind{shard.PassScoreBinary, shard.PassScoreClasses, shard.PassScoreMomentIDs, shard.PassHistIDs},
		func(p *shard.Partial, _ bool) { p.Ints = p.Ints[:len(p.Ints)-1] }},
	{"missing payload",
		[]shard.PassKind{shard.PassBaseSketch, shard.PassCodes, shard.PassSketchGen, shard.PassRefine, shard.PassHistCounts, shard.PassGramCodes},
		func(p *shard.Partial, _ bool) {
			p.Blobs, p.Codes = nil, nil
			p.Quantiles, p.Moments, p.Refiners, p.Hists, p.Gram = nil, nil, nil, nil, nil
		}},
	{"rows past n",
		[]shard.PassKind{shard.PassCodes, shard.PassScoreBinary, shard.PassScoreClasses, shard.PassScoreMomentIDs,
			shard.PassSketchGen, shard.PassRefine, shard.PassHistCounts, shard.PassHistIDs, shard.PassGramCodes},
		func(p *shard.Partial, _ bool) { p.Start = 1 << 30 }},
	{"short code column",
		[]shard.PassKind{shard.PassCodes},
		func(p *shard.Partial, _ bool) { p.Codes[0] = p.Codes[0][:len(p.Codes[0])-1] }},
	{"wrong Gram K",
		[]shard.PassKind{shard.PassGramCodes},
		func(p *shard.Partial, wire bool) {
			if wire {
				k := len(p.Codes) + 1
				p.Blobs[0] = sketch.AppendGram(nil, sketch.NewGram(k))
				return
			}
			p.Gram = sketch.NewGram(p.Gram.K() + 1)
		}},
	{"id out of range",
		[]shard.PassKind{shard.PassScoreMomentIDs, shard.PassHistIDs},
		func(p *shard.Partial, _ bool) { p.Ints[0] = 1 << 20 }},
	{"id below NaN marker",
		[]shard.PassKind{shard.PassHistIDs},
		func(p *shard.Partial, _ bool) { p.Ints[0] = -2 }},
	{"truncated blob",
		[]shard.PassKind{shard.PassBaseSketch, shard.PassRefine, shard.PassHistCounts, shard.PassGramCodes},
		func(p *shard.Partial, wire bool) {
			if wire {
				p.Blobs[0] = p.Blobs[0][:len(p.Blobs[0])/2]
				return
			}
			p.Rows = -1 // no blob to truncate by pointer: a negative shape instead
		}},
}

// TestSeam is the one table over the pass seam. For every task family it
// fits through the fake executor by pointer and over the wire hop, and holds
// both to the in-process executor's result: same pass-spec digests pass by
// pass (so the same fitter state after every fold of every pass kind), same
// pipeline, report and stats. Then every pass kind of the task is fed each
// applicable wrong-shape partial, by pointer and in wire form, and the fit
// must fail with a positioned "shard: … partial N …" error.
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
			wantP, wantRep, wantSt, err := seamFit(t, tc.task, train, 2, nil)
			if err != nil {
				t.Fatal(err)
			}
			var digests [][]uint64
			for _, wire := range []bool{false, true} {
				exec := &seamExec{src: frame.NewFrameChunks(train, 300), wire: wire}
				p, rep, st, err := seamFit(t, tc.task, train, 2, exec)
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

			for _, co := range corruptions {
				for _, kind := range co.kinds {
					if !containsKind(tc.kinds, kind) {
						continue
					}
					for _, wire := range []bool{false, true} {
						exec := &seamExec{src: frame.NewFrameChunks(train, 300), wire: wire, bad: kind, corrupt: co.apply}
						_, _, _, err := seamFit(t, tc.task, train, 1, exec)
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
