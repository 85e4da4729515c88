package core

import (
	"context"
	"errors"
	"math"
	"reflect"
	"testing"

	"repro/internal/datagen"
	"repro/internal/frame"
	"repro/internal/gbdt"
	"repro/internal/operators"
	"repro/internal/parallel"
)

// streamedCandidate is what the candidate stream computed for one candidate.
type streamedCandidate struct {
	name   string
	ivBits uint64
}

// testStream is the in-memory working set with the loop's per-candidate step
// in front of its queue: generate is what enumerate and Generate do to one
// operator application.
type testStream struct {
	*memorySet
	enum *enumerator
}

func (s testStream) generate(op operators.Operator, feats []int) error {
	n := len(s.enum.cands)
	if err := s.enum.add(op, feats); err != nil {
		return err
	}
	if len(s.enum.cands) == n {
		return nil // a duplicate formula
	}
	return s.queue(s.enum.cands[n])
}

// pairStream opens a candidate stream over train's columns on a pool of the
// given size and returns it with every pair of the first eight columns as
// combinations: with the four arithmetic operators that is some 170
// candidates, several flushes' worth.
func pairStream(t *testing.T, ctx context.Context, train *frame.Frame, task Task, workers int) (testStream, []Combo, []operators.Operator) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Task = task
	cfg.Workers = workers
	cfg, err := NormalizeConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ops, err := cfg.Registry.GetAll(cfg.Operators)
	if err != nil {
		t.Fatal(err)
	}
	m, err := newMemorySet(ctx, &cfg, train, nil)
	if err != nil {
		t.Fatal(err)
	}
	o, _ := m.Open()
	var combos []Combo
	for a := 0; a < 8; a++ {
		for b := a + 1; b < 8; b++ {
			combos = append(combos, Combo{Features: []int{a, b}})
		}
	}
	return testStream{m, newEnumerator(ctx, m, o.Live, featureNames(o.Live), o.Labels)}, combos, ops
}

// streamCandidates runs one round's generate stage as the loop does and lists
// the stream's scores in order. After Generate every generated entry's column
// is back in the arena: the entry holds none, and the arena hands out a full
// chunk's worth of buffers without allocating.
func streamCandidates(t *testing.T, train *frame.Frame, task Task, workers int) []streamedCandidate {
	t.Helper()
	stream, combos, ops := pairStream(t, context.Background(), train, task, workers)
	m := stream.memorySet
	o, _ := m.Open()
	cands, err := enumerate(context.Background(), m, o.Live, featureNames(o.Live), o.Labels, combos, ops)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Generate(cands); err != nil {
		t.Fatal(err)
	}
	out := make([]streamedCandidate, len(m.entries))
	for i, en := range m.entries {
		out[i] = streamedCandidate{en.lf.Name, math.Float64bits(en.lf.crit)}
		if generated := en.cand != nil; generated != (en.lf.train == nil) {
			t.Fatalf("%s: generated=%v but column nil=%v after Generate", en.lf.Name, generated, en.lf.train == nil)
		}
		if cands[i].Column != Column(en.lf) {
			t.Fatalf("%s: candidate %d is not the stream's entry %d", en.lf.Name, i, i)
		}
	}
	bufs := make([][]float64, streamChunk)
	if allocs := testing.AllocsPerRun(1, func() {
		for i := range bufs {
			bufs[i] = m.arena.Get()
		}
		for _, b := range bufs {
			m.arena.Put(b)
		}
	}); allocs != 0 {
		t.Fatalf("the arena allocated %v times for %d buffers: the stream kept columns out of it", allocs, streamChunk)
	}
	return out
}

// keptCombo is one combination that survived Algorithm 2's cut, with its gain
// ratio's bits.
type keptCombo struct {
	key   comboKey
	ratio uint64
}

// keptCombos runs a round's first two stages as Fit does on a pool of the
// given size — bin the live set, train the miner on the codes, mine, score on
// the same codes, keep the top 2M — and lists what was kept, in order.
func keptCombos(t *testing.T, train *frame.Frame, task Task, workers int) []keptCombo {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Task = task
	cfg.Workers = workers
	cfg, err := NormalizeConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m, err := newMemorySet(context.Background(), &cfg, train, nil)
	if err != nil {
		t.Fatal(err)
	}
	o, _ := m.Open()
	live := o.Live
	pb, err := binned(m, live, cfg.Miner)
	if err != nil {
		t.Fatal(err)
	}
	model, err := gbdt.TrainBinnedCtx(context.Background(), pb, train.Label, nil, cfg.Miner)
	if err != nil {
		t.Fatal(err)
	}
	combos := mineCombos(model, []int{2})
	if err := ScoreCombos(context.Background(), combos, pb, task.Code(train.Label), parallel.Get(workers)); err != nil {
		t.Fatal(err)
	}
	var out []keptCombo
	for _, c := range topCombos(combos, 2*len(live)) {
		out = append(out, keptCombo{keyOf(c.Features), math.Float64bits(c.GainRatio)})
	}
	return out
}

// TestFitDeterministicAcrossWorkerCounts is the contract the parallel rebuild
// must keep, one level below the selection: no matter how many workers the
// shared pool uses, every kept combination has the same gain ratio and the
// candidate stream gives every candidate the same IV, bit for bit, in the
// same order, for all three tasks. (That whole
// fits then select the same features, with the same formulas in the same
// order — including the fully serial path — is the selection oracle's
// workers axis, TestSelectionOracle at the repository root.)
// CI runs this under -race.
func TestFitDeterministicAcrossWorkerCounts(t *testing.T) {
	ds := testDataset(t)

	for _, tc := range []struct {
		task  Task
		train *frame.Frame
	}{
		{BinaryTask(), ds.Train},
		{MulticlassTask(3), taskFrame(t, datagen.TargetMulticlass, 3, 3000, 10)},
		{RegressionTask(), taskFrame(t, datagen.TargetRegression, 0, 3000, 10)},
	} {
		refKept := keptCombos(t, tc.train, tc.task, 1)
		if len(refKept) < 8 || refKept[0].ratio == 0 {
			t.Fatalf("%s: %d kept combinations, best ratio bits %x: the scorer test needs a ranked list", tc.task, len(refKept), refKept[0].ratio)
		}
		for _, workers := range []int{2, 3, 8} {
			if got := keptCombos(t, tc.train, tc.task, workers); !reflect.DeepEqual(got, refKept) {
				t.Errorf("%s: %d workers kept %v, one worker %v", tc.task, workers, got, refKept)
			}
		}

		ref := streamCandidates(t, tc.train, tc.task, 1)
		if len(ref) < 3*streamChunk {
			t.Fatalf("%s: %d candidates: the stream test needs several flushes", tc.task, len(ref))
		}
		for _, workers := range []int{2, 3, 8} {
			got := streamCandidates(t, tc.train, tc.task, workers)
			if len(got) != len(ref) {
				t.Fatalf("%s: %d workers streamed %d candidates, one worker %d", tc.task, workers, len(got), len(ref))
			}
			for i := range ref {
				if got[i] != ref[i] {
					t.Errorf("%s: %d workers: candidate %d = %+v, one worker %+v", tc.task, workers, i, got[i], ref[i])
				}
			}
		}
	}
}

// cancelApplier computes a sum and cancels the fit's context on the way: the
// cancellation lands while the flush's pool loop is running.
type cancelApplier struct {
	operators.Applier
	cancel context.CancelFunc
}

func (a cancelApplier) TransformInto(cols [][]float64, dst []float64) {
	a.cancel()
	a.Applier.TransformInto(cols, dst)
}

// TestStreamCancelDuringFlush: a context cancelled while a flush is applying
// and scoring its candidates makes the flush return ctx.Err(), with every
// pending column back in the arena and nothing admitted to the entries.
func TestStreamCancelDuringFlush(t *testing.T) {
	ds := testDataset(t)
	for _, workers := range []int{1, 3} {
		ctx, cancel := context.WithCancel(context.Background())
		stream, combos, ops := pairStream(t, ctx, ds.Train, BinaryTask(), workers)
		for _, c := range combos {
			for _, op := range ops {
				if len(stream.pending) == streamChunk-1 {
					break
				}
				if err := stream.generate(op, c.Features); err != nil {
					t.Fatal(err)
				}
			}
		}
		held := map[*float64]bool{}
		for _, en := range stream.pending {
			held[&en.lf.train[0]] = true
		}
		if len(held) != streamChunk-1 {
			t.Fatalf("%d distinct pending columns, want %d", len(held), streamChunk-1)
		}
		mid := stream.pending[len(stream.pending)/2]
		mid.cand.Node.Applier = cancelApplier{mid.cand.Node.Applier, cancel}

		if err := stream.flush(); !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: flush returned %v, want context.Canceled", workers, err)
		}
		if len(stream.pending) != 0 || len(stream.entries) != 0 {
			t.Fatalf("workers=%d: %d pending, %d entries after a cancelled flush", workers, len(stream.pending), len(stream.entries))
		}
		for i := 0; i < streamChunk-1; i++ {
			if buf := stream.arena.Get(); !held[&buf[0]] {
				t.Fatalf("workers=%d: arena buffer %d is not one of the pending columns", workers, i)
			} else {
				delete(held, &buf[0])
			}
		}
		if err := stream.generate(ops[0], combos[0].Features); !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: generate after cancellation returned %v", workers, err)
		}
		cancel()
	}
}
