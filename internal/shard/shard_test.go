package shard

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/frame"
)

// workload generates a deterministic binary dataset in the shape the
// repository benchmark fits (bench/workload.go: Interactions = Dim/3, signal
// scale 2.5).
func workload(t *testing.T, rows, dim int) *frame.Frame {
	t.Helper()
	ds, err := datagen.Generate(datagen.Spec{
		Name: "shard-test", Train: rows, Test: 64, Dim: dim,
		Interactions: dim / 3, SignalScale: 2.5, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ds.Train
}

func fitInMemory(t *testing.T, train *frame.Frame, cfg core.Config) *core.Pipeline {
	t.Helper()
	p, _, err := core.Fit(context.Background(), train, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func assertSameSelection(t *testing.T, want, got *core.Pipeline) {
	t.Helper()
	if len(want.Output) != len(got.Output) {
		t.Fatalf("selected %d features, want %d\n got: %v\nwant: %v",
			len(got.Output), len(want.Output), got.Output, want.Output)
	}
	for i := range want.Output {
		if want.Output[i] != got.Output[i] {
			t.Fatalf("selection diverges at position %d: got %q want %q\n got: %v\nwant: %v",
				i, got.Output[i], want.Output[i], got.Output, want.Output)
		}
	}
}

func nan() float64 { return math.NaN() }

func TestShardedFitRejectsUnsupportedConfigs(t *testing.T) {
	train := workload(t, 500, 4)
	src := frame.NewFrameChunks(train, 100)

	cfg := core.DefaultConfig()
	cfg.Operators = []string{"add", "minmax"} // minmax fits parameters from data
	if _, _, _, err := Fit(context.Background(), src, Config{Core: cfg}); err == nil || !strings.Contains(err.Error(), "minmax") {
		t.Errorf("stateful operator accepted: %v", err)
	}

	cfg = core.DefaultConfig()
	cfg.IVEqualWidth = true
	if _, _, _, err := Fit(context.Background(), src, Config{Core: cfg}); err == nil {
		t.Error("IVEqualWidth accepted")
	}
}

func TestShardedFitSourceValidation(t *testing.T) {
	// Unlabelled source.
	train := workload(t, 500, 4)
	unlabelled := &frame.Frame{Columns: train.Columns}
	if _, _, _, err := Fit(context.Background(), frame.NewFrameChunks(unlabelled, 100), DefaultConfig()); err == nil {
		t.Error("unlabelled source accepted")
	}
	// Empty source.
	empty := frame.NewWithShape(0, 3)
	if _, _, _, err := Fit(context.Background(), frame.NewFrameChunks(empty, 10), DefaultConfig()); err == nil {
		t.Error("empty source accepted")
	}
	// Duplicate column names.
	dup := frame.NewWithShape(50, 2)
	dup.Columns[1].Name = dup.Columns[0].Name
	if _, _, _, err := Fit(context.Background(), frame.NewFrameChunks(dup, 10), DefaultConfig()); err == nil {
		t.Error("duplicate column names accepted")
	}
}

// TestShardedFitRejectsBadLabels: labels that do not fit the task must be
// rejected by the sharded entry point exactly as by the in-memory one.
func TestShardedFitRejectsBadLabels(t *testing.T) {
	train := workload(t, 400, 4)
	for i := range train.Label {
		train.Label[i] = float64(i % 4) // classes in [0,4)
	}
	cfg := core.DefaultConfig()
	cfg.Task = core.MulticlassTask(3) // class 3 is out of range
	if _, _, _, err := Fit(context.Background(), frame.NewFrameChunks(train, 100), Config{Core: cfg}); err == nil {
		t.Error("out-of-range class labels accepted")
	}

	cfg = core.DefaultConfig() // binary task, multiclass labels
	if _, _, _, err := Fit(context.Background(), frame.NewFrameChunks(train, 100), Config{Core: cfg}); err == nil {
		t.Error("non-binary labels accepted by the binary task")
	}
}

// TestRebinBranchMatchesAcrossEngines covers the branch the default
// configuration never takes. Both engines keep a feature's GBDT bin codes for
// as long as it lives — miner, scorer, ranker, next round's miner — which is
// sound only while miner and ranker cut at the same bin count; with 32 and 64
// every stage must bin for itself, in both engines, and a second iteration
// makes round 2's miner rebin what round 1's ranker binned. The two engines
// must still select the same features, and the ones the engines selected
// before codes were carried at all (the fingerprint was recorded from a fit
// made before then).
func TestRebinBranchMatchesAcrossEngines(t *testing.T) {
	const want = "8b33fe7991132492"
	train := workload(t, 3000, 9)
	cfg := core.DefaultConfig()
	cfg.Seed = 1
	cfg.Iterations = 2
	cfg.Miner.MaxBins, cfg.Ranker.MaxBins = 32, 64
	mem := fitInMemory(t, train, cfg)
	sharded, _, st, err := Fit(context.Background(), frame.NewFrameChunks(train, 750), Config{Core: cfg})
	if err != nil {
		t.Fatal(err)
	}
	assertSameSelection(t, mem, sharded)
	// Base, the source columns' two grid passes and codes, three passes a
	// round, and one more between the rounds: the selection's ranker codes are
	// not the next miner's, so the live set is coded again.
	if st.Passes != 11 {
		t.Errorf("sharded fit took %d passes, want 11", st.Passes)
	}
	h := fnv.New64a()
	h.Write([]byte(strings.Join(mem.Formulas(), "|")))
	if got := fmt.Sprintf("%016x", h.Sum64()); got != want {
		t.Errorf("selection fingerprint %s, want %s:\n%v", got, want, mem.Formulas())
	}
}
