package shard

import (
	"context"
	"math"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/frame"
)

// workload generates a deterministic synthetic dataset in the shape the
// repository benchmark fits (bench/workload.go: Interactions = Dim/3, signal
// scale 2.5), so equality tests pin the benchmarked distribution.
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
	eng, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p, _, err := eng.Fit(train)
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

// TestShardedFitMatchesInMemory100k is the acceptance pin: a sharded fit
// over 4 partitions of the 100k×50 benchmark workload selects exactly the
// same features, in the same order, as the in-memory path.
func TestShardedFitMatchesInMemory100k(t *testing.T) {
	if testing.Short() {
		t.Skip("100k×50 equality runs only without -short (see the 20k variant)")
	}
	if raceEnabled {
		t.Skip("100k×50 equality is minutes-long under the race detector; the 20k variant covers the same code")
	}
	train := workload(t, 100000, 50)
	cfg := core.DefaultConfig()
	cfg.Seed = 1
	want := fitInMemory(t, train, cfg)

	src := frame.NewFrameChunks(train, 25000) // 4 partitions
	got, report, st, err := Fit(context.Background(), src, Config{Core: cfg})
	if err != nil {
		t.Fatal(err)
	}
	if st.Partitions != 4 {
		t.Fatalf("partitions: got %d want 4", st.Partitions)
	}
	assertSameSelection(t, want, got)
	if len(report.Iterations) != 1 || report.Iterations[0].Selected != len(got.Output) {
		t.Fatalf("report inconsistent with pipeline: %+v", report.Iterations)
	}
}

// TestShardedFitMatchesInMemory20k is the fast always-on equality check
// over 5 partitions.
func TestShardedFitMatchesInMemory20k(t *testing.T) {
	train := workload(t, 20000, 20)
	cfg := core.DefaultConfig()
	cfg.Seed = 1
	want := fitInMemory(t, train, cfg)

	src := frame.NewFrameChunks(train, 4000) // 5 partitions
	got, _, st, err := Fit(context.Background(), src, Config{Core: cfg})
	if err != nil {
		t.Fatal(err)
	}
	if st.Partitions != 5 {
		t.Fatalf("partitions: got %d want 5", st.Partitions)
	}
	assertSameSelection(t, want, got)
}

// TestShardedFitTwoIterations exercises the derived-feature evaluator: a
// second round generates from first-round features, which the sharded
// engine must replay per chunk.
func TestShardedFitTwoIterations(t *testing.T) {
	train := workload(t, 8000, 10)
	cfg := core.DefaultConfig()
	cfg.Seed = 3
	cfg.Iterations = 2
	want := fitInMemory(t, train, cfg)

	got, report, _, err := Fit(context.Background(), frame.NewFrameChunks(train, 2000), Config{Core: cfg})
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Iterations) != 2 {
		t.Fatalf("rounds: got %d want 2", len(report.Iterations))
	}
	assertSameSelection(t, want, got)
	// Second-round features compose first-round ones; the pipeline must
	// evaluate them on fresh data.
	tr, err := got.Transform(train)
	if err != nil {
		t.Fatal(err)
	}
	if tr.NumCols() != len(got.Output) {
		t.Fatalf("transform width %d, want %d", tr.NumCols(), len(got.Output))
	}
}

// TestShardedFitChunkedCSV pins the out-of-core path end to end: a CSV file
// far larger than the configured chunk budget fits via the streaming
// reader and selects the same features as the in-memory path on the same
// rows.
func TestShardedFitChunkedCSV(t *testing.T) {
	train := workload(t, 12000, 8)
	path := filepath.Join(t.TempDir(), "train.csv")
	if err := train.WriteCSVFile(path); err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.Seed = 5

	// In-memory reference over the CSV round-trip (CSV is the common
	// serialisation, so float values survive exactly via 'g' formatting).
	ref, err := frame.ReadCSVFile(path, "label")
	if err != nil {
		t.Fatal(err)
	}
	want := fitInMemory(t, ref, cfg)

	src, err := frame.OpenCSVChunks(path, "label", 1024) // 12 partitions
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	got, _, st, err := Fit(context.Background(), src, Config{Core: cfg})
	if err != nil {
		t.Fatal(err)
	}
	if st.Partitions != 12 {
		t.Fatalf("partitions: got %d want 12", st.Partitions)
	}
	if st.Rows != 12000 {
		t.Fatalf("rows: got %d want 12000", st.Rows)
	}
	assertSameSelection(t, want, got)
}

// TestShardedFitWithMissingValues: NaNs in original columns (the CSV
// reader's encoding of non-numeric cells) must fit cleanly and still match
// the in-memory selection — quantile ranks, IV bins and Pearson moments are
// all defined over each column's own non-NaN population.
func TestShardedFitWithMissingValues(t *testing.T) {
	train := workload(t, 10000, 10)
	// Poke NaNs into a few original columns at varying densities.
	for j, frac := range map[int]int{0: 50, 3: 7, 7: 3} {
		col := train.Columns[j].Values
		for i := j; i < len(col); i += frac {
			col[i] = nan()
		}
	}
	cfg := core.DefaultConfig()
	cfg.Seed = 4
	want := fitInMemory(t, train, cfg)

	got, _, _, err := Fit(context.Background(), frame.NewFrameChunks(train, 2500), Config{Core: cfg})
	if err != nil {
		t.Fatal(err)
	}
	assertSameSelection(t, want, got)
}

func nan() float64 { return math.NaN() }

// TestShardedFitWorkerCountInvariance: identical selections for any worker
// count, as everywhere else in the repository.
func TestShardedFitWorkerCountInvariance(t *testing.T) {
	train := workload(t, 5000, 10)
	var outputs [][]string
	for _, workers := range []int{1, 3} {
		cfg := core.DefaultConfig()
		cfg.Seed = 2
		cfg.Workers = workers
		p, _, _, err := Fit(context.Background(), frame.NewFrameChunks(train, 1250), Config{Core: cfg})
		if err != nil {
			t.Fatal(err)
		}
		outputs = append(outputs, p.Output)
	}
	if strings.Join(outputs[0], "|") != strings.Join(outputs[1], "|") {
		t.Fatalf("worker count changed the selection:\n 1: %v\n 3: %v", outputs[0], outputs[1])
	}
}

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

// TestShardedFitDeterministic: two identical runs produce identical
// pipelines (no hidden randomisation in the sketches or passes).
func TestShardedFitDeterministic(t *testing.T) {
	train := workload(t, 5000, 8)
	cfg := core.DefaultConfig()
	cfg.Seed = 9
	var prev []string
	for run := 0; run < 2; run++ {
		p, _, _, err := Fit(context.Background(), frame.NewFrameChunks(train, 1000), Config{Core: cfg})
		if err != nil {
			t.Fatal(err)
		}
		if run > 0 && strings.Join(prev, "|") != strings.Join(p.Output, "|") {
			t.Fatalf("runs diverged:\n 1: %v\n 2: %v", prev, p.Output)
		}
		prev = p.Output
	}
}
