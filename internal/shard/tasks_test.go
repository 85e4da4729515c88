package shard

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/frame"
)

// taskWorkload generates the benchmark-shaped synthetic dataset (see workload)
// with the given target kind, so the per-task equality pins cover the same
// planted signal the benchmark harness fits.
func taskWorkload(t *testing.T, rows, dim int, target datagen.TargetKind, classes int) *frame.Frame {
	t.Helper()
	ds, err := datagen.Generate(datagen.Spec{
		Name: "shard-task-test", Train: rows, Test: 64, Dim: dim,
		Interactions: dim / 3, SignalScale: 2.5, Seed: 11,
		Target: target, Classes: classes,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ds.Train
}

// TestShardedFitMatchesInMemoryPerTask is the acceptance pin of the
// task-aware engine: for each task family, a sharded fit over 4 partitions
// selects exactly the same features, in the same order, as the in-memory
// path — for every worker count.
func TestShardedFitMatchesInMemoryPerTask(t *testing.T) {
	cases := []struct {
		name    string
		task    core.Task
		target  datagen.TargetKind
		classes int
	}{
		{"binary", core.BinaryTask(), datagen.TargetBinary, 0},
		{"multiclass3", core.MulticlassTask(3), datagen.TargetMulticlass, 3},
		{"regression", core.RegressionTask(), datagen.TargetRegression, 0},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			train := taskWorkload(t, 6000, 10, tc.target, tc.classes)
			cfg := core.DefaultConfig()
			cfg.Task = tc.task
			cfg.Seed = 1
			want := fitInMemory(t, train, cfg)
			if want.Task != tc.task {
				t.Fatalf("in-memory pipeline task: got %v want %v", want.Task, tc.task)
			}

			for _, workers := range []int{1, 3} {
				wcfg := cfg
				wcfg.Workers = workers
				got, report, st, err := Fit(context.Background(), frame.NewFrameChunks(train, 1500), Config{Core: wcfg})
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if st.Partitions != 4 {
					t.Fatalf("partitions: got %d want 4", st.Partitions)
				}
				if got.Task != tc.task {
					t.Fatalf("sharded pipeline task: got %v want %v", got.Task, tc.task)
				}
				assertSameSelection(t, want, got)
				if len(report.Iterations) != 1 || report.Iterations[0].Selected != len(got.Output) {
					t.Fatalf("report inconsistent with pipeline: %+v", report.Iterations)
				}
			}
		})
	}
}

// TestShardedFitClassAbsentFromPartition: a class that never occurs in some
// partitions must fold correctly through the merged class histograms and
// still match the in-memory selection — the merge just sees zero counts.
func TestShardedFitClassAbsentFromPartition(t *testing.T) {
	train := taskWorkload(t, 4000, 8, datagen.TargetMulticlass, 3)
	// Confine class 2 to the first quarter of the rows: with 4 partitions of
	// 1000 rows, partitions 2-4 never see it.
	for i, y := range train.Label {
		if i < 1000 {
			if i%3 == 0 {
				train.Label[i] = 2
			}
		} else if y == 2 {
			train.Label[i] = float64(i % 2)
		}
	}
	cfg := core.DefaultConfig()
	cfg.Task = core.MulticlassTask(3)
	cfg.Seed = 7
	want := fitInMemory(t, train, cfg)

	got, _, st, err := Fit(context.Background(), frame.NewFrameChunks(train, 1000), Config{Core: cfg})
	if err != nil {
		t.Fatal(err)
	}
	if st.Partitions != 4 {
		t.Fatalf("partitions: got %d want 4", st.Partitions)
	}
	assertSameSelection(t, want, got)
}

// TestShardedFitRejectsBadLabels: labels that do not fit the task must be
// rejected by the sharded entry point exactly as by the in-memory one.
func TestShardedFitRejectsBadLabels(t *testing.T) {
	train := taskWorkload(t, 400, 4, datagen.TargetMulticlass, 4) // classes in [0,4)
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
