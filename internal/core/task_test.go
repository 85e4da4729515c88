package core

import (
	"bytes"
	"context"
	"math"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/frame"
	"repro/internal/gbdt"
)

func TestParseTaskRoundTrip(t *testing.T) {
	for _, s := range []string{"binary", "multiclass:3", "multiclass:7", "regression"} {
		task, err := ParseTask(s)
		if err != nil {
			t.Fatalf("ParseTask(%q): %v", s, err)
		}
		if task.String() != s {
			t.Fatalf("round trip: %q -> %q", s, task.String())
		}
	}
	if task, err := ParseTask(""); err != nil || task != BinaryTask() {
		t.Fatalf("empty spec: %v %v", task, err)
	}
	for _, s := range []string{"multiclass", "multiclass:1", "multiclass:x", "ordinal"} {
		if _, err := ParseTask(s); err == nil {
			t.Errorf("ParseTask(%q) accepted", s)
		}
	}
}

func TestTaskValidateLabels(t *testing.T) {
	if err := BinaryTask().ValidateLabels([]float64{0, 1, 1, 0}); err != nil {
		t.Error(err)
	}
	if err := BinaryTask().ValidateLabels([]float64{0, 2}); err == nil {
		t.Error("binary accepted label 2")
	}
	if err := MulticlassTask(3).ValidateLabels([]float64{0, 1, 2}); err != nil {
		t.Error(err)
	}
	if err := MulticlassTask(3).ValidateLabels([]float64{0, 1.5}); err == nil {
		t.Error("multiclass accepted fractional label")
	}
	if err := MulticlassTask(3).ValidateLabels([]float64{3}); err == nil {
		t.Error("multiclass accepted out-of-range class")
	}
	if err := RegressionTask().ValidateLabels([]float64{-1.5, 42}); err != nil {
		t.Error(err)
	}
	if err := RegressionTask().ValidateLabels([]float64{math.NaN()}); err == nil {
		t.Error("regression accepted NaN target")
	}
}

func taskFrame(t *testing.T, target datagen.TargetKind, classes, rows, dim int) *frame.Frame {
	t.Helper()
	ds, err := datagen.Generate(datagen.Spec{
		Name: "core-task-test", Train: rows, Test: 32, Dim: dim,
		Interactions: dim / 3, SignalScale: 2.5, Seed: 11,
		Target: target, Classes: classes,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ds.Train
}

// TestFitConstantRegressionTarget: a constant target has no variance to
// explain — every criterion is 0, the min-keep fallback carries the fit, and
// the squared-error rankers see zero gradients — yet Fit must complete and
// emit a deterministic full-shape pipeline.
func TestFitConstantRegressionTarget(t *testing.T) {
	train := taskFrame(t, datagen.TargetRegression, 0, 1500, 8)
	for i := range train.Label {
		train.Label[i] = 3.75
	}
	cfg := DefaultConfig()
	cfg.Task = RegressionTask()
	cfg.Seed = 2
	var prev []string
	for run := 0; run < 2; run++ {
		p, report, err := Fit(context.Background(), train, nil, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(p.Output) == 0 {
			t.Fatal("constant target produced an empty pipeline")
		}
		ir := report.Iterations[0]
		if ir.AfterIV != cfg.MinKeepIV {
			t.Fatalf("expected the min-keep fallback (%d), got %d past the filter", cfg.MinKeepIV, ir.AfterIV)
		}
		if run > 0 && strings.Join(prev, "|") != strings.Join(p.Output, "|") {
			t.Fatalf("constant-target fit is nondeterministic:\n %v\n %v", prev, p.Output)
		}
		prev = p.Output
	}
}

// TestFitTaskWorkerInvariance: for every task family the in-memory fit
// selects identical features for any worker count.
func TestFitTaskWorkerInvariance(t *testing.T) {
	cases := []struct {
		task    Task
		target  datagen.TargetKind
		classes int
	}{
		{MulticlassTask(3), datagen.TargetMulticlass, 3},
		{RegressionTask(), datagen.TargetRegression, 0},
	}
	for _, tc := range cases {
		train := taskFrame(t, tc.target, tc.classes, 3000, 10)
		var outputs [][]string
		for _, workers := range []int{1, 3} {
			cfg := DefaultConfig()
			cfg.Task = tc.task
			cfg.Seed = 2
			cfg.Workers = workers
			p, _, err := Fit(context.Background(), train, nil, cfg)
			if err != nil {
				t.Fatal(err)
			}
			outputs = append(outputs, p.Output)
		}
		if strings.Join(outputs[0], "|") != strings.Join(outputs[1], "|") {
			t.Fatalf("%s: worker count changed the selection:\n 1: %v\n 3: %v",
				tc.task, outputs[0], outputs[1])
		}
	}
}

// TestFitWithValidationRegression: the regression validation score is
// negative RMSE (always <= 0), so the best-round tracking must start at
// -Inf — a best-so-far of 0 would silently reject every round and return
// only original columns.
func TestFitWithValidationRegression(t *testing.T) {
	ds, err := datagen.Generate(datagen.Spec{
		Name: "core-task-valid", Train: 2000, Valid: 600, Test: 32, Dim: 8,
		Interactions: 3, SignalScale: 2.5, Seed: 11,
		Target: datagen.TargetRegression,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Task = RegressionTask()
	cfg.Seed = 1
	cfg.Patience = 2
	p, report, err := Fit(context.Background(), ds.Train, ds.Valid, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if p.NumDerived() == 0 {
		t.Fatalf("validated regression fit kept no engineered features: %v", p.Output)
	}
	if report.Iterations[0].ValidAUC >= 0 {
		t.Fatalf("regression validation score should be negative RMSE, got %g", report.Iterations[0].ValidAUC)
	}
}

// TestPipelineTaskPersistRoundTrip: the task survives Save/Load, and files
// saved before the task field existed load as binary.
func TestPipelineTaskPersistRoundTrip(t *testing.T) {
	train := taskFrame(t, datagen.TargetMulticlass, 4, 800, 6)
	cfg := DefaultConfig()
	cfg.Task = MulticlassTask(4)
	p, _, err := Fit(context.Background(), train, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadPipeline(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Task != MulticlassTask(4) {
		t.Fatalf("task after round trip: %v", loaded.Task)
	}

	// Pre-task pipeline JSON (no "task" key) loads as binary.
	legacy := `{"version":1,"original_names":["a"],"nodes":[],"output":["a"]}`
	lp, err := LoadPipeline(strings.NewReader(legacy))
	if err != nil {
		t.Fatal(err)
	}
	if lp.Task != BinaryTask() {
		t.Fatalf("legacy pipeline task: %v, want binary", lp.Task)
	}
}

// TestNormalizeConfigTaskGuards: task-incompatible options fail fast.
func TestNormalizeConfigTaskGuards(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Task = RegressionTask()
	cfg.IVEqualWidth = true
	if _, err := NormalizeConfig(cfg); err == nil {
		t.Error("IVEqualWidth accepted for regression")
	}

	cfg = DefaultConfig()
	cfg.Task = MulticlassTask(3)
	cfg.Operators = []string{"add", "bin_chimerge"}
	if _, err := NormalizeConfig(cfg); err == nil {
		t.Error("bin_chimerge accepted for multiclass")
	}

	cfg = DefaultConfig()
	cfg.Task = Task{Kind: TaskMulticlass, Classes: 1}
	if _, err := NormalizeConfig(cfg); err == nil {
		t.Error("1-class multiclass accepted")
	}

	// The normalised miner/ranker must carry the task's objective.
	cfg = DefaultConfig()
	cfg.Task = MulticlassTask(5)
	norm, err := NormalizeConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if norm.Miner.Objective != gbdt.Softmax || norm.Miner.NumClass != 5 {
		t.Fatalf("miner objective not applied: %+v", norm.Miner)
	}
	if norm.Ranker.Objective != gbdt.Softmax || norm.Ranker.NumClass != 5 {
		t.Fatalf("ranker objective not applied: %+v", norm.Ranker)
	}
}
