package serve

import (
	"context"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/gbdt"
)

// taskArtifacts fits a small task-aware pipeline + downstream model.
func taskArtifacts(t *testing.T, task core.Task, target datagen.TargetKind, classes int) (*core.Pipeline, *gbdt.Model, *datagen.Dataset) {
	t.Helper()
	ds, err := datagen.Generate(datagen.Spec{
		Name: "serve-task-test", Train: 1200, Test: 200, Dim: 6,
		Interactions: 2, SignalScale: 2.5, Seed: 17,
		Target: target, Classes: classes,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.Task = task
	p, _, err := core.Fit(context.Background(), ds.Train, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := p.Transform(ds.Train)
	if err != nil {
		t.Fatal(err)
	}
	cols := make([][]float64, tr.NumCols())
	for j := range cols {
		cols[j] = tr.Columns[j].Values
	}
	mcfg := gbdt.DefaultConfig()
	mcfg.NumTrees = 10
	task.ApplyObjective(&mcfg)
	m, err := gbdt.Train(cols, tr.Label, tr.Names(), mcfg)
	if err != nil {
		t.Fatal(err)
	}
	return p, m, ds
}

// TestPredictMulticlassProbs: /predict on a multiclass pipeline returns one
// probability vector per row plus the argmax class as the scalar score —
// with and without the feature cache on the hit path.
func TestPredictMulticlassProbs(t *testing.T) {
	p, m, ds := taskArtifacts(t, core.MulticlassTask(3), datagen.TargetMulticlass, 3)
	reg := NewRegistry()
	if err := reg.Register("mc", "v1", p, m); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewServer(reg, Options{CacheSize: 64}))
	defer srv.Close()

	rows := make([][]float64, 8)
	for i := range rows {
		rows[i] = ds.Test.Row(i, nil)
	}
	for pass := 0; pass < 2; pass++ { // second pass hits the feature cache
		var out BatchResponse
		resp := postJSON(t, srv.URL+"/predict", BatchRequest{Rows: rows})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("pass %d: status %d", pass, resp.StatusCode)
		}
		decode(t, resp, &out)
		if len(out.Scores) != len(rows) || len(out.Probs) != len(rows) {
			t.Fatalf("pass %d: %d scores, %d probs for %d rows", pass, len(out.Scores), len(out.Probs), len(rows))
		}
		for i, probs := range out.Probs {
			if len(probs) != 3 {
				t.Fatalf("row %d: %d probabilities", i, len(probs))
			}
			sum, best := 0.0, 0
			for c, pr := range probs {
				sum += pr
				if pr > probs[best] {
					best = c
				}
			}
			if math.Abs(sum-1) > 1e-9 {
				t.Fatalf("row %d: probabilities sum to %g", i, sum)
			}
			if out.Scores[i] != float64(best) {
				t.Fatalf("row %d: score %g is not the argmax class %d", i, out.Scores[i], best)
			}
		}
	}

	// Single-row /score carries the vector too.
	var sc ScoreResponse
	resp := postJSON(t, srv.URL+"/score", ScoreRequest{Row: rows[0]})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/score status %d", resp.StatusCode)
	}
	decode(t, resp, &sc)
	if len(sc.Probs) != 3 || sc.Score == nil {
		t.Fatalf("/score: probs %v score %v", sc.Probs, sc.Score)
	}

	// Schema reports the task.
	var schema struct {
		Task string `json:"task"`
	}
	sresp, err := http.Get(srv.URL + "/schema?pipeline=mc")
	if err != nil {
		t.Fatal(err)
	}
	decode(t, sresp, &schema)
	if schema.Task != "multiclass:3" {
		t.Fatalf("schema task %q", schema.Task)
	}
}

// TestPredictRegressionScalar: /predict on a regression pipeline returns raw
// scalar predictions and no probability vectors.
func TestPredictRegressionScalar(t *testing.T) {
	p, m, ds := taskArtifacts(t, core.RegressionTask(), datagen.TargetRegression, 0)
	reg := NewRegistry()
	if err := reg.Register("reg", "v1", p, m); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewServer(reg, Options{}))
	defer srv.Close()

	rows := [][]float64{ds.Test.Row(0, nil), ds.Test.Row(1, nil)}
	var out BatchResponse
	resp := postJSON(t, srv.URL+"/predict", BatchRequest{Rows: rows})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	decode(t, resp, &out)
	if len(out.Scores) != 2 || out.Probs != nil {
		t.Fatalf("scores %v probs %v", out.Scores, out.Probs)
	}
	// Raw regression output is not clamped to [0,1]; verify it matches the
	// model directly.
	feats, err := p.TransformBatch(rows)
	if err != nil {
		t.Fatal(err)
	}
	for i := range rows {
		if want := m.PredictRow(feats[i]); out.Scores[i] != want {
			t.Fatalf("row %d: score %g, model says %g", i, out.Scores[i], want)
		}
	}
}

// TestLoadDirTaskRoundTrip: tasks survive the model-directory round trip
// through pipeline.json + model.json.
func TestLoadDirTaskRoundTrip(t *testing.T) {
	dir := t.TempDir()
	p, m, _ := taskArtifacts(t, core.MulticlassTask(3), datagen.TargetMulticlass, 3)
	vdir := filepath.Join(dir, "mc", "v1")
	if err := os.MkdirAll(vdir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := p.SaveFile(filepath.Join(vdir, "pipeline.json")); err != nil {
		t.Fatal(err)
	}
	if err := m.SaveFile(filepath.Join(vdir, "model.json")); err != nil {
		t.Fatal(err)
	}

	reg := NewRegistry()
	n, err := reg.LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("loaded %d entries", n)
	}
	e, err := reg.Get("mc", "")
	if err != nil {
		t.Fatal(err)
	}
	if e.Pipeline.Task != core.MulticlassTask(3) {
		t.Fatalf("loaded task %v", e.Pipeline.Task)
	}
	if e.Model.NumGroups() != 3 {
		t.Fatalf("loaded model groups %d", e.Model.NumGroups())
	}
	infos := reg.Snapshot()
	if len(infos) != 1 || infos[0].Task != "multiclass:3" {
		t.Fatalf("snapshot task: %+v", infos)
	}
}

// TestRegisterTaskModelMismatch: task/model pairings that would emit the
// wrong prediction shape are rejected at registration time.
func TestRegisterTaskModelMismatch(t *testing.T) {
	pMC, mMC, _ := taskArtifacts(t, core.MulticlassTask(3), datagen.TargetMulticlass, 3)
	pReg, mReg, _ := taskArtifacts(t, core.RegressionTask(), datagen.TargetRegression, 0)
	binary := &core.Pipeline{OriginalNames: pMC.OriginalNames, Nodes: pMC.Nodes, Output: pMC.Output}
	// A model whose objective no trainer produces: scored, it would answer its
	// raw sum with no link function.
	unknown := &gbdt.Model{Config: gbdt.Config{Objective: 9}, NumFeat: mMC.NumFeat, Trees: mMC.Trees[:1]}

	reg := NewRegistry()
	for _, c := range []struct {
		name string
		p    *core.Pipeline
		m    *gbdt.Model
	}{
		{"multiclass pipeline, squared-error model", pMC, mReg},
		{"regression pipeline, softmax model", pReg, mMC},
		{"binary pipeline, softmax model", binary, mMC},
		{"binary pipeline, objective 9", binary, unknown},
	} {
		if err := reg.Register("x", "v1", c.p, c.m); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
	// Matching pairs register fine.
	if err := reg.Register("mc", "v1", pMC, mMC); err != nil {
		t.Errorf("matching multiclass pair rejected: %v", err)
	}
	if err := reg.Register("reg", "v1", pReg, mReg); err != nil {
		t.Errorf("matching regression pair rejected: %v", err)
	}
}
