// Benchmarks regenerating every table and figure of the paper's evaluation
// (Section V) at reduced scale, plus micro-benchmarks of the hot paths. Each
// BenchmarkTableN/BenchmarkFigN corresponds to one artefact of the paper;
// run `go run ./cmd/safe-bench -experiment all -scale 1 -repeats 10` for
// paper-scale reproduction (hours).
package safe_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro"
	"repro/internal/experiments"
	"repro/internal/gbdt"
	"repro/internal/serve"
)

// benchOptions returns a configuration small enough for `go test -bench=.`
// while still exercising every code path of the corresponding experiment.
func benchOptions() experiments.Options {
	return experiments.Options{
		Scale:         0.03,
		BusinessScale: 0.002,
		Repeats:       1,
		Datasets:      []string{"banknote", "magic"},
		Classifiers:   []string{"LR", "XGB"},
		Seed:          1,
	}
}

func BenchmarkTable3ClassificationPerformance(b *testing.B) {
	opts := benchOptions()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunTable3(opts, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable5ExecutionTime(b *testing.B) {
	opts := benchOptions()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunTable5(opts, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable6FeatureStability(b *testing.B) {
	opts := benchOptions()
	opts.Methods = []experiments.Method{experiments.RAND, experiments.IMP, experiments.SAFE}
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunTable6(opts, 3, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable8BusinessDatasets(b *testing.B) {
	opts := benchOptions()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunTable8(opts, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig3FeatureImportance(b *testing.B) {
	opts := benchOptions()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFig3(opts, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig4Iterations(b *testing.B) {
	opts := benchOptions()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFig4(opts, 2, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSearchSpaceReduction(b *testing.B) {
	opts := benchOptions()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunSearchSpace(opts, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAssumptionsPathProvenance(b *testing.B) {
	opts := benchOptions()
	opts.Datasets = []string{"magic"}
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunAssumptions(opts, 5, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------- micro-benchmarks of the core pipeline ----------

func benchDataset(b *testing.B, rows, dim int) *safe.Dataset {
	b.Helper()
	ds, err := safe.GenerateDataset(safe.DatasetSpec{
		Name: "bench", Train: rows, Test: rows / 4, Dim: dim,
		Interactions: dim / 3, SignalScale: 2.5, Seed: 11,
	})
	if err != nil {
		b.Fatal(err)
	}
	return ds
}

func BenchmarkSAFEFit(b *testing.B) {
	ds := benchDataset(b, 2000, 12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := safe.Fit(context.Background(), safe.FromFrame(ds.Train), safe.WithConfig(safe.DefaultConfig())); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSAFESelectionOnly(b *testing.B) {
	ds := benchDataset(b, 2000, 20)
	cols := make([][]float64, ds.Train.NumCols())
	for j := range cols {
		cols[j] = ds.Train.Columns[j].Values
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := safe.Select(cols, ds.Train.Label, safe.DefaultSelectionConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSelectionAblation quantifies the design choices of the selection
// pipeline (DESIGN.md §5): full pipeline vs skipping the IV filter vs
// skipping the Pearson dedup.
func BenchmarkSelectionAblation(b *testing.B) {
	ds := benchDataset(b, 2000, 20)
	cols := make([][]float64, ds.Train.NumCols())
	for j := range cols {
		cols[j] = ds.Train.Columns[j].Values
	}
	cases := []struct {
		name                string
		skipIV, skipPearson bool
	}{
		{"full", false, false},
		{"no-iv", true, false},
		{"no-pearson", false, true},
		{"rank-only", true, true},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			cfg := safe.DefaultSelectionConfig()
			cfg.SkipIV = c.skipIV
			cfg.SkipPearson = c.skipPearson
			for i := 0; i < b.N; i++ {
				if _, err := safe.Select(cols, ds.Train.Label, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkPipelineTransformRow(b *testing.B) {
	ds := benchDataset(b, 2000, 12)
	res, err := safe.Fit(context.Background(), safe.FromFrame(ds.Train), safe.WithConfig(safe.DefaultConfig()))
	if err != nil {
		b.Fatal(err)
	}
	pipeline := res.Pipeline
	row := ds.Test.Row(0, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pipeline.TransformRow(row); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPipelineTransformBatch(b *testing.B) {
	ds := benchDataset(b, 2000, 12)
	res, err := safe.Fit(context.Background(), safe.FromFrame(ds.Train), safe.WithConfig(safe.DefaultConfig()))
	if err != nil {
		b.Fatal(err)
	}
	pipeline := res.Pipeline
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pipeline.Transform(ds.Test); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPipelineTransformRowsBatchedVsLoop quantifies the batching win:
// the same 256 rows through TransformBatch (one columnar pass) vs a
// TransformRow loop. Both report rows/sec.
func BenchmarkPipelineTransformRowsBatchedVsLoop(b *testing.B) {
	ds := benchDataset(b, 2000, 12)
	res, err := safe.Fit(context.Background(), safe.FromFrame(ds.Train), safe.WithConfig(safe.DefaultConfig()))
	if err != nil {
		b.Fatal(err)
	}
	pipeline := res.Pipeline
	const batch = 256
	rows := make([][]float64, batch)
	for i := range rows {
		rows[i] = ds.Test.Row(i%ds.Test.NumRows(), nil)
	}
	b.Run("batched", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := pipeline.TransformBatch(rows); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(batch*b.N)/b.Elapsed().Seconds(), "rows/s")
	})
	b.Run("row-at-a-time", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, row := range rows {
				if _, err := pipeline.TransformRow(row); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.ReportMetric(float64(batch*b.N)/b.Elapsed().Seconds(), "rows/s")
	})
}

// BenchmarkServeBatchedPredict measures end-to-end serving throughput:
// batched /predict over HTTP, including JSON codec, registry resolution,
// the columnar transform, and GBDT scoring. Reported in rows/sec.
func BenchmarkServeBatchedPredict(b *testing.B) {
	ds := benchDataset(b, 2000, 12)
	res, err := safe.Fit(context.Background(), safe.FromFrame(ds.Train), safe.WithConfig(safe.DefaultConfig()))
	if err != nil {
		b.Fatal(err)
	}
	pipeline := res.Pipeline
	tr, err := pipeline.Transform(ds.Train)
	if err != nil {
		b.Fatal(err)
	}
	cols := make([][]float64, tr.NumCols())
	for j := range cols {
		cols[j] = tr.Columns[j].Values
	}
	cfg := gbdt.DefaultConfig()
	cfg.NumTrees = 30
	model, err := gbdt.Train(cols, tr.Label, tr.Names(), cfg)
	if err != nil {
		b.Fatal(err)
	}
	reg := serve.NewRegistry()
	if err := reg.Register("bench", "v1", pipeline, model); err != nil {
		b.Fatal(err)
	}
	srv := httptest.NewServer(serve.NewServer(reg, serve.Options{}))
	defer srv.Close()

	const batch = 128
	rows := make([][]float64, batch)
	for i := range rows {
		rows[i] = ds.Test.Row(i%ds.Test.NumRows(), nil)
	}
	body, err := json.Marshal(serve.BatchRequest{Rows: rows})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := http.Post(srv.URL+"/predict", "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d", resp.StatusCode)
		}
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
	}
	b.ReportMetric(float64(batch*b.N)/b.Elapsed().Seconds(), "rows/s")
}

func BenchmarkClassifierXGB(b *testing.B) {
	ds := benchDataset(b, 2000, 12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := safe.TrainClassifier("XGB", ds.Train, 1); err != nil {
			b.Fatal(err)
		}
	}
}
