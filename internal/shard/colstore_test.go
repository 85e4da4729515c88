package shard

import (
	"context"
	"math"
	"path/filepath"
	"testing"

	"repro/internal/colstore"
	"repro/internal/core"
	"repro/internal/frame"
)

// clusteredFrame builds a dataset whose every column trends with the row
// index plus bounded deterministic jitter — a row-clustered layout, where
// most row groups span a narrow slice of each column's range. Labels mix
// within every group (they follow the jitter, not the trend).
func clusteredFrame(rows, dim int, task string, classes int) *frame.Frame {
	f := frame.NewWithShape(rows, dim)
	state := uint64(2463534242)
	next := func() float64 { // xorshift in [0,1): deterministic, seedless
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return float64(state%1_000_003) / 1_000_003
	}
	jit := make([]float64, rows)
	for i := 0; i < rows; i++ {
		t := float64(i) / float64(rows)
		jit[i] = next()
		for j := 0; j < dim; j++ {
			// The jitter stays well under one block's trend increment, so
			// block value ranges are tight relative to the column's span.
			scale := float64(j + 1)
			f.Columns[j].Values[i] = (t*100 + jit[i]*0.03 + next()*0.01) * scale
		}
		switch task {
		case "binary":
			if jit[i] > 0.5 {
				f.Label[i] = 1
			}
		case "multiclass":
			f.Label[i] = math.Floor(jit[i] * float64(classes))
			if f.Label[i] >= float64(classes) {
				f.Label[i] = float64(classes - 1)
			}
		case "regression":
			f.Label[i] = f.Columns[0].Values[i]*0.5 + jit[i]*3
		}
	}
	return f
}

// TestShardedFitColstoreMatchesInMemory holds a fit from a colstore file of
// row-clustered data in 100-row groups to exactly the features the in-memory
// engine selects, for every task family, through the streaming and the
// mapped reader.
func TestShardedFitColstoreMatchesInMemory(t *testing.T) {
	cases := []struct {
		name    string
		task    core.Task
		kind    string
		classes int
	}{
		{"binary", core.BinaryTask(), "binary", 0},
		{"multiclass3", core.MulticlassTask(3), "multiclass", 3},
		{"regression", core.RegressionTask(), "regression", 0},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			train := clusteredFrame(20000, 6, tc.kind, tc.classes)
			path := filepath.Join(t.TempDir(), "train.col")
			if err := colstore.WriteFrame(path, train, colstore.WriterOptions{GroupRows: 100}); err != nil {
				t.Fatal(err)
			}

			cfg := core.DefaultConfig()
			cfg.Task = tc.task
			cfg.Seed = 1
			want := fitInMemory(t, train, cfg)

			for _, open := range []struct {
				name string
				fn   func() (colstore.Source, error)
			}{
				{"stream", func() (colstore.Source, error) { return colstore.Open(path) }},
				{"mmap", func() (colstore.Source, error) { return colstore.OpenSource(path) }},
			} {
				t.Run(open.name, func(t *testing.T) {
					src, err := open.fn()
					if err != nil {
						t.Fatal(err)
					}
					defer src.Close()
					got, _, _, err := Fit(context.Background(), src, Config{Core: cfg})
					if err != nil {
						t.Fatal(err)
					}
					assertSameSelection(t, want, got)
				})
			}
		})
	}
}

// TestShardedFitColstoreMatchesCSV pins source equivalence: the same rows
// through a CSV chunk source and a colstore file select identical features
// — the container format must be invisible to the algorithm.
func TestShardedFitColstoreMatchesCSV(t *testing.T) {
	train := clusteredFrame(6000, 5, "binary", 0)
	dir := t.TempDir()
	csvPath := filepath.Join(dir, "train.csv")
	colPath := filepath.Join(dir, "train.col")
	if err := train.WriteCSVFile(csvPath); err != nil {
		t.Fatal(err)
	}
	if err := colstore.WriteFrame(colPath, train, colstore.WriterOptions{GroupRows: 1500}); err != nil {
		t.Fatal(err)
	}

	cfg := core.DefaultConfig()
	cfg.Task = core.BinaryTask()
	cfg.Seed = 1

	csvSrc, err := frame.OpenCSVChunks(csvPath, "label", 1500)
	if err != nil {
		t.Fatal(err)
	}
	defer csvSrc.Close()
	fromCSV, _, _, err := Fit(context.Background(), csvSrc, Config{Core: cfg})
	if err != nil {
		t.Fatal(err)
	}

	colSrc, err := colstore.OpenSource(colPath)
	if err != nil {
		t.Fatal(err)
	}
	defer colSrc.Close()
	fromCol, _, _, err := Fit(context.Background(), colSrc, Config{Core: cfg})
	if err != nil {
		t.Fatal(err)
	}
	assertSameSelection(t, fromCSV, fromCol)
}
