package core

import (
	"context"
	"math"
	"testing"

	"repro/internal/datagen"
)

// TestTransformBatchMatchesRow checks the serving-side contract: evaluating
// a batch in one columnar pass must agree with row-at-a-time evaluation.
func TestTransformBatchMatchesRow(t *testing.T) {
	ds, err := datagen.Generate(datagen.Spec{
		Name: "batch-test", Train: 1500, Test: 300, Dim: 8,
		Interactions: 3, SignalScale: 2.5, Seed: 17,
	})
	if err != nil {
		t.Fatal(err)
	}
	p, _, err := Fit(context.Background(), ds.Train, nil, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}

	n := 64
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = ds.Test.Row(i, nil)
	}
	batch, err := p.TransformBatch(rows)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != n {
		t.Fatalf("batch returned %d rows, want %d", len(batch), n)
	}
	for i, row := range rows {
		want, err := p.TransformRow(row)
		if err != nil {
			t.Fatal(err)
		}
		if len(batch[i]) != len(want) {
			t.Fatalf("row %d: batch width %d, row width %d", i, len(batch[i]), len(want))
		}
		for j := range want {
			if math.Float64bits(batch[i][j]) != math.Float64bits(want[j]) {
				t.Fatalf("row %d feature %d: batch %v != row %v", i, j, batch[i][j], want[j])
			}
		}
	}
}

func TestTransformBatchErrors(t *testing.T) {
	p := &Pipeline{OriginalNames: []string{"a", "b"}, Output: []string{"a"}}
	if out, err := p.TransformBatch(nil); err != nil || out != nil {
		t.Errorf("empty batch: got (%v, %v), want (nil, nil)", out, err)
	}
	if _, err := p.TransformBatch([][]float64{{1, 2}, {1}}); err == nil {
		t.Error("accepted a ragged batch")
	}
	bad := &Pipeline{OriginalNames: []string{"a"}, Output: []string{"missing"}}
	if _, err := bad.TransformBatch([][]float64{{1}}); err == nil {
		t.Error("accepted unknown output column")
	}
}
