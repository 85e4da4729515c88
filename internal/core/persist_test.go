package core

import (
	"bytes"
	"context"
	"math"
	"path/filepath"
	"testing"

	"repro/internal/datagen"
)

func fitPipeline(t *testing.T, ops []string) (*Pipeline, *datagen.Dataset) {
	t.Helper()
	ds, err := datagen.Generate(datagen.Spec{
		Name: "persist-test", Train: 2500, Test: 800, Dim: 10,
		Informative: 2, Interactions: 3, SignalScale: 2.5, Seed: 77,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	if ops != nil {
		cfg.Operators = ops
	}
	p, _, err := Fit(context.Background(), ds.Train, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p, ds
}

func assertSameTransform(t *testing.T, a, b *Pipeline, ds *datagen.Dataset) {
	t.Helper()
	outA, err := a.Transform(ds.Test)
	if err != nil {
		t.Fatal(err)
	}
	outB, err := b.Transform(ds.Test)
	if err != nil {
		t.Fatal(err)
	}
	if outA.NumCols() != outB.NumCols() {
		t.Fatalf("widths differ: %d vs %d", outA.NumCols(), outB.NumCols())
	}
	for j := range outA.Columns {
		if outA.Columns[j].Name != outB.Columns[j].Name {
			t.Fatalf("column %d name %q vs %q", j, outA.Columns[j].Name, outB.Columns[j].Name)
		}
		for i := range outA.Columns[j].Values {
			va, vb := outA.Columns[j].Values[i], outB.Columns[j].Values[i]
			if va != vb && !(math.IsNaN(va) && math.IsNaN(vb)) {
				t.Fatalf("col %q row %d: %v vs %v", outA.Columns[j].Name, i, va, vb)
			}
		}
	}
}

func TestPipelineRoundTripArithmetic(t *testing.T) {
	p, ds := fitPipeline(t, nil)
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadPipeline(&buf)
	if err != nil {
		t.Fatal(err)
	}
	assertSameTransform(t, p, loaded, ds)
}

func TestPipelineRoundTripFittedOperators(t *testing.T) {
	// Operators with learned parameters: normalisation, binning, groupby,
	// ridge. All must survive serialisation bit-exactly.
	p, ds := fitPipeline(t, []string{"mul", "div", "minmax", "zscore", "bin_freq", "groupby_avg", "ridge"})
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadPipeline(&buf)
	if err != nil {
		t.Fatal(err)
	}
	assertSameTransform(t, p, loaded, ds)
}

func TestPipelineRoundTripFile(t *testing.T) {
	p, ds := fitPipeline(t, nil)
	path := filepath.Join(t.TempDir(), "pipeline.json")
	if err := p.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadPipelineFile(path)
	if err != nil {
		t.Fatal(err)
	}
	assertSameTransform(t, p, loaded, ds)
}

func TestLoadPipelineRejectsGarbage(t *testing.T) {
	if _, err := LoadPipeline(bytes.NewReader([]byte("not json"))); err == nil {
		t.Error("accepted garbage")
	}
	if _, err := LoadPipeline(bytes.NewReader([]byte(`{"version":99}`))); err == nil {
		t.Error("accepted unknown version")
	}
}

func TestLoadPipelineValidatesTopology(t *testing.T) {
	// A node depending on a column nobody produces must be rejected.
	bad := []byte(`{
		"version": 1,
		"original_names": ["a"],
		"nodes": [{"name":"(a + ghost)","inputs":["a","ghost"],"kind":"stateless","data":{"op":"add"}}],
		"output": ["(a + ghost)"]
	}`)
	if _, err := LoadPipeline(bytes.NewReader(bad)); err == nil {
		t.Error("accepted dangling dependency")
	}
	// An output nobody produces must be rejected.
	bad2 := []byte(`{
		"version": 1,
		"original_names": ["a"],
		"nodes": [],
		"output": ["ghost"]
	}`)
	if _, err := LoadPipeline(bytes.NewReader(bad2)); err == nil {
		t.Error("accepted dangling output")
	}
}

func TestLoadedPipelineTransformRow(t *testing.T) {
	p, ds := fitPipeline(t, nil)
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadPipeline(&buf)
	if err != nil {
		t.Fatal(err)
	}
	row := ds.Test.Row(3, nil)
	a, err := p.TransformRow(row)
	if err != nil {
		t.Fatal(err)
	}
	b, err := loaded.TransformRow(row)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] && !(math.IsNaN(a[i]) && math.IsNaN(b[i])) {
			t.Fatalf("feature %d: %v vs %v", i, a[i], b[i])
		}
	}
}
