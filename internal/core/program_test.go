package core

import (
	"bytes"
	"context"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/operators"
	"repro/internal/wire/wiretest"
)

// malformedPipelines are pipeline files that parse as JSON and decode their
// appliers but are not programs: each must fail to load with an error naming
// the offending node (or output), never load and fail — or panic — later.
var malformedPipelines = []struct{ name, json, names string }{
	{"unary-add", `{"version":1,"original_names":["a","b"],"nodes":[{"name":"s","inputs":["a"],"kind":"stateless","data":{"op":"add"}}],"output":["s"]}`, `"s"`},
	{"quaternary-add", `{"version":1,"original_names":["a","b"],"nodes":[{"name":"s","inputs":["a","b","a","b"],"kind":"stateless","data":{"op":"add"}}],"output":["s"]}`, `"s"`},
	{"duplicate-node", `{"version":1,"original_names":["a","b"],"nodes":[{"name":"s","inputs":["a","b"],"kind":"stateless","data":{"op":"add"}},{"name":"s","inputs":["a","b"],"kind":"stateless","data":{"op":"mul"}}],"output":["s"]}`, `"s" (node 1)`},
	{"shadows-original", `{"version":1,"original_names":["a","b"],"nodes":[{"name":"a","inputs":["a","b"],"kind":"stateless","data":{"op":"add"}}],"output":["a"]}`, `"a" (node 0)`},
	{"empty-name", `{"version":1,"original_names":["a","b"],"nodes":[{"name":"","inputs":["a","b"],"kind":"stateless","data":{"op":"add"}}],"output":["a"]}`, `node 0`},
	{"forward-reference", `{"version":1,"original_names":["a","b"],"nodes":[{"name":"s","inputs":["a","t"],"kind":"stateless","data":{"op":"add"}},{"name":"t","inputs":["a","b"],"kind":"stateless","data":{"op":"mul"}}],"output":["s"]}`, `"s" depends on "t"`},
	{"unknown-output", `{"version":1,"original_names":["a","b"],"nodes":[{"name":"s","inputs":["a","b"],"kind":"stateless","data":{"op":"add"}}],"output":["s","ghost"]}`, `"ghost"`},
	{"short-groupby-table", `{"version":1,"original_names":["a","b"],"nodes":[{"name":"g","inputs":["a","b"],"kind":"groupby","data":{"cuts":[0,1],"table":[5],"fallback":0,"name":"groupby_avg"}}],"output":["g"]}`, `"g"`},
	{"ridge-without-weights", `{"version":1,"original_names":["a","b"],"nodes":[{"name":"r","inputs":["a","b"],"kind":"ridge","data":{"w":[],"b":1}}],"output":["r"]}`, `"r"`},
	{"bin-descending-cuts", `{"version":1,"original_names":["a"],"nodes":[{"name":"q","inputs":["a"],"kind":"bin","data":{"cuts":[3,1,2],"name":"bin_freq"}}],"output":["q"]}`, `"q"`},
	{"groupby-descending-cuts", `{"version":1,"original_names":["a","b"],"nodes":[{"name":"g","inputs":["a","b"],"kind":"groupby","data":{"cuts":[2,0],"table":[10,20,30],"fallback":0,"name":"groupby_avg"}}],"output":["g"]}`, `"g"`},
	// JSON has no NaN: the file fails as JSON before any node is read.
	{"bin-nan-cut", `{"version":1,"original_names":["a"],"nodes":[{"name":"q","inputs":["a"],"kind":"bin","data":{"cuts":[0,NaN],"name":"bin_freq"}}],"output":["q"]}`, `invalid character 'N'`},
}

func TestLoadPipelineRejectsMalformedPrograms(t *testing.T) {
	for _, tc := range malformedPipelines {
		p, err := LoadPipeline(strings.NewReader(tc.json))
		if err == nil {
			t.Errorf("%s: loaded a pipeline with %d nodes", tc.name, len(p.Nodes))
			continue
		}
		if !strings.Contains(err.Error(), tc.names) {
			t.Errorf("%s: error %q does not name %s", tc.name, err, tc.names)
		}
	}
}

// TestApplyAllocatesNothing: every built-in fitted applier, and the
// stateless ones with a column loop, evaluates through Apply into the
// caller's column without allocating.
func TestApplyAllocatesNothing(t *testing.T) {
	const n = 256
	cols := make([][]float64, 2)
	for j := range cols {
		cols[j] = make([]float64, n)
		for i := range cols[j] {
			cols[j][i] = math.Sin(float64(i*(j+3))) * 10
		}
	}
	cols[0][7] = math.NaN()
	dst := make([]float64, n)
	reg := operators.NewRegistry()
	for _, name := range []string{"minmax", "zscore", "bin_freq", "bin_width", "bin_chimerge", "groupby_avg", "groupby_std", "ridge", "add", "div", "log", "xor"} {
		op, err := reg.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		in := cols[:op.Arity()]
		ap, err := op.Fit(in)
		if err != nil {
			t.Fatal(err)
		}
		if allocs := testing.AllocsPerRun(20, func() { Apply(ap, in, dst) }); allocs != 0 {
			t.Errorf("%s: %v allocations per Apply", name, allocs)
		}
	}
}

// fittedSeeds are the valid half of FuzzPipelineLoad's corpus: Ψ as a
// one-iteration fit over stateless operators and a two-iteration fit over
// fitted ones save it.
func fittedSeeds(t testing.TB) map[string][]byte {
	ds, err := datagen.Generate(datagen.Spec{
		Name: "fuzz-seed", Train: 600, Test: 10, Dim: 6,
		Informative: 2, Interactions: 2, SignalScale: 2.5, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	seeds := map[string][]byte{}
	for name, shape := range map[string]struct {
		iterations int
		ops        []string
	}{
		"fit-1-stateless": {1, []string{"add", "div", "log", "cond"}},
		"fit-2-fitted":    {2, []string{"minmax", "zscore", "bin_freq", "groupby_avg", "ridge", "mul"}},
	} {
		cfg := DefaultConfig()
		cfg.Iterations, cfg.Operators = shape.iterations, shape.ops
		cfg.Miner.NumTrees, cfg.Ranker.NumTrees = 10, 10
		p, _, err := Fit(context.Background(), ds.Train, nil, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if seeds[name], err = p.MarshalJSON(); err != nil {
			t.Fatal(err)
		}
	}
	return seeds
}

func pipelineSeedPath(name string) string {
	return filepath.Join("testdata", "fuzz", "FuzzPipelineLoad", name)
}

// TestPipelineLoadSeedCorpus keeps FuzzPipelineLoad's checked-in corpus
// (regenerate with CORE_WRITE_CORPUS=1 go test ./internal/core -run
// TestPipelineLoadSeedCorpus) what it says it is: the malformed table, byte
// for byte, and two saved fits that still load — pipeline files a version-1
// writer wrote — with fitted and stateless appliers among their nodes.
func TestPipelineLoadSeedCorpus(t *testing.T) {
	if os.Getenv("CORE_WRITE_CORPUS") == "1" {
		for name, data := range fittedSeeds(t) {
			wiretest.WriteSeed(t, pipelineSeedPath(name), data)
		}
		for _, tc := range malformedPipelines {
			wiretest.WriteSeed(t, pipelineSeedPath(tc.name), []byte(tc.json))
		}
		return
	}
	for _, tc := range malformedPipelines {
		if seed := wiretest.ReadSeed(t, pipelineSeedPath(tc.name)); string(seed) != tc.json {
			t.Errorf("seed %s is not the malformed table's entry", tc.name)
		}
	}
	kinds := map[string]bool{}
	for _, name := range []string{"fit-1-stateless", "fit-2-fitted"} {
		p, err := LoadPipeline(bytes.NewReader(wiretest.ReadSeed(t, pipelineSeedPath(name))))
		if err != nil {
			t.Fatalf("seed %s no longer loads: %v", name, err)
		}
		if p.NumDerived() == 0 {
			t.Errorf("seed %s derives nothing", name)
		}
		data, err := p.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		for _, kind := range []string{"stateless", "minmax", "zscore", "bin", "groupby", "ridge"} {
			if bytes.Contains(data, []byte(`"kind":"`+kind+`"`)) {
				kinds[kind] = true
			}
		}
	}
	if !kinds["stateless"] || len(kinds) < 3 {
		t.Errorf("the saved fits carry applier kinds %v: want stateless and at least two fitted kinds", kinds)
	}
}

// FuzzPipelineLoad holds the load boundary to its contract: bytes either fail
// to load with an error, or yield a pipeline that transforms — a row and the
// one-row batch agree bit for bit, every feature finite — without a panic.
// The seeds are the files under testdata/fuzz/FuzzPipelineLoad.
func FuzzPipelineLoad(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := LoadPipeline(bytes.NewReader(data))
		if err != nil {
			return
		}
		row := make([]float64, len(p.OriginalNames))
		for j := range row {
			// Zeros, signs, a fraction and magnitudes that overflow a product.
			row[j] = []float64{0, 1, -2.5, 1e200, -1e-200, 0.5}[(j+len(data))%6]
		}
		got, err := p.TransformRow(row)
		if err != nil {
			t.Fatalf("a loaded pipeline does not transform: %v", err)
		}
		batch, err := p.TransformBatch([][]float64{row})
		if err != nil {
			t.Fatalf("a loaded pipeline does not transform a batch: %v", err)
		}
		if len(got) != len(p.Output) || len(batch) != 1 || len(batch[0]) != len(got) {
			t.Fatalf("%d outputs: row has %d features, batch %v", len(p.Output), len(got), batch)
		}
		for j, v := range got {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("feature %q is %v", p.Output[j], v)
			}
			if math.Float64bits(v) != math.Float64bits(batch[0][j]) {
				t.Fatalf("feature %q: row %v, batch %v", p.Output[j], v, batch[0][j])
			}
		}
	})
}
