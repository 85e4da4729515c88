package core_test

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/frame"
	"repro/internal/shard"
)

// skewFrame is a frame on which the informative features are a ratio with
// zero denominators (b is 0 on a quarter of the rows) and a product that
// overflows (u·v, both near 1e154): what a fit selects here is non-finite
// before the clamp.
func skewFrame(n int) *frame.Frame {
	rng := rand.New(rand.NewSource(3))
	names := []string{"a", "b", "c", "u", "v"}
	cols := make([][]float64, len(names))
	labels := make([]float64, n)
	for i := 0; i < n; i++ {
		a, b, c, z := rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()
		if rng.Intn(4) == 0 {
			b = 0
		}
		u := z * 1e154
		v := u * (1 + 0.05*rng.NormFloat64())
		logit := 0.4 * c
		if b != 0 {
			logit += math.Max(-2, math.Min(2, a/b))
		}
		if math.Abs(z) < 0.8 {
			logit += 1.5
		} else {
			logit -= 1.5
		}
		if logit+0.3*rng.NormFloat64() > 0 {
			labels[i] = 1
		}
		for j, x := range []float64{a, b, c, u, v} {
			cols[j] = append(cols[j], x)
		}
	}
	f := &frame.Frame{Label: labels}
	for j, name := range names {
		f.AddColumn(name, cols[j])
	}
	return f
}

// TestTransformMatchesFit is the train/serve skew pin: whatever engine fitted
// Ψ, every column Transform derives from the training frame is, bit for bit,
// the column the fit scored, ranked and carried for that feature, and the
// batch and row transforms agree with it — so a model trained on the fit's
// features sees the same numbers at inference. The frame makes the selection
// non-finite before the clamp, which is asserted, not assumed.
func TestTransformMatchesFit(t *testing.T) {
	train := skewFrame(1200)
	for _, iterations := range []int{1, 2} {
		cfg := core.DefaultConfig()
		cfg.Seed = 3
		cfg.Iterations = iterations
		cfg.Miner.NumTrees, cfg.Ranker.NumTrees = 20, 20
		memory, carried, err := core.FitCarried(cfg, train)
		if err != nil {
			t.Fatal(err)
		}
		sharded, _, _, err := shard.Fit(context.Background(), frame.NewFrameChunks(train, 300), shard.Config{Core: cfg})
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(sharded.Output) != fmt.Sprint(memory.Output) {
			t.Fatalf("iterations=%d: the engines selected differently:\n memory  %v\n sharded %v", iterations, memory.Output, sharded.Output)
		}
		nonFinite := 0
		for _, col := range core.RawOutputs(memory, train) {
			for _, v := range col {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					nonFinite++
				}
			}
		}
		if nonFinite == 0 {
			t.Fatalf("iterations=%d: no selected feature of %v is non-finite before the clamp: the test has lost its subject", iterations, memory.Output)
		}
		t.Logf("iterations=%d: %d non-finite values before the clamp in %v", iterations, nonFinite, memory.Output)
		for engine, p := range map[string]*core.Pipeline{"memory": memory, "sharded": sharded} {
			what := fmt.Sprintf("iterations=%d %s", iterations, engine)
			out, err := p.Transform(train)
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			rows := train.Matrix()
			batch, err := p.TransformBatch(rows)
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			for j, col := range out.Columns {
				for i, v := range col.Values {
					if math.IsNaN(v) || math.IsInf(v, 0) {
						t.Fatalf("%s: %s row %d is %v", what, col.Name, i, v)
					}
					if math.Float64bits(v) != math.Float64bits(carried[j][i]) {
						t.Fatalf("%s: %s row %d transforms to %v, the fit carried %v", what, col.Name, i, v, carried[j][i])
					}
					if math.Float64bits(batch[i][j]) != math.Float64bits(v) {
						t.Fatalf("%s: %s row %d: TransformBatch %v, Transform %v", what, col.Name, i, batch[i][j], v)
					}
				}
			}
			for i := 0; i < len(rows); i += 7 {
				row, err := p.TransformRow(rows[i])
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				for j, v := range row {
					if math.Float64bits(v) != math.Float64bits(batch[i][j]) {
						t.Fatalf("%s: %s row %d: TransformRow %v, TransformBatch %v", what, p.Output[j], i, v, batch[i][j])
					}
				}
			}
		}
	}
}

// reentryFrame is a frame of four noise columns whose label follows three of
// their products under heavy noise: with a budget of four features the
// selection churns from round to round, so a formula dropped in one round is
// enumerated again in a later one.
func reentryFrame(n int) *frame.Frame {
	rng := rand.New(rand.NewSource(5))
	f := &frame.Frame{Label: make([]float64, n)}
	cols := make([][]float64, 4)
	for i := 0; i < n; i++ {
		var x [4]float64
		for j := range x {
			x[j] = rng.NormFloat64()
			cols[j] = append(cols[j], x[j])
		}
		if x[0]*x[1]+x[2]*x[3]+x[0]*x[2]+1.5*rng.NormFloat64() > 0 {
			f.Label[i] = 1
		}
	}
	for j, name := range []string{"a", "b", "c", "d"} {
		f.AddColumn(name, cols[j])
	}
	return f
}

// TestReenumeratedFormulaIsOneNode pins what a fit records when a formula
// leaves the selection and comes back: the rounds enumerate it twice (from the
// same inputs on the same rows, so as the same column), Ψ holds it once, and
// Ψ therefore compiles, saves and transforms to the carried columns — on both
// engines — and so does the file an earlier fit wrote with both copies in it. Recording it per enumeration made RunRounds fail such a
// fit at assembly with "repeats the name of ... an earlier node".
func TestReenumeratedFormulaIsOneNode(t *testing.T) {
	train := reentryFrame(500)
	cfg := core.DefaultConfig()
	cfg.Seed = 1
	cfg.Iterations = 5
	cfg.MaxFeatures = 4
	cfg.Miner.NumTrees, cfg.Ranker.NumTrees = 8, 8
	memory, carried, rounds, err := core.FitObserved(cfg, train)
	if err != nil {
		t.Fatal(err)
	}
	enumerated := map[string]int{}
	for _, names := range rounds {
		for _, name := range names {
			enumerated[name]++
		}
	}
	twice := ""
	held := map[string]bool{}
	for _, nd := range memory.Nodes {
		if held[nd.Name] {
			t.Fatalf("Ψ holds %s twice", nd.Name)
		}
		held[nd.Name] = true
		if enumerated[nd.Name] > 1 {
			twice = nd.Name
		}
	}
	if twice == "" {
		t.Fatalf("no node of %v was enumerated in two rounds: the test has lost its subject", memory.Output)
	}
	t.Logf("%s: enumerated in %d rounds, one node of %d", twice, enumerated[twice], len(memory.Nodes))

	sharded, _, _, err := shard.Fit(context.Background(), frame.NewFrameChunks(train, 250), shard.Config{Core: cfg})
	if err != nil {
		t.Fatal(err)
	}
	var saved [2]bytes.Buffer
	for i, p := range []*core.Pipeline{memory, sharded} {
		if err := p.Save(&saved[i]); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(saved[0].Bytes(), saved[1].Bytes()) {
		t.Fatalf("the engines fitted different pipelines:\n memory  %v\n sharded %v", memory.Output, sharded.Output)
	}
	// testdata/parent_reenumerated.json is this fit as the commit before the
	// one-node rule saved it, the formula in it twice: it loads as Ψ.
	loaded, err := core.LoadPipelineFile("testdata/parent_reenumerated.json")
	if err != nil {
		t.Fatal(err)
	}
	var resaved bytes.Buffer
	if err := loaded.Save(&resaved); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resaved.Bytes(), saved[0].Bytes()) {
		t.Fatalf("the file with the repeated node loads as %d nodes for %v, the fit has %d for %v", len(loaded.Nodes), loaded.Output, len(memory.Nodes), memory.Output)
	}
	for engine, p := range map[string]*core.Pipeline{"memory": memory, "sharded": sharded, "loaded": loaded} {
		out, err := p.Transform(train)
		if err != nil {
			t.Fatalf("%s: %v", engine, err)
		}
		for j, col := range out.Columns {
			for i, v := range col.Values {
				if math.Float64bits(v) != math.Float64bits(carried[j][i]) {
					t.Fatalf("%s: %s row %d transforms to %v, the fit carried %v", engine, col.Name, i, v, carried[j][i])
				}
			}
		}
	}
}
