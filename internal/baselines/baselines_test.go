package baselines

import (
	"context"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/frame"
	"repro/internal/shard"
)

func testDataset(t *testing.T) *datagen.Dataset {
	t.Helper()
	ds, err := datagen.Generate(datagen.Spec{
		Name: "bl-test", Train: 2500, Test: 800, Dim: 10,
		Informative: 2, Interactions: 3, SignalScale: 2.5, Seed: 55,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func checkPipeline(t *testing.T, p *core.Pipeline, train, test *frame.Frame) {
	t.Helper()
	if p.NumFeatures() == 0 {
		t.Fatal("pipeline emits no features")
	}
	out, err := p.Transform(test)
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRows() != test.NumRows() {
		t.Fatalf("transform rows = %d, want %d", out.NumRows(), test.NumRows())
	}
	if out.NumCols() != p.NumFeatures() {
		t.Fatalf("transform cols = %d, want %d", out.NumCols(), p.NumFeatures())
	}
	// Row-wise evaluation agrees with batch.
	row := make([]float64, test.NumCols())
	test.Row(0, row)
	vals, err := p.TransformRow(row)
	if err != nil {
		t.Fatal(err)
	}
	for j, v := range vals {
		want := out.Columns[j].Values[0]
		if v != want && !(v != v && want != want) {
			t.Fatalf("feature %q: row %v != batch %v", out.Columns[j].Name, v, want)
		}
	}
}

// fit runs the loop at the paper's configuration, adjusted by set, with the
// given pair source.
func fit(t *testing.T, train *frame.Frame, pairs core.PairSource, set func(*core.Config)) *core.Pipeline {
	t.Helper()
	p, err := fitErr(train, pairs, set)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func fitErr(train *frame.Frame, pairs core.PairSource, set func(*core.Config)) (*core.Pipeline, error) {
	cfg := core.DefaultConfig()
	cfg.Pairs = pairs
	if set != nil {
		set(&cfg)
	}
	p, _, err := core.Fit(context.Background(), train, nil, cfg)
	return p, err
}

func TestRand(t *testing.T) {
	ds := testDataset(t)
	checkPipeline(t, fit(t, ds.Train, RandPairs(1), nil), ds.Train, ds.Test)
}

func TestRandNeedsTwoFeatures(t *testing.T) {
	one := frame.NewWithShape(10, 1)
	for i := range one.Label {
		one.Label[i], one.Columns[0].Values[i] = float64(i%2), float64(i)
	}
	if _, err := fitErr(one, RandPairs(0), nil); err == nil || !strings.Contains(err.Error(), ">= 2 features") {
		t.Errorf("single-feature frame: err = %v, want RAND's source to refuse it", err)
	}
}

func TestImp(t *testing.T) {
	ds := testDataset(t)
	checkPipeline(t, fit(t, ds.Train, ImpPairs(3), nil), ds.Train, ds.Test)
}

// TestImpDeterminism: one source, shared by two concurrent fits, draws the
// same pairs for both — it keeps no generator between calls.
func TestImpDeterminism(t *testing.T) {
	ds := testDataset(t)
	src := ImpPairs(4)
	var out [2][]string
	var wg sync.WaitGroup
	for i := range out {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p, err := fitErr(ds.Train, src, nil)
			if err != nil {
				t.Error(err)
				return
			}
			out[i] = p.Output
		}(i)
	}
	wg.Wait()
	if !slices.Equal(out[0], out[1]) {
		t.Fatalf("outputs differ:\n%q\n%q", out[0], out[1])
	}
}

// TestRandBudget: a MaxFeatures budget caps what RAND emits.
func TestRandBudget(t *testing.T) {
	ds := testDataset(t)
	p := fit(t, ds.Train, RandPairs(2), func(c *core.Config) { c.MaxFeatures = 6 })
	if p.NumFeatures() == 0 || p.NumFeatures() > 6 {
		t.Errorf("RAND emits %d features, budget 6", p.NumFeatures())
	}
}

// TestBaselinesShareSelectionSemantics: RAND, IMP and SAFE run one
// selection — the loop's — under one budget: 2M by default, MaxFeatures when
// set. RAND's source reads no miner, so its mine stage scans no rows; IMP's
// and SAFE's do.
func TestBaselinesShareSelectionSemantics(t *testing.T) {
	ds := testDataset(t)
	m := ds.Train.NumCols()
	for _, tc := range []struct {
		name  string
		pairs core.PairSource
		mines bool
	}{
		{"RAND", RandPairs(7), false},
		{"IMP", ImpPairs(7), true},
		{"SAFE", nil, true},
	} {
		for _, budget := range []int{0, 4} {
			var mineRows int64
			p := fit(t, ds.Train, tc.pairs, func(c *core.Config) {
				c.MaxFeatures = budget
				var start int64
				c.Events = func(ev core.FitEvent) {
					switch {
					case ev.Stage != core.StageMine:
					case ev.Kind == core.EventStageStart:
						start = ev.Rows
					case ev.Kind == core.EventStageEnd:
						mineRows += ev.Rows - start
					}
				}
			})
			want := budget
			if want == 0 {
				want = 2 * m
			}
			if p.NumFeatures() == 0 || p.NumFeatures() > want {
				t.Errorf("%s, MaxFeatures %d: %d features, budget %d", tc.name, budget, p.NumFeatures(), want)
			}
			if (mineRows > 0) != tc.mines {
				t.Errorf("%s: the mine stage scanned %d rows", tc.name, mineRows)
			}
		}
	}
}

// TestRandAndImpOutOfCore: RAND and IMP run on every engine with no code of
// their own — a sharded fit over a frame source selects what the in-memory
// fit selects.
func TestRandAndImpOutOfCore(t *testing.T) {
	ds := testDataset(t)
	for name, pairs := range map[string]core.PairSource{"RAND": RandPairs(12), "IMP": ImpPairs(12)} {
		mem := fit(t, ds.Train, pairs, nil)
		cfg := core.DefaultConfig()
		cfg.Pairs = pairs
		sharded, _, _, err := shard.Fit(context.Background(), frame.NewFrameChunks(ds.Train, 600), shard.Config{Core: cfg})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !slices.Equal(sharded.Output, mem.Output) {
			t.Errorf("%s: sharded output\n%q\nin-memory output\n%q", name, sharded.Output, mem.Output)
		}
	}
}

func TestTFC(t *testing.T) {
	ds := testDataset(t)
	p, err := TFC(ds.Train, TFCConfig{})
	if err != nil {
		t.Fatal(err)
	}
	checkPipeline(t, p, ds.Train, ds.Test)
	if p.NumFeatures() > 2*ds.Train.NumCols() {
		t.Errorf("TFC emits %d features, budget %d", p.NumFeatures(), 2*ds.Train.NumCols())
	}
	// TFC must actually construct features, not just pass originals.
	constructed := 0
	for _, name := range p.Output {
		if strings.ContainsAny(name, "+-*/") {
			constructed++
		}
	}
	if constructed == 0 {
		t.Error("TFC selected no constructed features")
	}
}

func TestTFCMaxPairsGuard(t *testing.T) {
	ds := testDataset(t)
	p, err := TFC(ds.Train, TFCConfig{MaxPairs: 5})
	if err != nil {
		t.Fatal(err)
	}
	checkPipeline(t, p, ds.Train, ds.Test)
}

func TestFCTree(t *testing.T) {
	ds := testDataset(t)
	p, err := FCTree(ds.Train, FCTreeConfig{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	checkPipeline(t, p, ds.Train, ds.Test)
	if p.NumFeatures() > 2*ds.Train.NumCols() {
		t.Errorf("FCTree emits %d features, budget %d", p.NumFeatures(), 2*ds.Train.NumCols())
	}
}

func TestFCTreeConstructsFeatures(t *testing.T) {
	ds := testDataset(t)
	p, err := FCTree(ds.Train, FCTreeConfig{Ne: 20, MaxDepth: 8, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Nodes) == 0 {
		t.Error("FCTree constructed no features")
	}
}

func TestRandomPairsDistinct(t *testing.T) {
	pool := []int{0, 1, 2, 3, 4, 5}
	pairs := randomPairs(pool, 10, rand.New(rand.NewSource(11)))
	if len(pairs) != 10 {
		t.Fatalf("%d pairs, want 10", len(pairs))
	}
	seen := map[[2]int]bool{}
	for _, p := range pairs {
		a, b := p.Features[0], p.Features[1]
		if len(p.Features) != 2 || a >= b {
			t.Fatalf("pair %v not ordered", p.Features)
		}
		if seen[[2]int{a, b}] {
			t.Fatalf("duplicate pair %v", p.Features)
		}
		seen[[2]int{a, b}] = true
	}
	// 6 features -> at most 15 distinct pairs; asking for 100 returns <= 15.
	if many := randomPairs(pool, 100, rand.New(rand.NewSource(11))); len(many) > 15 {
		t.Errorf("returned %d pairs from a 15-pair pool", len(many))
	}
}
