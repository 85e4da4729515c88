package shard

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/frame"
	"repro/internal/stats"
)

// TestGridKernelsMatchBuiltinForms holds the two per-value grid kernels,
// written with plain comparisons, to the float min and max builtins they
// replaced, bit for bit: valueRange's ends (the builtins order -0 below +0,
// which the constant-column test reads off the ends' bits) and the bucket
// stats.Grid.Bucket gives each value, over NaN, signed zeros, infinities,
// subnormals, an all-NaN column and a single value.
func TestGridKernelsMatchBuiltinForms(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	negZero := math.Copysign(0, -1)
	sub := math.SmallestNonzeroFloat64
	builtinRange := func(xs []float64) (lo, hi float64) {
		lo, hi = math.Inf(1), math.Inf(-1)
		for _, v := range xs {
			if v == v {
				lo, hi = min(lo, v), max(hi, v)
			}
		}
		return lo, hi
	}
	columns := map[string][]float64{
		"empty":                {},
		"all NaN":              {nan, nan, nan},
		"one value":            {42},
		"one NaN":              {nan},
		"+0":                   {0},
		"-0":                   {negZero},
		"+0 then -0":           {0, negZero},
		"-0 then +0":           {negZero, 0},
		"zeros inside":         {1, negZero, 0, 2},
		"zeros at the top":     {-1, 0, nan, negZero},
		"zeros at the bottom":  {negZero, 3, 0, 7},
		"-0 alone with NaN":    {nan, negZero, nan, negZero},
		"infinities":           {inf, -inf, 0.5},
		"+Inf alone":           {inf, inf},
		"-Inf and a value":     {-inf, 3},
		"subnormals":           {sub, -sub, 3 * sub, nan},
		"subnormals and zeros": {negZero, sub, 0, -sub},
		"extremes":             {math.MaxFloat64, -math.MaxFloat64, nan, 1e-300},
		"NaN around values":    {nan, 3, -2, nan, 7, nan},
	}
	for name, xs := range columns {
		lo, hi := valueRange(xs)
		wlo, whi := builtinRange(xs)
		if math.Float64bits(lo) != math.Float64bits(wlo) || math.Float64bits(hi) != math.Float64bits(whi) {
			t.Errorf("valueRange(%s %v) = [%v, %v], the builtins give [%v, %v]", name, xs, lo, hi, wlo, whi)
		}
	}
	grids := []stats.Grid{
		{Lo: 0, Scale: 1},
		{Lo: -1, Scale: 512},
		{Lo: 2.5, Scale: 1e-3},
		{Lo: -1e300, Scale: 1e-297},
		{Lo: sub, Scale: 1e300},
		{Lo: negZero, Scale: stats.NumBuckets},
	}
	for _, g := range grids {
		vals := []float64{g.Lo, g.Lo + 1/g.Scale, g.Lo + (stats.NumBuckets-1)/g.Scale, g.Lo + stats.NumBuckets/g.Scale, g.Lo - 1/g.Scale}
		for _, xs := range columns {
			vals = append(vals, xs...)
		}
		for _, v := range vals {
			want := int(max(0, min((v-g.Lo)*g.Scale, stats.NumBuckets-1)))
			if got := g.Bucket(v); got != want {
				t.Errorf("grid %+v: Bucket(%v) = %d, the builtins give %d", g, v, got, want)
			}
		}
	}
}

// TestGridKernelAllocatesNothing holds the one grid kernel to no allocation
// once its scratch is warm, in both engines: stats.CritScratch.Criterion over
// a binary, a multiclass:3 and a regression code (the multiclass one also at
// 64 bins, past any per-bin stack buffer), stats.QuantileScratch's
// Quantiles, and the gather pass's kernel on a WorkerState's chunk: the
// chunk's labels coded, then a source column and a generated one, computed
// inside the call, each through both scans. The race detector's
// instrumentation allocates, so it skips under -race; CI runs it by name
// without.
func TestGridKernelAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	const rows = 5000
	rng := rand.New(rand.NewSource(43))
	c := &frame.Chunk{Cols: [][]float64{make([]float64, rows), make([]float64, rows)}, Label: make([]float64, rows)}
	for i := 0; i < rows; i++ {
		c.Cols[0][i] = rng.NormFloat64() / rng.NormFloat64()
		if i%17 == 0 {
			c.Cols[0][i] = math.NaN()
		}
		c.Cols[1][i] = rng.ExpFloat64()
		c.Label[i] = float64(rng.Intn(3))
	}
	tasks := []core.Task{{Kind: core.TaskBinary}, {Kind: core.TaskMulticlass, Classes: 3}, {Kind: core.TaskRegression}}
	var crit stats.CritScratch
	var q stats.QuantileScratch
	for _, task := range tasks {
		code := task.Code(c.Label)
		bins := []int{10}
		if task.Kind == core.TaskMulticlass {
			bins = append(bins, 64)
		}
		for _, b := range bins {
			criterion := func() { crit.Criterion(c.Cols[0], code, b) }
			criterion()
			if a := testing.AllocsPerRun(20, criterion); a != 0 {
				t.Errorf("%v: CritScratch.Criterion at %d bins: %v allocations a call", task, b, a)
			}
		}
	}
	quantiles := func() { q.Quantiles(c.Cols[1], 255) }
	quantiles()
	if a := testing.AllocsPerRun(20, quantiles); a != 0 {
		t.Errorf("QuantileScratch.Quantiles: %v allocations a call", a)
	}

	names := []string{"a", "b"}
	for _, task := range tasks {
		ws := NewWorkerStateOn(names, task, 1)
		if err := ws.SetLive(1, nil, names); err != nil {
			t.Fatal(err)
		}
		gen := GenSpec{Op: "div", Feats: []int{0, 1}}
		if _, err := ws.applier(gen.Op, 2); err != nil {
			t.Fatal(err)
		}
		grid, _ := stats.SampleGrid(append([]float64(nil), c.Cols[1][:stats.SampleSize]...), 10)
		spec := &PassSpec{Kind: PassRefine, Epoch: 1, Grids: []GridSpec{
			{Base: 0, Buckets: []int{0}, IV: []bool{true}},
			{Base: -1, Gen: gen, Grid: grid, Buckets: []int{0, 40, 700, stats.NumBuckets - 1}, IV: []bool{true, false, true, false}},
		}}
		cols := ws.liveCols(c)
		plans := spec.tables()
		s := ws.takeScratch()
		out := []*Gather{new(Gather), new(Gather)}
		gather := func() {
			if err := ws.codeLabels(c.Label, &spec.Target); err != nil {
				t.Fatal(err)
			}
			for i := range spec.Grids {
				g := &spec.Grids[i]
				vals, err := ws.colOf(s, g.Base, g.Gen, cols, s.floats(rows))
				if err != nil {
					t.Fatal(err)
				}
				gatherCol(g, &plans[i], vals, ws.code, s, out[i])
			}
		}
		gather()
		if a := testing.AllocsPerRun(20, gather); a != 0 {
			t.Errorf("%v: the gather kernel: %v allocations a chunk", task, a)
		}
		if len(out[0].Vals) == 0 || len(out[1].Codes) == 0 {
			t.Fatalf("%v: the gather kernel filed nothing (%d values, %d codes); the check would be vacuous", task, len(out[0].Vals), len(out[1].Codes))
		}
	}
}
