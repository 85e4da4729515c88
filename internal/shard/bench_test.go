package shard

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/frame"
	"repro/internal/operators"
	"repro/internal/parallel"
	"repro/internal/sketch"
)

// BenchmarkShardPass times the two grid passes that cut a round's generated
// candidates — the widest kernels and folds of a fit — over four 5,000-row
// partitions of 50 columns and 600 generated candidates: the count pass
// (ComputePartial, foldCounts, Release per partition, then locate), then the
// gather pass (ComputePartial, foldGather, Release, then resolve), on the
// GOMAXPROCS-sized pool. Run it with -cpu 1,2,4: at 1 the column loops run
// inline, which is what a one-worker fit pays for them.
func BenchmarkShardPass(b *testing.B) {
	const rows, cols, gens, parts = 5000, 50, 600, 4
	rng := rand.New(rand.NewSource(1))
	names := make([]string, cols)
	for j := range names {
		names[j] = fmt.Sprintf("f%d", j)
	}
	chunks := make([]*frame.Chunk, parts)
	for ci := range chunks {
		c := &frame.Chunk{Index: ci, Start: ci * rows, Cols: make([][]float64, cols), Label: make([]float64, rows)}
		for j := range c.Cols {
			c.Cols[j] = make([]float64, rows)
			for r := range c.Cols[j] {
				c.Cols[j][r] = rng.NormFloat64()
			}
		}
		for r := range c.Label {
			c.Label[r] = float64(rng.Intn(2))
		}
		chunks[ci] = c
	}
	pool := parallel.Default()
	arena := sketch.NewArena()
	cfg, err := core.NormalizeConfig(core.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	f := &fitter{ctx: context.Background(), cfg: cfg, pool: pool, arena: arena, n: rows * parts}
	ws := newWorkerState(names, cfg.Task, 0, operators.NewRegistry(), arena, pool)
	if err := ws.SetLive(1, nil, names); err != nil {
		b.Fatal(err)
	}
	for _, c := range chunks {
		f.sample = f.sample.merge(chunkSample(c.Cols, c.Start, rows))
	}
	ops := []string{"add", "sub", "mul", "div"}
	specs := make([]GenSpec, gens)
	appliers := make([]operators.Applier, gens)
	for i := range specs {
		specs[i] = GenSpec{Op: ops[i%len(ops)], Feats: []int{i % cols, (i*7 + 3) % cols}}
		if appliers[i], err = ws.applier(specs[i].Op, 2); err != nil {
			b.Fatal(err)
		}
	}
	k := taskClasses(cfg.Task)
	pass := func() {
		cands := make([]*column, gens)
		countSpec := &PassSpec{Kind: PassSketchGen, Epoch: 1, Grids: make([]GridSpec, gens)}
		for i := range cands {
			cands[i] = &column{mom: &sketch.Moments{}, grid: newGridState(specs[i], appliers[i], f.sample.Vals, &f.cfg)}
			countSpec.Grids[i] = cands[i].grid.spec
		}
		for _, c := range chunks {
			p, err := ws.ComputePartial(f.ctx, countSpec, c)
			if err != nil {
				b.Fatal(err)
			}
			if err := f.each(gens, func(i int) error { return cands[i].foldCounts(&p.Counts[i], &p.Moments[i], p.Rows) }); err != nil {
				b.Fatal(err)
			}
			ws.Release(p)
		}
		gatherSpec := &PassSpec{Kind: PassRefine, Epoch: 1, Grids: make([]GridSpec, gens)}
		for i, c := range cands {
			c.locate(&f.cfg)
			gatherSpec.Grids[i] = c.grid.spec
		}
		for _, c := range chunks {
			p, err := ws.ComputePartial(f.ctx, gatherSpec, c)
			if err != nil {
				b.Fatal(err)
			}
			if err := f.each(gens, func(i int) error { return cands[i].foldGather(p.Gathers[i], k, true) }); err != nil {
				b.Fatal(err)
			}
			ws.Release(p)
		}
		if err := f.each(gens, func(i int) error { return cands[i].resolve(cfg.Task) }); err != nil {
			b.Fatal(err)
		}
	}
	pass() // warm the arena and the scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pass()
	}
}
