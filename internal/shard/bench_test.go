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

// BenchmarkShardPass times the candidate-sketch pass — the widest kernel and
// the widest fold of a fit — over four 5,000-row partitions of 50 columns and
// 600 generated candidates: ComputePartial, foldSketches, Release per
// partition, on the GOMAXPROCS-sized pool. Run it with -cpu 1,2,4: at 1 the
// column loops run inline, which is what a one-worker fit pays for them.
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
		chunks[ci] = c
	}
	spec := &PassSpec{Kind: PassSketchGen, Epoch: 1}
	ops := []string{"add", "sub", "mul", "div"}
	for i := 0; i < gens; i++ {
		spec.Gens = append(spec.Gens, GenSpec{Op: ops[i%len(ops)], Feats: []int{i % cols, (i*7 + 3) % cols}})
	}
	pool := parallel.Default()
	arena := sketch.NewArena()
	f := &fitter{ctx: context.Background(), pool: pool, arena: arena}
	ws := newWorkerState(names, core.BinaryTask(), 0, operators.NewRegistry(), arena, pool)
	if err := ws.SetLive(1, nil, names); err != nil {
		b.Fatal(err)
	}
	sks := make([]*sketch.Quantile, gens)
	moms := make([]*sketch.Moments, gens)
	for i := range sks {
		sks[i], moms[i] = sketch.NewQuantile(0), &sketch.Moments{}
	}
	pass := func() {
		for i := range sks {
			sks[i].Reset()
		}
		for _, c := range chunks {
			p, err := ws.ComputePartial(f.ctx, spec, c)
			if err != nil {
				b.Fatal(err)
			}
			if err := f.foldSketches(p, "bench", sks, moms); err != nil {
				b.Fatal(err)
			}
			ws.Release(p)
		}
	}
	pass() // warm the arena and the scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pass()
	}
}
