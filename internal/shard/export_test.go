package shard

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/frame"
	"repro/internal/operators"
	"repro/internal/parallel"
	"repro/internal/sketch"
)

// NewWorkerStateOn is NewWorkerState on the shared pool of the given size,
// for the tests that pin a partial's bytes across pool sizes.
func NewWorkerStateOn(names []string, task core.Task, sketchSize, workers int) *WorkerState {
	return newWorkerState(names, task, sketchSize, operators.NewRegistry(), sketch.NewArena(), parallel.Get(workers))
}

// PartialSize is the quantile partial budget, for the test that pins a
// partial's wire size to it.
const PartialSize = partialSize

// SampleKey is the row sample's order, for tests that place values where the
// sample cannot see them.
func SampleKey(row int) uint64 { return sampleKey(row) }

// GridCut is what the grid passes made of one generated candidate: its cuts at
// every bin count the fit cuts at (Cuts[bins]), its binner cuts at the
// miner's count, and, for a count task, its criterion's per-bin class counts
// (bin·k + class) and criterion.
type GridCut struct {
	Cuts       map[int][]float64
	BinnerCuts []float64
	Counts     []int32
	Crit       float64
}

// CutGenerated opens a fit of src through exec (nil: the in-process executor)
// and runs one round's grid passes — Generate, then Criteria — over the given
// generated candidates of the source's columns, returning what they made of
// each, and the live features' cut tables' cuts likewise.
func CutGenerated(ctx context.Context, src frame.ChunkSource, exec Executor, cfg Config, gens []GenSpec) (gen, live []GridCut, err error) {
	norm, err := core.NormalizeConfig(cfg.Core)
	if err != nil {
		return nil, nil, err
	}
	pool := norm.Pool()
	f := &fitter{ctx: ctx, cfg: norm, pool: pool, sketchSize: cfg.SketchSize, names: src.Names(), arena: sketch.NewArena(), exec: exec}
	if f.exec == nil {
		le := newLocalExec(ctx, src, cfg, pool, norm.Registry, f.arena)
		defer le.close()
		f.exec = le
	}
	if _, err := f.Open(); err != nil {
		return nil, nil, err
	}
	cands := make([]*core.Candidate, len(f.live), len(f.live)+len(gens))
	for i, lf := range f.live {
		cands[i] = &core.Candidate{Column: lf, Feats: []int{i}}
	}
	for i, g := range gens {
		op, err := norm.Registry.Get(g.Op)
		if err != nil {
			return nil, nil, err
		}
		ap, err := op.Fit(make([][]float64, len(g.Feats)))
		if err != nil {
			return nil, nil, err
		}
		inputs := make([]string, len(g.Feats))
		for k, fi := range g.Feats {
			inputs[k] = f.live[fi].Name
		}
		cands = append(cands, &core.Candidate{Node: &core.FeatureNode{Name: fmt.Sprintf("g%d", i), Inputs: inputs, Applier: ap}, Feats: g.Feats})
	}
	if _, err := f.Generate(cands); err != nil {
		return nil, nil, err
	}
	if _, err := f.Criteria(cands); err != nil {
		return nil, nil, err
	}
	out := make([]GridCut, len(cands))
	for i, c := range cands {
		cl := col(c)
		out[i] = GridCut{Cuts: map[int][]float64{}, BinnerCuts: cl.binnerCuts(norm.Miner.MaxBins), Counts: cl.ivCounts, Crit: cl.crit}
		for _, bins := range []int{norm.Miner.MaxBins, norm.IVBins, norm.Ranker.MaxBins} {
			out[i].Cuts[bins] = cl.cuts(bins)
		}
	}
	return out[len(f.live):], out[:len(f.live)], nil
}
