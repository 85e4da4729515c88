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
func NewWorkerStateOn(names []string, task core.Task, workers int) *WorkerState {
	return newWorkerState(names, task, operators.NewRegistry(), sketch.NewArena(), parallel.Get(workers))
}

// SampleKey is the row sample's order, for tests that place values where the
// sample cannot see them.
func SampleKey(row int) uint64 { return sampleKey(row) }

// GridCut is what the grid passes made of one column: its cuts at
// every bin count the fit cuts at (Cuts[bins]), its binner cuts at the
// miner's count, and, for a count task, its criterion's per-bin class counts
// (bin·k + class) and criterion.
type GridCut struct {
	Cuts       map[int][]float64
	BinnerCuts []float64
	Counts     []int64
	Crit       float64
}

// openRound opens a fit of src through exec (nil: the in-process executor)
// and runs one round's grid passes — Generate, then Criteria — over the live
// features and the given generated candidates of the source's columns. done
// closes the in-process executor.
func openRound(ctx context.Context, src frame.ChunkSource, exec Executor, cfg Config, gens []GenSpec) (f *fitter, cands []*core.Candidate, done func(), err error) {
	done = func() {}
	norm, err := core.NormalizeConfig(cfg.Core)
	if err != nil {
		return nil, nil, done, err
	}
	pool := norm.Pool()
	f = &fitter{ctx: ctx, cfg: norm, pool: pool, names: src.Names(), arena: sketch.NewArena(), exec: exec}
	if f.exec == nil {
		le := newLocalExec(ctx, src, cfg, pool, norm.Registry, f.arena)
		done = le.close
		f.exec = le
	}
	if _, err := f.Open(); err != nil {
		return nil, nil, done, err
	}
	cands = make([]*core.Candidate, len(f.live), len(f.live)+len(gens))
	for i, lf := range f.live {
		cands[i] = &core.Candidate{Column: lf, Feats: []int{i}}
	}
	for i, g := range gens {
		op, err := norm.Registry.Get(g.Op)
		if err != nil {
			return nil, nil, done, err
		}
		ap, err := op.Fit(make([][]float64, len(g.Feats)))
		if err != nil {
			return nil, nil, done, err
		}
		inputs := make([]string, len(g.Feats))
		for k, fi := range g.Feats {
			inputs[k] = f.live[fi].Name
		}
		cands = append(cands, &core.Candidate{Node: &core.FeatureNode{Name: fmt.Sprintf("g%d", i), Inputs: inputs, Applier: ap}, Feats: g.Feats})
	}
	if _, err := f.Generate(cands); err != nil {
		return nil, nil, done, err
	}
	if _, err := f.Criteria(cands); err != nil {
		return nil, nil, done, err
	}
	return f, cands, done, nil
}

// CutGenerated runs one round's grid passes (see openRound) and returns what
// they made of each generated candidate, and what the pre-iteration grid
// passes made of each source column likewise.
func CutGenerated(ctx context.Context, src frame.ChunkSource, exec Executor, cfg Config, gens []GenSpec) (gen, live []GridCut, err error) {
	f, cands, done, err := openRound(ctx, src, exec, cfg, gens)
	defer done()
	if err != nil {
		return nil, nil, err
	}
	out := make([]GridCut, len(cands))
	for i, c := range cands {
		cl := col(c)
		out[i] = GridCut{Cuts: map[int][]float64{}, BinnerCuts: cl.binnerCuts(f.cfg.Miner.MaxBins), Counts: cl.ivCounts, Crit: cl.crit}
		for _, bins := range []int{f.cfg.Miner.MaxBins, f.cfg.IVBins, f.cfg.Ranker.MaxBins} {
			out[i].Cuts[bins] = cl.cuts(bins)
		}
	}
	return out[len(f.live):], out[:len(f.live)], nil
}

// GramMoments runs one round's grid passes (see openRound), then the Gram pass
// with every candidate kept, and returns each generated candidate's moments —
// the ones the Pearson stage reads — and whether it counts as constant there.
func GramMoments(ctx context.Context, src frame.ChunkSource, exec Executor, cfg Config, gens []GenSpec) ([]sketch.Moments, []bool, error) {
	f, cands, done, err := openRound(ctx, src, exec, cfg, gens)
	defer done()
	if err != nil {
		return nil, nil, err
	}
	kept := make([]int, len(cands))
	for i := range kept {
		kept[i] = i
	}
	if _, err := f.Correlated(cands, kept); err != nil {
		return nil, nil, err
	}
	moms := make([]sketch.Moments, len(gens))
	constant := make([]bool, len(gens))
	for i, c := range cands[len(f.live):] {
		moms[i], constant[i] = *col(c).mom, col(c).constant()
	}
	return moms, constant, nil
}
