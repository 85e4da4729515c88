package shard

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/operators"
	"repro/internal/sketch"
)

// This file is the fitter's half of every streaming pass: reify the pass
// into a PassSpec, hand it to the executor, and fold the Partials it
// delivers. RunPass delivers partials in ascending partition order and never
// concurrently, and a fold that spreads its candidates over the pool (each)
// gives every candidate to one goroutine, so every merged statistic
// accumulates in the sequence a serial fold produces — selection stays
// bit-identical across worker counts, executors and transports.
//
// Every fold bounds-checks the partial's payload before indexing: a kernel
// (or a peer speaking the right protocol) that computed the wrong shape
// aborts the fit with a typed error instead of corrupting statistics.

// runPass executes one reified pass through the executor, threading the
// pass ordinal, the live epoch, and the shared pass bookkeeping. The fold
// sees every partial shape-checked against the gathered row span and with
// its typed payload in place, however it travelled.
func (f *fitter) runPass(spec *PassSpec, fold func(*Partial) error) error {
	f.stats.Passes++
	spec.Pass = f.stats.Passes
	spec.Epoch = f.liveEpoch
	res, err := f.exec.RunPass(f.ctx, spec, func(p *Partial) error {
		if p.Rows < 0 || p.Start < 0 {
			return fmt.Errorf("shard: pass %d partial %d has negative shape", spec.Kind, p.Chunk)
		}
		if f.n > 0 && p.Start+p.Rows > f.n {
			return fmt.Errorf("shard: pass %d partial %d spans rows [%d,%d) of %d", spec.Kind, p.Chunk, p.Start, p.Start+p.Rows, f.n)
		}
		if err := p.Decode(spec, f.arena); err != nil {
			return err
		}
		return fold(p)
	})
	if err != nil {
		return err
	}
	f.stats.Retries += res.Retries
	f.stats.RowsStreamed += int64(res.Rows)
	if f.n == 0 {
		f.n, f.stats.Rows, f.stats.Partitions = res.Rows, res.Rows, res.Parts
		return nil
	}
	if res.Rows != f.n {
		return fmt.Errorf("shard: source yielded %d rows on a later pass, want %d (unstable source)", res.Rows, f.n)
	}
	return nil
}

// syncLive pushes the current live set to the executor as a new epoch: from
// every node generated so far, the dependency-ordered program that derives it
// (by operator registry name), plus the live feature names — what a worker's
// evaluator replays per chunk.
func (f *fitter) syncLive(nodes []core.FeatureNode) error {
	live := make([]string, len(f.live))
	for i, lf := range f.live {
		live[i] = lf.Name
	}
	program := core.ReachableNodes(nodes, live)
	prog, err := core.Compile(f.names, program, live)
	if err != nil {
		return fmt.Errorf("shard: live set: %w", err)
	}
	rows := len(f.sample.Rows)
	f.sampleLive = prog.Eval(f.sample.Vals, func() []float64 { return make([]float64, rows) })
	specs := make([]NodeSpec, len(program))
	for i := range program {
		op, ok := operators.ApplierOp(program[i].Applier)
		if !ok {
			return fmt.Errorf("shard: node %q has a non-registry applier", program[i].Name)
		}
		specs[i] = NodeSpec{Name: program[i].Name, Inputs: program[i].Inputs, Op: op}
	}
	f.liveEpoch++
	return f.exec.SetLive(f.ctx, f.liveEpoch, specs, live)
}

// genSpec reifies one generated candidate for kernel-side recomputation.
func genSpec(c *core.Candidate) (GenSpec, error) {
	op, ok := operators.ApplierOp(c.Node.Applier)
	if !ok {
		return GenSpec{}, fmt.Errorf("shard: candidate %q has a non-registry applier", c.Node.Name)
	}
	return GenSpec{Op: op, Feats: c.Feats}, nil
}

// passBase is pass 1: labels, the row sample, and each source column's
// moments, whose non-NaN count the count pass holds the column's bucket counts
// to. The moments merge in partition order, the samples as a bottom-k, which
// is the same rows in any order.
func (f *fitter) passBase() error {
	f.nonNaN = map[int][]int64{}
	return f.runPass(&PassSpec{Kind: PassBaseSketch}, func(p *Partial) error {
		if len(p.Labels) != p.Rows {
			return fmt.Errorf("shard: base-sketch partial %d carries %d labels for %d rows", p.Chunk, len(p.Labels), p.Rows)
		}
		if err := checkSample(p, len(f.names)); err != nil {
			return err
		}
		if len(p.Moments) != len(f.live) {
			return fmt.Errorf("shard: base-sketch partial %d has %d moments, want %d", p.Chunk, len(p.Moments), len(f.live))
		}
		nn := make([]int64, len(f.live))
		for j := range p.Moments {
			m := &p.Moments[j]
			if m.Rows != int64(p.Rows) || m.N < 0 || m.NaNs < 0 || m.N+m.NaNs != m.Rows {
				return fmt.Errorf("shard: base-sketch partial %d col %d: moments of %d values and %d NaNs for %d rows",
					p.Chunk, j, m.N, m.NaNs, p.Rows)
			}
			nn[j] = m.N
			f.live[j].mom.Merge(m)
		}
		f.nonNaN[p.Chunk] = nn
		f.labels = append(f.labels, p.Labels...)
		f.sample = f.sample.merge(p.Sample)
		return nil
	})
}

// placeCodes copies one partial's chunk codes — of a column cut at the given
// cuts — into its resident column. Codes land in disjoint global row ranges,
// so placement alone (not fold order) determines the result. Every code is
// held to the column's bins first: the resident matrix is indexed by them (the
// GBDT histograms, the combination scorer's cell tables), and these bytes may
// be a peer's.
func placeCodes(dst []uint8, cuts []float64, p *Partial, i int) error {
	if len(p.Codes[i]) != p.Rows {
		return fmt.Errorf("shard: codes partial %d col %d has %d rows, want %d", p.Chunk, i, len(p.Codes[i]), p.Rows)
	}
	bins := len(cuts) + 1
	for _, c := range p.Codes[i] {
		if int(c) > bins {
			return fmt.Errorf("shard: codes partial %d col %d code %d outside %d bins", p.Chunk, i, c, bins)
		}
	}
	copy(dst[p.Start:p.Start+p.Rows], p.Codes[i])
	return nil
}

// passLiveCodes streams one pass building the resident codes of the live
// features from their cuts.
func (f *fitter) passLiveCodes() error {
	live := f.live
	spec := &PassSpec{Kind: PassCodes, LiveCuts: make([][]float64, len(live))}
	for i := range live {
		spec.LiveCuts[i] = live[i].Cuts
	}
	return f.runPass(spec, func(p *Partial) error {
		if len(p.Codes) != len(live) {
			return fmt.Errorf("shard: codes partial %d has %d columns, want %d", p.Chunk, len(p.Codes), len(live))
		}
		for i := range live {
			if err := placeCodes(live[i].Codes, live[i].Cuts, p, i); err != nil {
				return err
			}
		}
		return nil
	})
}

// entrySpec reifies candidate i of the round for the Gram pass, to be binned
// at cuts: a live feature by its index, a generated candidate by
// its recipe.
func (f *fitter) entrySpec(i int, c *core.Candidate, cuts []float64) (EntrySpec, error) {
	if i < len(f.live) {
		return EntrySpec{Base: i, Cuts: cuts}, nil
	}
	g, err := genSpec(c)
	return EntrySpec{Base: -1, Gen: g, Cuts: cuts}, err
}

// ErrGramMoments: a Gram partial's moments of a generated survivor count other
// than the partial's rows, or a NaN, or pair a finite mean with an M2 that is
// not ≥ 0. (Values near ±MaxFloat64 overflow the mean honestly; once it is not
// finite, neither is anything after it, and Pearson finds the column
// correlated with nothing, as it always has.)
var ErrGramMoments = errors.New("survivor moments do not describe the partial's rows")

// passGramAndCodes streams one pass over the IV survivors, accumulating the
// pairwise co-moment Gram matrix (per-partition partials merged by addition
// in partition order — the identical float sums of a sequential pass, since
// each chunk's dot products add once either way) and the generated survivors'
// moments (merged likewise, over the chunks the count pass saw: its bits), and
// materialising resident ranker codes for the survivors that carry none at the
// ranker's bin count (a live feature binned for a miner of the same count does).
func (f *fitter) passGramAndCodes(cands []*core.Candidate, keptA []int) (*sketch.Gram, error) {
	bins := f.cfg.Ranker.MaxBins
	kept := make([]*column, len(keptA))
	specs := make([]EntrySpec, len(keptA))
	if err := f.each(len(keptA), func(gi int) error {
		idx := keptA[gi]
		c := col(cands[idx])
		kept[gi] = c
		need := !c.BinnedAt(bins)
		if need {
			c.Cuts = c.binnerCuts(bins)
			c.Codes, c.Bins = make([]uint8, f.n), bins
		}
		spec, err := f.entrySpec(idx, cands[idx], c.Cuts)
		spec.NeedCodes = need
		specs[gi] = spec
		return err
	}); err != nil {
		return nil, err
	}
	var gens []*column // the generated survivors, in entry order
	for gi, c := range kept {
		if specs[gi].Base < 0 {
			gens = append(gens, c)
		}
	}
	gram := sketch.NewGram(len(kept))
	err := f.runPass(&PassSpec{Kind: PassGramCodes, Entries: specs}, func(p *Partial) error {
		if len(p.Codes) != len(kept) {
			return fmt.Errorf("shard: gram partial %d has %d code columns, want %d", p.Chunk, len(p.Codes), len(kept))
		}
		if p.Gram == nil || p.Gram.K() != len(kept) {
			return fmt.Errorf("shard: gram partial %d does not cover the %d surviving columns", p.Chunk, len(kept))
		}
		if len(p.Moments) != len(gens) {
			return fmt.Errorf("shard: gram partial %d has %d moments, want %d", p.Chunk, len(p.Moments), len(gens))
		}
		for g, c := range gens {
			m := &p.Moments[g]
			finite := !math.IsNaN(m.Mean) && !math.IsInf(m.Mean, 0)
			if m.Rows != int64(p.Rows) || m.N != m.Rows || finite && !(m.M2 >= 0) {
				return fmt.Errorf("shard: gram partial %d generated survivor %d: %d of %d rows, mean %v, M2 %v for %d rows: %w",
					p.Chunk, g, m.N, m.Rows, m.Mean, m.M2, p.Rows, ErrGramMoments)
			}
			c.mom.Merge(m)
		}
		// Back to the arena at once: a partial that came over the wire was
		// decoded from it, and no executor takes those back.
		gram.Merge(p.Gram)
		f.arena.PutGram(p.Gram)
		p.Gram = nil
		for gi, c := range kept {
			if specs[gi].NeedCodes {
				if err := placeCodes(c.Codes, c.Cuts, p, gi); err != nil {
					return err
				}
			}
		}
		return nil
	})
	return gram, err
}
