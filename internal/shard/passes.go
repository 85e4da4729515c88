package shard

import (
	"fmt"

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
	// A planned partial pass (block-stat skipping) announces its expected row
	// count through f.passExpect; any other shortfall is an unstable source.
	expect := f.n
	if f.passExpect > 0 {
		expect = f.passExpect
	}
	if res.Rows != expect {
		return fmt.Errorf("shard: source yielded %d rows on a later pass, want %d (unstable source)", res.Rows, expect)
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

// foldSketches merges one partial's quantile/moments summaries into their
// running targets, index by index. Each merged quantile partial goes back to
// the arena at once: a partial that came over the wire was decoded from it,
// and no executor takes those back.
func (f *fitter) foldSketches(p *Partial, what string, sks []*sketch.Quantile, moms []*sketch.Moments) error {
	if len(p.Quantiles) != len(sks) || len(p.Moments) != len(sks) {
		return fmt.Errorf("shard: %s partial %d has %d sketches and %d moments, want %d",
			what, p.Chunk, len(p.Quantiles), len(p.Moments), len(sks))
	}
	return f.each(len(sks), func(i int) error {
		sks[i].Merge(p.Quantiles[i])
		f.arena.PutQuantile(p.Quantiles[i])
		p.Quantiles[i] = nil
		moms[i].Merge(&p.Moments[i])
		return nil
	})
}

// passBaseSketch is pass 1: labels, the row sample, and per-original
// quantile sketches and moments. Each partition summarises independently; the
// fold merges the partition summaries in partition order, and the samples as
// a bottom-k, which is the same rows in any order.
func (f *fitter) passBaseSketch(sks []*sketch.Quantile) error {
	moms := make([]*sketch.Moments, len(f.live))
	for j, lf := range f.live {
		moms[j] = lf.mom
	}
	return f.runPass(&PassSpec{Kind: PassBaseSketch}, func(p *Partial) error {
		if len(p.Labels) != p.Rows {
			return fmt.Errorf("shard: base-sketch partial %d carries %d labels for %d rows", p.Chunk, len(p.Labels), p.Rows)
		}
		if err := checkSample(p, len(f.names)); err != nil {
			return err
		}
		f.labels = append(f.labels, p.Labels...)
		f.sample = f.sample.merge(p.Sample)
		return f.foldSketches(p, "base-sketch", sks, moms)
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

// cutRankUnion merges the nearest-rank targets of every bin count the fit
// will cut a column at (miner bins, IV bins, ranker bins), so one refiner
// per column serves all cut consumers. n is the column's own non-NaN count
// — the population quantile ranks are defined over — which differs per
// column when values are missing.
func cutRankUnion(n int64, cfg *core.Config) []int64 {
	merged := sketch.CutRanks(n, cfg.Miner.MaxBins)
	for _, bins := range []int{cfg.IVBins, cfg.Ranker.MaxBins} {
		extra := sketch.CutRanks(n, bins)
		out := make([]int64, 0, len(merged)+len(extra))
		i, j := 0, 0
		for i < len(merged) || j < len(extra) {
			switch {
			case i == len(merged):
				out = append(out, extra[j])
				j++
			case j == len(extra):
				out = append(out, merged[i])
				i++
			case merged[i] < extra[j]:
				out = append(out, merged[i])
				i++
			case merged[i] > extra[j]:
				out = append(out, extra[j])
				j++
			default:
				out = append(out, merged[i])
				i++
				j++
			}
		}
		merged = out
	}
	return merged
}

// openRef is one source column whose cut refiner still needs gathered
// values, before the first round.
type openRef struct {
	ref  *sketch.Refiner
	name string
	col  int
}

// refineLive brackets the base sketches' cut targets and, when any bracket
// is still open, streams one gather pass to resolve them exactly; then fills
// every source column's cut table from its sketch and refiner. refineLive
// runs before any feature generation, so the gather addresses raw source
// columns by schema index.
func (f *fitter) refineLive(sks []*sketch.Quantile) error {
	refs := make([]*sketch.Refiner, len(sks))
	if err := f.each(len(sks), func(j int) error {
		// The refiner carries every rank query from here on, and all the fit
		// still reads off the sketch is Count, Max and ErrorBound — so the
		// summary's point lists go.
		refs[j] = sketch.NewRefiner(sks[j], cutRankUnion(sks[j].Count(), &f.cfg))
		sks[j].ReleasePoints()
		return nil
	}); err != nil {
		return err
	}
	var open []openRef
	for j, lf := range f.live {
		if refs[j].NeedsPass() {
			open = append(open, openRef{ref: refs[j], name: lf.Name, col: j})
		}
	}
	if err := f.refineOpen(open); err != nil {
		return err
	}
	return f.each(len(sks), func(j int) error {
		lf := f.live[j]
		lf.n, lf.max = sks[j].Count(), sks[j].Max()
		lf.ranks = cutRankUnion(lf.n, &f.cfg)
		lf.at = make([]float64, len(lf.ranks))
		for i, r := range lf.ranks {
			lf.at[i] = refs[j].Value(r)
		}
		return nil
	})
}

// refineOpen resolves the open refiners: with a skip plan when the source
// allows one, else with one full gather pass.
func (f *fitter) refineOpen(open []openRef) error {
	// The in-process executor streams a source the fitter can plan against: a
	// source with per-block statistics can prove blocks irrelevant up front,
	// so those chunks are never read and their exact contribution is folded
	// from the stats instead. A pure optimisation — any other executor gathers
	// the full pass.
	if le, ok := f.exec.(*localExec); ok && len(open) > 0 {
		cleanup, done := f.planRefineSkip(le, open)
		if cleanup != nil {
			defer cleanup()
		}
		if done {
			return f.checkBrackets(open)
		}
	}
	return f.refine(open)
}

// refine runs one gather pass for the open refiners: each partition gathers
// into shadow refiners, folded back in partition order (order-invariant
// counts; gathered values are sorted at finalize). Every bracket is then
// held to its order statistic before any cut is read off it.
func (f *fitter) refine(open []openRef) error {
	if len(open) == 0 {
		return nil
	}
	refines := make([]RefineSpec, len(open))
	for i, o := range open {
		rf := &refines[i]
		rf.Col = o.col
		rf.Ranks, rf.Lo, rf.Hi, rf.Resolved = o.ref.Brackets()
	}
	err := f.runPass(&PassSpec{Kind: PassRefine, Refines: refines}, func(p *Partial) error {
		if len(p.Refiners) != len(open) || len(p.Gathers) != 0 || len(p.Hists) != 0 {
			return fmt.Errorf("shard: refine partial %d has %d gathers, want %d", p.Chunk, len(p.Refiners)+len(p.Gathers)+len(p.Hists), len(open))
		}
		return f.each(len(open), func(i int) error {
			if err := open[i].ref.MergeWire(p.Refiners[i]); err != nil {
				return fmt.Errorf("shard: refine partial %d target %d: %w", p.Chunk, i, err)
			}
			return nil
		})
	})
	if err != nil {
		return err
	}
	return f.checkBrackets(open)
}

// checkBrackets fails the fit when a completed gather left any target outside
// its bracket: the cut there would be a bracket edge, not the order statistic,
// and every stage downstream of it silently different.
func (f *fitter) checkBrackets(open []openRef) error {
	return f.each(len(open), func(i int) error {
		if err := open[i].ref.Err(); err != nil {
			return fmt.Errorf("shard: refine %q: %w", open[i].name, err)
		}
		return nil
	})
}

// entrySpec reifies candidate i of the round for the histogram/Gram passes,
// to be binned at cuts: a live feature by its index, a generated candidate by
// its recipe.
func (f *fitter) entrySpec(i int, c *core.Candidate, cuts []float64) (EntrySpec, error) {
	if i < len(f.live) {
		return EntrySpec{Base: i, Cuts: cuts}, nil
	}
	g, err := genSpec(c)
	return EntrySpec{Base: -1, Gen: g, Cuts: cuts}, err
}

// passCandidateCounts streams the regression criterion's pass: every
// candidate's bin ids at its criterion cuts, replayed against the gathered
// targets in global row order, which keeps the float arithmetic of the moment
// histograms bit-identical to the in-memory single-pass accumulation.
func (f *fitter) passCandidateCounts(cands []*core.Candidate) error {
	spec := &PassSpec{Kind: PassHistIDs, Entries: make([]EntrySpec, len(cands))}
	cols := make([]*column, len(cands))
	for i, c := range cands {
		cols[i] = col(c)
		if i >= len(f.live) {
			cols[i].ivCuts = cols[i].cuts(f.cfg.IVBins)
		}
		var err error
		if spec.Entries[i], err = f.entrySpec(i, c, cols[i].ivCuts); err != nil {
			return err
		}
	}
	// The prepared histograms are the merge targets; the in-process kernels
	// read these same objects' cuts and bucket index.
	hists := spec.prepared(f.cfg.Task).hists
	err := f.runPass(spec, func(p *Partial) error {
		if len(p.Ints) != len(cols)*p.Rows {
			return fmt.Errorf("shard: hist-id partial %d has %d ids, want %d", p.Chunk, len(p.Ints), len(cols)*p.Rows)
		}
		targets := f.labels[p.Start : p.Start+p.Rows]
		return f.each(len(cols), func(i int) error {
			ids := p.Ints[i*p.Rows : (i+1)*p.Rows]
			bins := int32(len(cols[i].ivCuts) + 1)
			for _, id := range ids {
				if id < -1 || id >= bins {
					return fmt.Errorf("shard: hist-id partial %d cand %d bin id %d outside %d bins", p.Chunk, i, id, bins)
				}
			}
			hists[i].(*sketch.MomentHist).AddBinned(ids, targets)
			return nil
		})
	})
	if err != nil {
		return err
	}
	for i, h := range hists {
		cols[i].crit = h.Criterion()
	}
	return nil
}

// passGramAndCodes streams one pass over the IV survivors, accumulating the
// pairwise co-moment Gram matrix (per-partition partials merged by addition
// in partition order — the identical float sums of a sequential pass, since
// each chunk's dot products add once either way) and materialising resident
// ranker codes for the survivors that carry none at the ranker's bin count
// (a live feature binned for a miner of the same count does).
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
	gram := sketch.NewGram(len(kept))
	err := f.runPass(&PassSpec{Kind: PassGramCodes, Entries: specs}, func(p *Partial) error {
		if len(p.Codes) != len(kept) {
			return fmt.Errorf("shard: gram partial %d has %d code columns, want %d", p.Chunk, len(p.Codes), len(kept))
		}
		if p.Gram == nil || p.Gram.K() != len(kept) {
			return fmt.Errorf("shard: gram partial %d does not cover the %d surviving columns", p.Chunk, len(kept))
		}
		// Back to the arena at once, like a merged quantile partial: a partial
		// that came over the wire was decoded from it, and no executor takes
		// those back.
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
