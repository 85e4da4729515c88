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
		if err := p.Decode(spec.Kind, f.arena); err != nil {
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

// passBaseSketch is pass 1: labels plus per-original quantile sketches and
// moments. Each partition summarises independently; the fold merges the
// partition summaries in partition order.
func (f *fitter) passBaseSketch() error {
	sks := make([]*sketch.Quantile, len(f.live))
	moms := make([]*sketch.Moments, len(f.live))
	for j, lf := range f.live {
		sks[j], moms[j] = lf.sk, lf.mom
	}
	return f.runPass(&PassSpec{Kind: PassBaseSketch}, func(p *Partial) error {
		if len(p.Labels) != p.Rows {
			return fmt.Errorf("shard: base-sketch partial %d carries %d labels for %d rows", p.Chunk, len(p.Labels), p.Rows)
		}
		f.labels = append(f.labels, p.Labels...)
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

// passCandidateSketches streams one pass sketching every generated
// candidate column (quantile summary + moments); the fold merges the
// partition partials into each candidate's running sketch in partition
// order.
func (f *fitter) passCandidateSketches(gens []*core.Candidate) error {
	if len(gens) == 0 {
		return nil
	}
	spec := &PassSpec{Kind: PassSketchGen, Gens: make([]GenSpec, len(gens))}
	sks := make([]*sketch.Quantile, len(gens))
	moms := make([]*sketch.Moments, len(gens))
	for i, c := range gens {
		g, err := genSpec(c)
		if err != nil {
			return err
		}
		spec.Gens[i], sks[i], moms[i] = g, col(c).sk, col(c).mom
	}
	return f.runPass(spec, func(p *Partial) error {
		return f.foldSketches(p, "gen-sketch", sks, moms)
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

// openRef is one column whose cut refiner still needs gathered values: a raw
// source column (col >= 0, the pre-generation live pass) or a generated
// candidate the kernel recomputes (col < 0, gen).
type openRef struct {
	ref  *sketch.Refiner
	name string
	col  int
	gen  GenSpec
}

// openRefiner brackets a merged sketch's cut targets. The refiner carries
// every rank query from here on, and all the fit still reads off the sketch
// is Count, Min, Max and ErrorBound — so the summary's point lists go.
func (f *fitter) openRefiner(sk *sketch.Quantile) *sketch.Refiner {
	ref := sketch.NewRefiner(sk, cutRankUnion(sk.Count(), &f.cfg))
	sk.ReleasePoints()
	return ref
}

// refineLive brackets the live sketches' cut targets and, when any bracket
// is still open, streams one gather pass to resolve them exactly.
// refineLive runs before any feature generation, so the gather addresses raw
// source columns by schema index.
func (f *fitter) refineLive() error {
	if err := f.each(len(f.live), func(j int) error {
		f.live[j].ref = f.openRefiner(f.live[j].sk)
		return nil
	}); err != nil {
		return err
	}
	var open []openRef
	for j, lf := range f.live {
		if lf.ref.NeedsPass() {
			open = append(open, openRef{ref: lf.ref, name: lf.Name, col: j})
		}
	}
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

// refineCandidates is refineLive for the round's generated candidates,
// whose columns the kernel recomputes per chunk to gather their open
// brackets. Base refiners carry over from the live set.
func (f *fitter) refineCandidates(gens []*core.Candidate) error {
	if err := f.each(len(gens), func(i int) error {
		c := col(gens[i])
		c.ref = f.openRefiner(c.sk)
		return nil
	}); err != nil {
		return err
	}
	var open []openRef
	for _, cand := range gens {
		c := col(cand)
		if !c.ref.NeedsPass() {
			continue
		}
		g, err := genSpec(cand)
		if err != nil {
			return err
		}
		open = append(open, openRef{ref: c.ref, name: c.Name, col: -1, gen: g})
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
		rf.Col, rf.Gen = o.col, o.gen
		rf.Ranks, rf.Lo, rf.Hi, rf.Resolved = o.ref.Brackets()
	}
	err := f.runPass(&PassSpec{Kind: PassRefine, Refines: refines}, func(p *Partial) error {
		if len(p.Refiners) != len(open) {
			return fmt.Errorf("shard: refine partial %d has %d gathers, want %d", p.Chunk, len(p.Refiners), len(open))
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

// passCandidateCounts streams one pass accumulating every candidate's
// binned criterion histogram, from which the task's relevance criterion
// (IV, multiclass IV, or η²) follows. The count-valued families (binary,
// multiclass) merge per-partition shadow histograms exactly, in partition
// order; the regression moment histogram replays the partitions' bin ids
// against the gathered targets in global row order, keeping the float
// arithmetic bit-identical to the in-memory single-pass accumulation.
func (f *fitter) passCandidateCounts(cands []*core.Candidate) error {
	spec := &PassSpec{Kind: PassHistCounts, Entries: make([]EntrySpec, len(cands))}
	if f.cfg.Task.Kind == core.TaskRegression {
		spec.Kind = PassHistIDs
	}
	cols := make([]*column, len(cands))
	for i, c := range cands {
		cols[i] = col(c)
		var err error
		if spec.Entries[i], err = f.entrySpec(i, c, cols[i].ivCuts); err != nil {
			return err
		}
	}
	// The prepared histograms are the merge targets; the in-process kernels
	// shadow these same objects, reading only their cuts and bucket index.
	for i, h := range spec.prepared(f.cfg.Task).hists {
		cols[i].hist = h
	}
	if spec.Kind == PassHistIDs {
		return f.runPass(spec, func(p *Partial) error {
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
				cols[i].hist.(*sketch.MomentHist).AddBinned(ids, targets)
				return nil
			})
		})
	}
	return f.runPass(spec, func(p *Partial) error {
		if len(p.Hists) != len(cols) {
			return fmt.Errorf("shard: hist partial %d has %d histograms, want %d", p.Chunk, len(p.Hists), len(cols))
		}
		return f.each(len(cols), func(i int) error {
			// MergeHist's cut-equality check doubles as an integrity check on
			// the partition's histogram.
			if err := cols[i].hist.MergeHist(p.Hists[i]); err != nil {
				return fmt.Errorf("shard: hist partial %d cand %d: %w", p.Chunk, i, err)
			}
			return nil
		})
	})
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
			c.Cuts = sketch.ExactBinnerCuts(c.sk, c.ref, bins)
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
