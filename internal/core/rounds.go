package core

import (
	"context"
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/gbdt"
	"repro/internal/operators"
	"repro/internal/stats"
)

// This file is Algorithm 1, written once. RunRounds owns everything the
// paper's loop says — the rounds, the clock, every event, the choice of
// combinations (SAFE's mining and scoring, or another PairSource), the
// enumeration of candidates, the IV filter, the greedy redundancy scan,
// ranking, early stopping, the reports and the assembly of Ψ — and nothing
// about how a column is stored. Whatever depends on the representation is
// behind WorkingSet: raw columns in memory (stream.go), merged sketches and
// streaming passes out of core (internal/shard).

// Feature is the loop's record of one feature of the working set: its
// identity and its GBDT bin codes. Codes and Cuts are made the first time a
// booster needs the column and kept while the feature lives — the miner's
// codes are what the combination scorer reads, a base candidate takes them
// into the ranker as they are, and a selected feature carries its ranker
// codes into the next round's miner and the validation evaluator. Bins is
// the MaxBins they were cut at; a stage configured with another count rebins
// (RunRounds' binned is the one place that decides).
type Feature struct {
	Name  string
	Node  *FeatureNode // nil for an original column
	Codes []uint8
	Cuts  []float64
	Bins  int
}

// BinnedAt reports whether the feature carries codes cut at the given MaxBins.
func (f *Feature) BinnedAt(bins int) bool { return f.Codes != nil && f.Bins == bins }

// Record returns f: it is how the loop reads the record out of a Column.
func (f *Feature) Record() *Feature { return f }

// Column is an engine's representation of one feature: a struct that embeds
// Feature beside however it holds the values.
type Column interface{ Record() *Feature }

// Candidate is one entry of a round's candidate set X̂. The set lists the
// live features first (Node nil, Column the live feature itself), then the
// generated ones in enumeration order.
type Candidate struct {
	// Column is set by WorkingSet.Generate for a generated candidate.
	Column
	Node  *FeatureNode // the fitted application that derives it; nil for a base candidate
	Feats []int        // Node.Applier's inputs, as live indices
	In    [][]float64  // WorkingSet.Inputs(Feats), what the operator was fitted on
}

// Opened is what a working set hands the loop once its data is readable.
type Opened struct {
	Live   []Column // the original columns, in schema order
	Labels []float64
	// Code is Labels coded once for the task (Task.Code): what every
	// criterion and combination score counts.
	Code *stats.TargetCode
	// Rows is the fit's rows-processed counter, the Rows of every event, and
	// ScanRows what the loop credits to it for each full-data stage (mine,
	// score, generate, pearson, rank): the row count in memory, where such a
	// stage scans resident columns; zero out of core, where every streaming
	// pass has already counted the rows it read.
	Rows     *int64
	ScanRows int64
}

// WorkingSet is the seam between the loop and a column representation. A
// working set is made for one fit and holds that fit's context; its blocking
// methods return ctx.Err() once the context is done. cands is always the
// current round's candidate set and indices into it are what the loop's
// stages pass on.
type WorkingSet interface {
	// Open makes the data readable — out of core, the pre-iteration passes —
	// and returns the original live set. It runs after EventFitStart, on the
	// fit's clock.
	Open() (Opened, error)
	// Inputs returns what an operator is fitted on for the live features at
	// feats: their raw columns in memory, nil columns out of core (where only
	// data-independent operators are admitted).
	Inputs(feats []int) [][]float64
	// Bin gives every listed feature Codes and Cuts at cfg.MaxBins, binned as
	// gbdt.Train would bin its column.
	Bin(cols []Column, cfg gbdt.Config) error
	// Generate materialises the generated candidates and gives each its
	// Column. criterionTime is the part of the call spent on relevance
	// criteria, for an engine that scores while it generates: the loop
	// reports it under the IV stage.
	Generate(cands []*Candidate) (criterionTime time.Duration, err error)
	// Criteria returns every candidate's relevance criterion (Algorithm 3's
	// IV, or the task's counterpart).
	Criteria(cands []*Candidate) ([]float64, error)
	// Correlated prepares the kept candidates for Algorithm 4 and returns its
	// test: does candidate j correlate above θ, in absolute value, with any
	// candidate of among? A constant column correlates with nothing.
	Correlated(cands []*Candidate, kept []int) (func(j int, among []int) bool, error)
	// Carry makes the selected candidates, in order, the next live set and
	// lets go of the rest. nodes is every node generated so far, this round's
	// included, in dependency order: what derives the selection from the
	// original columns is ReachableNodes(nodes, its names).
	Carry(cands []*Candidate, selected []int, nodes []FeatureNode) error
}

// ValidationFunc scores the working set's live features on held-out data
// with the evaluator the loop trained on their codes; higher is better.
type ValidationFunc func(evaluator *gbdt.Model) float64

// RunRounds runs Algorithm 1 over the working set and returns Ψ and the
// fit's report. cfg must be normalised (NormalizeConfig); names are the
// original column names; validate, when non-nil, turns on per-round
// validation scores and, with cfg.Patience, early stopping.
func RunRounds(ctx context.Context, cfg Config, names []string, ws WorkingSet, validate ValidationFunc) (*Pipeline, *Report, error) {
	ops, err := cfg.Registry.GetAll(cfg.Operators)
	if err != nil {
		return nil, nil, err
	}
	arities := distinctArities(ops)
	pool := cfg.Pool()
	m := len(names)
	budget := cfg.MaxFeatures
	if budget <= 0 {
		budget = 2 * m
	}
	gamma := cfg.Gamma
	if gamma <= 0 {
		gamma = 2 * m
	}
	pairs := cfg.Pairs
	if pairs == nil {
		pairs = minedPairs
	}

	// The clock starts with the event: whatever Open streams before the first
	// round is part of the fit, for Report.Total and for TimeBudget.
	cfg.Emit(FitEvent{Kind: EventFitStart, Candidates: m})
	start := time.Now()
	o, err := ws.Open()
	if err != nil {
		return nil, nil, err
	}
	live, labels, rows := o.Live, o.Labels, o.Rows
	liveNames := featureNames(live)

	report := &Report{}
	var nodes []FeatureNode
	recorded := map[string]bool{} // the names in nodes
	// Validation scores are only comparable within a task; regression's
	// (negative RMSE) is always <= 0, so the best-so-far must start at -Inf
	// or no round could ever be accepted.
	bestScore := math.Inf(-1)
	best := liveNames // the selection Ψ is assembled from
	patienceLeft := cfg.Patience

	for round := 0; round < cfg.Iterations; round++ {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		if cfg.TimeBudget > 0 && time.Since(start) > cfg.TimeBudget {
			break
		}
		iterStart := time.Now()
		ir := IterationReport{Round: round + 1}
		sc := newStageClock(&cfg, &ir, rows)
		cfg.Emit(FitEvent{Kind: EventIterationStart, Round: ir.Round, Candidates: len(live), Rows: *rows})

		// (1)-(2) Choose the round's combinations: by default, mine them and
		// keep the top γ by gain ratio (minedPairs).
		sc.begin(StageMine, len(live))
		r := &PairRound{
			Round: round, Live: len(live), Gamma: gamma,
			ctx: ctx, cfg: &cfg, pool: pool, ws: ws, live: live, names: liveNames, labels: labels, code: o.Code,
			arities: arities, sc: sc, ir: &ir, scanRows: o.ScanRows,
		}
		combos, err := pairs(r)
		if err != nil {
			return nil, nil, err
		}
		if sc.stage == StageMine { // a source that scores nothing keeps every pair, reading no row
			r.scoring(len(combos))
			r.scanned = 0
		}
		ir.SearchSpaceAll = exhaustiveBinaryCount(len(live), ops)
		ir.CombosKept = len(combos)
		if len(combos) > 0 {
			ir.BestGainRatio = combos[0].GainRatio
		}
		sc.end(len(combos), r.scanned)

		// (3) Generate features (Algorithm 1 lines 6-7).
		sc.begin(StageGenerate, len(combos))
		cands, err := enumerate(ctx, ws, live, liveNames, labels, combos, ops)
		if err != nil {
			return nil, nil, err
		}
		criterionTime, err := ws.Generate(cands)
		if err != nil {
			return nil, nil, err
		}
		ir.Generated = len(cands) - len(live)
		ir.Candidates = len(cands)
		sc.end(len(cands), o.ScanRows)
		ir.GenerateTime -= criterionTime
		ir.IVTime += criterionTime

		// (4)-(5) Filter uninformative features (Algorithm 3).
		sc.begin(StageIVFilter, len(cands))
		ivs, err := ws.Criteria(cands)
		if err != nil {
			return nil, nil, err
		}
		keptA := ivFilter(ivs, cfg.IVThreshold, cfg.MinKeepIV)
		ir.AfterIV = len(keptA)
		sc.end(len(keptA), 0)

		// (6) Remove redundant features (Algorithm 4).
		sc.begin(StagePearson, len(keptA))
		correlated, err := ws.Correlated(cands, keptA)
		if err != nil {
			return nil, nil, err
		}
		keptB, err := greedyDedup(ctx, ivs, keptA, correlated)
		if err != nil {
			return nil, nil, err
		}
		ir.AfterPearson = len(keptB)
		sc.end(len(keptB), o.ScanRows)

		// (7) Rank by XGBoost gain, keep top budget (line 10). Features the
		// model never splits on rank last, tie broken by IV then index.
		sc.begin(StageRank, len(keptB))
		ranker, _, err := train(ctx, ws, candidateColumns(cands, keptB), labels, nil, cfg.Ranker, "core: ranker")
		if err != nil {
			return nil, nil, err
		}
		ranked := orderByGain(ranker.GainImportance(), ivs, keptB)
		if len(ranked) > budget {
			ranked = ranked[:budget]
		}
		ir.Selected = len(ranked)
		sc.end(len(ranked), o.ScanRows)

		// Record every generated node (pruning trims the unused ones), once
		// per formula: one dropped in a round is enumerated again in the
		// next, from the same inputs. Carry the selection to the next round.
		for _, c := range cands[len(live):] {
			if !recorded[c.Node.Name] {
				recorded[c.Node.Name] = true
				nodes = append(nodes, *c.Node)
			}
		}
		live = candidateColumns(cands, ranked)
		liveNames = featureNames(live)
		if err := ws.Carry(cands, ranked, nodes); err != nil {
			return nil, nil, err
		}

		// Validation tracking and early stopping: without a validation set
		// the last selection is the best one.
		if validate == nil {
			best = liveNames
		} else {
			evaluator, _, err := train(ctx, ws, live, labels, nil, cfg.Ranker, "core: validation evaluator") // on the selection's ranker codes
			if err != nil {
				return nil, nil, err
			}
			ir.ValidAUC = validate(evaluator)
			if ir.ValidAUC > bestScore+cfg.MinDelta {
				bestScore = ir.ValidAUC
				best = liveNames
				patienceLeft = cfg.Patience
			} else if cfg.Patience > 0 {
				patienceLeft--
			}
		}

		ir.Elapsed = time.Since(iterStart)
		report.Iterations = append(report.Iterations, ir)
		cfg.Emit(FitEvent{
			Kind: EventIterationEnd, Round: ir.Round, Candidates: ir.Candidates,
			Survivors: ir.Selected, Rows: *rows, Elapsed: ir.Elapsed,
		})

		if validate != nil && cfg.Patience > 0 && patienceLeft <= 0 {
			break
		}
	}

	// Assemble Ψ from the final (or best-validated) selection and the nodes it
	// needs (Algorithm 1 line 14).
	p := &Pipeline{
		OriginalNames: append([]string(nil), names...),
		Nodes:         ReachableNodes(nodes, best),
		Output:        best,
		Task:          cfg.Task,
	}
	if _, err := p.program(); err != nil {
		return nil, nil, err
	}
	report.Total = time.Since(start)
	cfg.Emit(FitEvent{
		Kind: EventFitEnd, Survivors: len(p.Output),
		Rows: *rows, Elapsed: report.Total,
	})
	return p, report, nil
}

// wrapUnlessCancelled wraps an engine error with a "<prefix>: " unless the
// context was cancelled, in which case the bare ctx.Err() is returned:
// callers and tests match cancelled fits with errors.Is against
// context.Canceled/DeadlineExceeded, and the cancellation must not be
// buried under stage-specific wrapping.
func wrapUnlessCancelled(ctx context.Context, err error, prefix string) error {
	if ctx.Err() != nil {
		return ctx.Err()
	}
	return fmt.Errorf("%s: %w", prefix, err)
}

func featureNames(cols []Column) []string {
	names := make([]string, len(cols))
	for i, c := range cols {
		names[i] = c.Record().Name
	}
	return names
}

func candidateColumns(cands []*Candidate, idx []int) []Column {
	cols := make([]Column, len(idx))
	for i, j := range idx {
		cols[i] = cands[j].Column
	}
	return cols
}

// train is gbdt.Train over the features' columns, cancellable through ctx, by
// way of the codes they carry; it returns those too. what names the booster
// in an error.
func train(ctx context.Context, ws WorkingSet, cols []Column, labels []float64, names []string, cfg gbdt.Config, what string) (*gbdt.Model, *gbdt.Prebinned, error) {
	pb, err := binned(ws, cols, cfg)
	if err != nil {
		return nil, nil, wrapUnlessCancelled(ctx, err, what)
	}
	model, err := gbdt.TrainBinnedCtx(ctx, pb, labels, names, cfg)
	if err != nil {
		return nil, nil, wrapUnlessCancelled(ctx, err, what)
	}
	return model, pb, nil
}

// binned returns the features' bin-code matrix at cfg.MaxBins — what
// gbdt.Train would quantise their columns to — having the working set bin
// only those that do not carry codes at that bin count yet.
func binned(ws WorkingSet, cols []Column, cfg gbdt.Config) (*gbdt.Prebinned, error) {
	var fresh []Column
	for _, c := range cols {
		if !c.Record().BinnedAt(cfg.MaxBins) {
			fresh = append(fresh, c)
		}
	}
	if len(fresh) > 0 {
		if err := ws.Bin(fresh, cfg); err != nil {
			return nil, err
		}
	}
	pb := &gbdt.Prebinned{Codes: make([][]uint8, len(cols)), Cuts: make([][]float64, len(cols))}
	for i, c := range cols {
		f := c.Record()
		pb.Codes[i], pb.Cuts[i] = f.Codes, f.Cuts
	}
	return pb, nil
}

// enumerate lists the round's candidates: every live feature, then every
// application of the operator set to the kept combinations (Section IV-B3),
// de-duplicated by formula. Non-commutative binary operators are applied in
// both argument orders (the paper counts such orders as distinct operators).
func enumerate(ctx context.Context, ws WorkingSet, live []Column, names []string, labels []float64, combos []Combo, ops []operators.Operator) ([]*Candidate, error) {
	e := newEnumerator(ctx, ws, live, names, labels)
	for _, c := range combos {
		for _, op := range ops {
			if int(op.Arity()) != len(c.Features) {
				continue
			}
			if err := e.add(op, c.Features); err != nil {
				return nil, err
			}
			if op.Arity() == operators.Binary && !operators.Commutative(op.Name()) {
				if err := e.add(op, []int{c.Features[1], c.Features[0]}); err != nil {
					return nil, err
				}
			}
		}
	}
	return e.cands, nil
}

// enumerator is one round's candidate list under construction.
type enumerator struct {
	ctx      context.Context
	ws       WorkingSet
	names    []string // of the live features
	labels   []float64
	existing map[string]bool
	cands    []*Candidate
}

func newEnumerator(ctx context.Context, ws WorkingSet, live []Column, names []string, labels []float64) *enumerator {
	e := &enumerator{
		ctx: ctx, ws: ws, names: names, labels: labels,
		existing: make(map[string]bool, 2*len(live)),
		cands:    make([]*Candidate, 0, 2*len(live)),
	}
	for i, c := range live {
		e.existing[e.names[i]] = true
		e.cands = append(e.cands, &Candidate{Column: c})
	}
	return e
}

// add fits op to the live features at feats and lists the application unless
// its formula is already a candidate. The context is checked per candidate,
// making generation the most finely cancellable stage of a fit.
func (e *enumerator) add(op operators.Operator, feats []int) error {
	if err := e.ctx.Err(); err != nil {
		return err
	}
	in := e.ws.Inputs(feats)
	names := make([]string, len(feats))
	for i, f := range feats {
		names[i] = e.names[f]
	}
	if d, ok := op.(*operators.DiscretizeOp); ok {
		d.SetLabels(e.labels)
	}
	applier, err := op.Fit(in)
	if err != nil {
		return fmt.Errorf("core: generate %s: %w", op.Name(), err)
	}
	name := applier.Formula(names)
	if e.existing[name] {
		return nil
	}
	e.existing[name] = true
	e.cands = append(e.cands, &Candidate{
		Node:  &FeatureNode{Name: name, Inputs: names, Applier: applier},
		Feats: append([]int(nil), feats...),
		In:    in,
	})
	return nil
}

// ivFilter implements Algorithm 3: drop features whose IV is at or below the
// threshold alpha. To keep the pipeline robust on datasets where every
// feature is weak (possible with synthetic noise-heavy data), it falls back
// to the minKeep highest-IV features when fewer survive.
func ivFilter(ivs []float64, alpha float64, minKeep int) []int {
	kept := make([]int, 0, len(ivs))
	for j, iv := range ivs {
		if iv > alpha {
			kept = append(kept, j)
		}
	}
	if minKeep > len(ivs) {
		minKeep = len(ivs)
	}
	if len(kept) >= minKeep {
		return kept
	}
	// Fallback: top-minKeep by IV.
	idx := make([]int, len(ivs))
	for j := range idx {
		idx[j] = j
	}
	sortByIVDesc(idx, ivs)
	out := append([]int(nil), idx[:minKeep]...)
	sort.Ints(out)
	return out
}

// sortByIVDesc orders candidate indices by IV descending, ties by index
// ascending.
func sortByIVDesc(idx []int, ivs []float64) {
	sort.Slice(idx, func(a, b int) bool {
		if ivs[idx[a]] != ivs[idx[b]] {
			return ivs[idx[a]] > ivs[idx[b]]
		}
		return idx[a] < idx[b]
	})
}

// greedyDedup implements the intent of Algorithm 4: among features whose
// absolute Pearson correlation exceeds theta, keep the one with the higher
// IV. (The paper's pseudo-code as printed only *adds* the winner of each
// correlated pair and never admits uncorrelated features; the standard — and
// clearly intended — semantics implemented here is a greedy scan in
// descending-IV order that keeps a feature unless it correlates above theta
// with an already-kept feature.) The context is checked per candidate; the
// survivors come back in candidate order.
func greedyDedup(ctx context.Context, ivs []float64, candidates []int, correlated func(j int, among []int) bool) ([]int, error) {
	order := append([]int(nil), candidates...)
	sortByIVDesc(order, ivs)
	kept := make([]int, 0, len(order))
	for _, j := range order {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if !correlated(j, kept) {
			kept = append(kept, j)
		}
	}
	sort.Ints(kept)
	return kept, nil
}

// orderByGain orders candidate indices by ranker gain importance
// (Section IV-C3): gain[i] belongs to candidates[i]; ties break by IV then
// candidate index.
func orderByGain(gain []float64, ivs []float64, candidates []int) []int {
	order := make([]int, len(candidates))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		ga, gb := gain[order[a]], gain[order[b]]
		if ga != gb {
			return ga > gb
		}
		iva, ivb := ivs[candidates[order[a]]], ivs[candidates[order[b]]]
		if iva != ivb {
			return iva > ivb
		}
		return candidates[order[a]] < candidates[order[b]]
	})
	out := make([]int, len(order))
	for i, o := range order {
		out[i] = candidates[o]
	}
	return out
}

func distinctArities(ops []operators.Operator) []int {
	seen := make(map[int]bool)
	var out []int
	for _, op := range ops {
		a := int(op.Arity())
		if !seen[a] {
			seen[a] = true
			out = append(out, a)
		}
	}
	return out
}

// exhaustiveBinaryCount is |S| of Eq. 3 restricted to binary operators with
// 4 operators (the experimental set): the size of the search space an
// exhaustive generate-then-select method would face this round. Used by the
// search-space experiment.
func exhaustiveBinaryCount(m int, ops []operators.Operator) int {
	nBinary := 0
	for _, op := range ops {
		if op.Arity() == operators.Binary {
			nBinary++
			if !operators.Commutative(op.Name()) {
				nBinary++
			}
		}
	}
	return m * (m - 1) / 2 * nBinary
}
