package core

import (
	"context"

	"repro/internal/gbdt"
	"repro/internal/parallel"
	"repro/internal/stats"
)

// PairSource chooses a round's combinations: stages (1)-(2) of Algorithm 1,
// the only stages in which the methods of Section V-A1 differ. What follows
// the pairs — enumeration, the IV filter, the redundancy scan, the ranking and
// the budget — is the loop's, for every source and every engine. A nil
// Config.Pairs is SAFE's source: the combinations mined from the miner's
// paths, kept by gain ratio (Algorithm 2). A source must not keep state
// between calls: two fits may share one.
type PairSource func(r *PairRound) ([]Combo, error)

// PairRound is what a PairSource is given for one round.
type PairRound struct {
	Round int // 0-based
	Live  int // the live features a Combo's Features index
	Gamma int // γ: how many combinations the round keeps

	ctx     context.Context
	cfg     *Config
	pool    *parallel.Pool
	ws      WorkingSet
	live    []Column
	names   []string
	labels  []float64
	code    *stats.TargetCode
	arities []int
	sc      *stageClock
	ir      *IterationReport

	scanRows int64 // Opened.ScanRows
	scanned  int64 // what the open stage credits to the rows counter
	model    *gbdt.Model
	bins     *gbdt.Prebinned
}

// miner trains the round's combination-mining booster on the live features
// the first time it is asked for, and returns it with the codes it read.
func (r *PairRound) miner() (*gbdt.Model, *gbdt.Prebinned, error) {
	if r.model == nil {
		model, bins, err := train(r.ctx, r.ws, r.live, r.labels, r.names, r.cfg.Miner, "core: miner")
		if err != nil {
			return nil, nil, err
		}
		r.model, r.bins, r.scanned = model, bins, r.scanRows
	}
	return r.model, r.bins, nil
}

// SplitFeatures returns the live features the round's miner splits on,
// ascending. The miner is the booster SAFE mines its paths from; it trains on
// the first call, and a round whose source never calls this trains none.
func (r *PairRound) SplitFeatures() ([]int, error) {
	model, _, err := r.miner()
	if err != nil {
		return nil, err
	}
	return model.SplitFeatures(), nil
}

// minedPairs is SAFE's source: mine combination relations from the miner's
// paths (Algorithm 1 lines 3-4), then score them by gain ratio and keep the
// top γ (Algorithm 2). A combination's cells are a function of the miner's
// bin codes, which are resident in every engine: no raw value is read.
func minedPairs(r *PairRound) ([]Combo, error) {
	model, minerBins, err := r.miner()
	if err != nil {
		return nil, err
	}
	combos := mineCombos(model, r.arities)
	r.scoring(len(combos))
	if err := ScoreCombos(r.ctx, combos, minerBins, r.code, r.pool); err != nil {
		return nil, err
	}
	return topCombos(combos, r.Gamma), nil
}

// scoring closes the mine stage on the mined count and opens the score
// stage. A source that scores nothing never calls it, and the loop closes
// the mine stage on its pairs instead, with an empty score stage after it.
func (r *PairRound) scoring(mined int) {
	r.ir.CombosMined = mined
	r.sc.end(mined, r.scanned)
	r.sc.begin(StageScore, mined)
}
