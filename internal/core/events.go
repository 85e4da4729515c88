package core

import "time"

// This file defines the structured progress-event stream a fit emits. Every
// event comes from the one round loop (rounds.go), so a consumer (CLI
// progress output, an embedder's metrics hook) observes one protocol
// whichever engine the plan selected. The same instrumentation populates the
// per-stage wall-clock fields of IterationReport.

// EventKind discriminates FitEvent payloads.
type EventKind int

const (
	// EventFitStart opens a fit (Round 0).
	EventFitStart EventKind = iota
	// EventIterationStart opens one SAFE iteration (Round is 1-based).
	EventIterationStart
	// EventStageStart opens one stage of an iteration; Candidates carries
	// the stage's input size where meaningful.
	EventStageStart
	// EventStageEnd closes a stage: Candidates/Survivors carry the stage's
	// input and output sizes, Elapsed its wall time.
	EventStageEnd
	// EventIterationEnd closes an iteration; Survivors is the round's
	// selected feature count, Elapsed the iteration wall time.
	EventIterationEnd
	// EventFitEnd closes the fit; Survivors is the final selected feature
	// count, Elapsed the total wall time.
	EventFitEnd
)

// String returns the kind's wire/display name.
func (k EventKind) String() string {
	switch k {
	case EventFitStart:
		return "fit-start"
	case EventIterationStart:
		return "iteration-start"
	case EventStageStart:
		return "stage-start"
	case EventStageEnd:
		return "stage-end"
	case EventIterationEnd:
		return "iteration-end"
	case EventFitEnd:
		return "fit-end"
	}
	return "unknown"
}

// Stage identifies one stage of a SAFE iteration, in execution order.
type Stage int

const (
	// StageMine trains the combination-mining XGBoost (Algorithm 1 line 3).
	StageMine Stage = iota
	// StageScore gain-ratio-scores and top-γ-filters the mined
	// combinations (Algorithm 2).
	StageScore
	// StageGenerate applies the operator set to the kept combinations,
	// streaming candidates through the IV scorer (Algorithm 1 lines 6-7).
	StageGenerate
	// StageIVFilter resolves the Information-Value survivor set
	// (Algorithm 3).
	StageIVFilter
	// StagePearson removes redundant candidates (Algorithm 4).
	StagePearson
	// StageRank trains the ranking XGBoost and applies the output budget
	// (Algorithm 1 line 10).
	StageRank
)

// String returns the stage's wire/display name.
func (s Stage) String() string {
	switch s {
	case StageMine:
		return "mine"
	case StageScore:
		return "score"
	case StageGenerate:
		return "generate"
	case StageIVFilter:
		return "iv-filter"
	case StagePearson:
		return "pearson"
	case StageRank:
		return "rank"
	}
	return "unknown"
}

// FitEvent is one element of a fit's progress stream: iteration and stage
// boundaries with candidate/survivor counts, rows processed, and wall
// times. Events are delivered synchronously from the fitting goroutine in
// strictly increasing order of occurrence; a consumer that needs to do
// slow work must hand the event off and return quickly, and must not call
// back into the fit.
type FitEvent struct {
	Kind  EventKind
	Round int   // 1-based iteration; 0 for fit-scoped events
	Stage Stage // meaningful for stage events only

	// Candidates is the stage's input feature/combination count,
	// Survivors its output count (Survivors on End kinds only).
	Candidates int
	Survivors  int

	// Rows is the cumulative number of rows processed when the event
	// fired: rows scanned by full-data stages for the in-memory engine,
	// rows streamed from the source for the sharded engine.
	Rows int64

	// Elapsed is the wall time of the span an End kind closes.
	Elapsed time.Duration
}

// EventFunc consumes fit progress events; see FitEvent for the delivery
// contract.
type EventFunc func(FitEvent)

// Emit delivers an event to the configured consumer, if any.
func (c *Config) Emit(ev FitEvent) {
	if c.Events != nil {
		c.Events(ev)
	}
}

// stageClock instruments one iteration's stages: it emits the paired
// start/end events and accumulates per-stage wall times into the
// IterationReport — one instrument feeding both the event stream and the
// report, so they cannot disagree.
type stageClock struct {
	cfg   *Config
	ir    *IterationReport
	rows  *int64 // the fit's cumulative rows-processed counter (Opened.Rows)
	stage Stage
	in    int
	start time.Time
}

func newStageClock(cfg *Config, ir *IterationReport, rows *int64) *stageClock {
	return &stageClock{cfg: cfg, ir: ir, rows: rows}
}

// begin opens a stage with the given input size.
func (sc *stageClock) begin(stage Stage, candidates int) {
	sc.stage, sc.in = stage, candidates
	sc.start = time.Now()
	sc.cfg.Emit(FitEvent{
		Kind: EventStageStart, Round: sc.ir.Round, Stage: stage,
		Candidates: candidates, Rows: *sc.rows,
	})
}

// end closes the open stage with its output size, credits the rows it
// scanned to the running total, and records its wall time in the
// IterationReport.
func (sc *stageClock) end(survivors int, scanned int64) {
	*sc.rows += scanned
	elapsed := time.Since(sc.start)
	switch sc.stage {
	case StageMine:
		sc.ir.MineTime += elapsed
	case StageScore:
		sc.ir.ScoreTime += elapsed
	case StageGenerate:
		sc.ir.GenerateTime += elapsed
	case StageIVFilter:
		sc.ir.IVTime += elapsed
	case StagePearson:
		sc.ir.PearsonTime += elapsed
	case StageRank:
		sc.ir.RankTime += elapsed
	}
	sc.cfg.Emit(FitEvent{
		Kind: EventStageEnd, Round: sc.ir.Round, Stage: sc.stage,
		Candidates: sc.in, Survivors: survivors, Rows: *sc.rows, Elapsed: elapsed,
	})
}
