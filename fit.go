package safe

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/colstore"
	"repro/internal/core"
	"repro/internal/frame"
	"repro/internal/shard"
)

// This file is the composable fit entrypoint: one Fit(ctx, source, opts...)
// call built from a Source (in-memory frame, chunked source, or CSV file)
// and functional options, validated into an immutable Plan that picks the
// engine — the in-memory loop or the sharded out-of-core coordinator —
// from the source and options. Both engines select identical features for
// identical effective configurations, honour context cancellation, and
// emit the same FitEvent progress stream.

// FitEvent is one element of a fit's progress stream; see WithEvents.
type FitEvent = core.FitEvent

// EventKind discriminates FitEvent payloads.
type EventKind = core.EventKind

// FitEvent kinds, in emission order within their spans.
const (
	EventFitStart       = core.EventFitStart
	EventIterationStart = core.EventIterationStart
	EventStageStart     = core.EventStageStart
	EventStageEnd       = core.EventStageEnd
	EventIterationEnd   = core.EventIterationEnd
	EventFitEnd         = core.EventFitEnd
)

// FitStage identifies one stage of a SAFE iteration.
type FitStage = core.Stage

// Fit stages, in execution order within an iteration.
const (
	StageMine     = core.StageMine
	StageScore    = core.StageScore
	StageGenerate = core.StageGenerate
	StageIVFilter = core.StageIVFilter
	StagePearson  = core.StagePearson
	StageRank     = core.StageRank
)

// Source is a training data source accepted by Fit: an in-memory Frame
// (FromFrame), a chunked out-of-core source (FromChunks), or a CSV file
// (FromCSVFile). The source, together with the options, determines which
// fit engine runs: chunked sources always fit sharded; frames and CSV
// files fit in memory unless WithSharding asks for the out-of-core engine.
type Source interface {
	// open resolves the source against the validated plan. Exactly one of
	// the returned frame/chunks is non-nil.
	open(p *Plan) (*openedSource, error)
}

// openedSource is a resolved Source: either an in-memory frame or a
// chunk source, plus a close hook for sources that own a file handle.
type openedSource struct {
	frame  *Frame
	chunks ChunkSource
	close  func() error
}

type frameSource struct{ f *Frame }

// FromFrame wraps an in-memory labelled frame as a Source. With
// WithSharding(chunkRows) the frame is fitted by the out-of-core engine
// over chunkRows-row partitions (chunkRows <= 0 splits into 4).
func FromFrame(f *Frame) Source { return frameSource{f: f} }

func (s frameSource) open(p *Plan) (*openedSource, error) {
	if s.f == nil {
		return nil, errors.New("safe: FromFrame: nil frame")
	}
	if !p.sharded {
		return &openedSource{frame: s.f}, nil
	}
	chunkRows := p.chunkRows
	if chunkRows <= 0 {
		chunkRows = (s.f.NumRows() + 3) / 4
	}
	return &openedSource{chunks: frame.NewFrameChunks(s.f, chunkRows)}, nil
}

type chunkSource struct{ src ChunkSource }

// FromChunks wraps a chunked source (e.g. OpenCSVChunks, NewFrameChunks, or
// any ChunkSource implementation) as a Source. Chunked sources always fit
// through the sharded out-of-core engine; the caller keeps ownership of the
// source and closes it after the fit if it needs closing.
func FromChunks(src ChunkSource) Source { return chunkSource{src: src} }

func (s chunkSource) open(*Plan) (*openedSource, error) {
	if s.src == nil {
		return nil, errors.New("safe: FromChunks: nil chunk source")
	}
	return &openedSource{chunks: s.src}, nil
}

type csvSource struct{ path, label string }

// FromCSVFile names a labelled CSV file as a Source. By default the file
// is read into memory and fitted by the in-memory engine; with
// WithSharding(chunkRows) it streams through the out-of-core engine in
// chunkRows-row partitions (chunkRows <= 0 picks the reader default), so
// files far larger than memory fit. The sharded fit parses the text once:
// its first pass also writes the decoded columns to a scratch file in
// os.TempDir() (8 bytes per value, removed when the fit ends) and every
// later pass reads that file's mapping; if the scratch file cannot be
// written the fit re-parses on every pass instead. labelCol may be "" for
// an unlabelled file (which a fit will then reject — useful only with
// transforms).
func FromCSVFile(path, labelCol string) Source { return csvSource{path: path, label: labelCol} }

func (s csvSource) open(p *Plan) (*openedSource, error) {
	if !p.sharded {
		f, err := ReadCSVFile(s.path, s.label)
		if err != nil {
			return nil, err
		}
		return &openedSource{frame: f}, nil
	}
	// A CSV named by path is parsed once: the first pass tees into a temp
	// column file and the rest read its mapping. A caller's own ChunkSource
	// (FromChunks) is read on every pass, because it may be a decorator that
	// has to see every read.
	cs, err := colstore.OpenCSV(s.path, s.label, p.chunkRows)
	if err != nil {
		return nil, err
	}
	return &openedSource{chunks: cs, close: cs.Close}, nil
}

type colFileSource struct{ path string }

// FromColumnFile names a colstore binary columnar file (written by
// safe-convert, safe-datagen -format colstore, or a colstore writer) as a
// Source. Column files always fit through the sharded out-of-core engine,
// with the file's own row groups as the stream's partitions (WithSharding's
// chunkRows does not apply). Float columns decode bit-exactly — zero-copy
// via mmap where the platform supports it — and string columns stream as
// their dictionary codes (nulls as NaN).
func FromColumnFile(path string) Source { return colFileSource{path: path} }

func (s colFileSource) open(*Plan) (*openedSource, error) {
	src, err := colstore.OpenSource(s.path)
	if err != nil {
		return nil, err
	}
	return &openedSource{chunks: src, close: src.Close}, nil
}

// planOpts is the mutable state the functional options act on; NewPlan
// freezes it into a Plan.
type planOpts struct {
	cfg       Config
	sharded   bool
	chunkRows int
	retry     *RetryPolicy
	earlyStop bool // Patience set via WithEarlyStopping, not WithConfig
	valid     *Frame
	distAddrs []string
}

// Option configures a fit plan; see the With* constructors. Options are
// applied in the order given, later options overriding earlier ones.
type Option func(*planOpts) error

// WithConfig replaces the plan's entire base configuration (the default is
// DefaultConfig()). Options after it still apply on top — it is the escape
// hatch for settings without a dedicated option.
func WithConfig(cfg Config) Option {
	return func(o *planOpts) error {
		if cfg.Events == nil {
			cfg.Events = o.cfg.Events // an earlier WithEvents survives
		}
		o.cfg = cfg
		return nil
	}
}

// WithTask selects the prediction task: BinaryTask (the default),
// MulticlassTask(k), or RegressionTask.
func WithTask(task Task) Option {
	return func(o *planOpts) error {
		o.cfg.Task = task
		return nil
	}
}

// WithOperators names the generation operators (keys of the registry).
// The default is the paper's experimental set {add, sub, mul, div}.
func WithOperators(names ...string) Option {
	return func(o *planOpts) error {
		if len(names) == 0 {
			return errors.New("safe: WithOperators requires at least one operator name")
		}
		o.cfg.Operators = append([]string(nil), names...)
		return nil
	}
}

// WithRegistry resolves operator names through a custom registry (for
// domain operators registered beyond the built-in catalogue).
func WithRegistry(reg *Registry) Option {
	return func(o *planOpts) error {
		o.cfg.Registry = reg
		return nil
	}
}

// WithIterations sets nIter of Algorithm 1 (default 1).
func WithIterations(n int) Option {
	return func(o *planOpts) error {
		if n <= 0 {
			return fmt.Errorf("safe: WithIterations requires n > 0, got %d", n)
		}
		o.cfg.Iterations = n
		return nil
	}
}

// WithTimeBudget sets tIter: the fit stops starting new iterations once d
// has elapsed. For hard wall-clock abort semantics use a deadline on the
// context instead.
func WithTimeBudget(d time.Duration) Option {
	return func(o *planOpts) error {
		o.cfg.TimeBudget = d
		return nil
	}
}

// WithBudget caps the selected feature count per iteration (the paper's
// output budget; 0 restores the default of 2 × original features).
func WithBudget(maxFeatures int) Option {
	return func(o *planOpts) error {
		o.cfg.MaxFeatures = maxFeatures
		return nil
	}
}

// WithGamma sets γ of Algorithm 2, the number of top combinations kept for
// generation (0 restores the default of 2 × original features).
func WithGamma(gamma int) Option {
	return func(o *planOpts) error {
		o.cfg.Gamma = gamma
		return nil
	}
}

// WithSelection sets the selection thresholds: ivThreshold is α of
// Algorithm 3 (features at or below it are dropped), pearsonThreshold is θ
// of Algorithm 4 (candidates correlating above it with a kept feature are
// redundant).
func WithSelection(ivThreshold, pearsonThreshold float64) Option {
	return func(o *planOpts) error {
		o.cfg.IVThreshold = ivThreshold
		o.cfg.PearsonThreshold = pearsonThreshold
		return nil
	}
}

// WithSeed sets core.Config.Seed, which does not affect a SAFE fit: no
// stage draws a random number, so a fit is a function of its data and
// configuration (for any worker count and any engine), whatever the seed.
func WithSeed(seed int64) Option {
	return func(o *planOpts) error {
		o.cfg.Seed = seed
		return nil
	}
}

// WithWorkers bounds the shared worker pool: n <= 0 selects GOMAXPROCS,
// n == 1 runs serial. Fit results are identical for any worker count.
func WithWorkers(n int) Option {
	return func(o *planOpts) error {
		o.cfg.Workers = n
		return nil
	}
}

// WithEvents registers a consumer for the fit's structured progress stream:
// iteration and stage start/end events with candidate and survivor counts,
// rows processed, and wall times — the observability hook for multi-minute
// fits. fn runs synchronously on the fitting goroutine and must return
// quickly; see FitEvent.
func WithEvents(fn func(FitEvent)) Option {
	return func(o *planOpts) error {
		o.cfg.Events = fn
		return nil
	}
}

// WithSharding selects the sharded out-of-core engine for frame and CSV
// sources, streaming the data in chunkRows-row partitions (chunkRows <= 0
// picks a source-appropriate default). For chunked and column-file sources
// the option changes nothing: they fit sharded anyway, in the source's own
// partitions.
func WithSharding(chunkRows int) Option {
	return func(o *planOpts) error {
		o.sharded = true
		o.chunkRows = chunkRows
		return nil
	}
}

// WithRetry makes the sharded engine retry transient chunk-read errors
// (frame sources that implement the Transienter contract — flaky disks,
// brief stalls) with capped exponential backoff instead of aborting; see
// RetryPolicy and DefaultRetryPolicy. Retried reads re-run before the
// chunk is folded, so a recovered fit selects features bit-identical to a
// fault-free run; permanent errors still abort fast with a typed
// PassError chain, and Result.Shard.Retries counts what was absorbed.
// Only valid for plans that fit sharded.
func WithRetry(p RetryPolicy) Option {
	return func(o *planOpts) error {
		if p.MaxAttempts < 1 {
			return fmt.Errorf("safe: WithRetry requires MaxAttempts >= 1, got %d", p.MaxAttempts)
		}
		if p.BaseDelay < 0 || p.MaxDelay < 0 {
			return errors.New("safe: WithRetry requires non-negative delays")
		}
		o.retry = &p
		return nil
	}
}

// WithValidation supplies a validation frame: each round's selection is
// scored on it (Report.Iterations[i].ValidAUC) and, combined with
// WithEarlyStopping, iteration halts once the score stops improving. Only
// the in-memory engine supports validation-tracked fits.
func WithValidation(valid *Frame) Option {
	return func(o *planOpts) error {
		if valid == nil {
			return errors.New("safe: WithValidation requires a non-nil frame")
		}
		o.valid = valid
		return nil
	}
}

// WithEarlyStopping stops iterating after patience consecutive rounds
// without at least minDelta validation-score improvement, keeping the best
// round's selection. Requires WithValidation.
func WithEarlyStopping(patience int, minDelta float64) Option {
	return func(o *planOpts) error {
		if patience <= 0 {
			return fmt.Errorf("safe: WithEarlyStopping requires patience > 0, got %d", patience)
		}
		o.cfg.Patience = patience
		o.cfg.MinDelta = minDelta
		o.earlyStop = true
		return nil
	}
}

// Plan is a validated, immutable fit session: the effective configuration,
// the selected engine, and the source binding. Build one with NewPlan (or
// implicitly through Fit), inspect it, then run it any number of times
// with Plan.Fit — every run starts from the same frozen settings.
type Plan struct {
	src       Source
	cfg       Config // normalised effective configuration
	sharded   bool
	chunkRows int
	shardCfg  shard.Config
	valid     *Frame
	distAddrs []string
}

// NewPlan validates a source and options into an immutable Plan without
// running anything: option errors, configuration errors, and source/option
// conflicts surface here.
func NewPlan(source Source, opts ...Option) (*Plan, error) {
	if source == nil {
		return nil, errors.New("safe: nil source")
	}
	o := planOpts{cfg: DefaultConfig()}
	for _, opt := range opts {
		if opt == nil {
			return nil, errors.New("safe: nil option")
		}
		if err := opt(&o); err != nil {
			return nil, err
		}
	}
	switch source.(type) {
	case chunkSource, colFileSource:
		o.sharded = true
	}
	if o.retry != nil && !o.sharded {
		return nil, errors.New("safe: WithRetry tunes the sharded engine; combine it with WithSharding or a chunked source")
	}
	if o.valid != nil && o.sharded {
		return nil, fmt.Errorf("safe: validation-tracked fits require the in-memory engine, and %s selects the sharded one", shardedBy(source, o))
	}
	if len(o.distAddrs) > 0 {
		switch source.(type) {
		case csvSource, colFileSource:
		default:
			return nil, errors.New("safe: WithDistributed requires a file-backed source (FromCSVFile or FromColumnFile) that workers can open by path")
		}
	}
	// Patience only acts when a validation frame is present (the engines
	// have always ignored it otherwise), so the pairing is enforced only
	// when the caller asked for early stopping explicitly — a Config with a
	// stray Patience ports through WithConfig exactly as it always fit.
	if o.earlyStop && o.valid == nil {
		return nil, errors.New("safe: WithEarlyStopping requires WithValidation")
	}
	cfg, err := core.NormalizeConfig(o.cfg)
	if err != nil {
		return nil, err
	}
	p := &Plan{
		src:       source,
		cfg:       cfg,
		sharded:   o.sharded,
		chunkRows: o.chunkRows,
		valid:     o.valid,
		distAddrs: o.distAddrs,
	}
	if o.sharded {
		p.shardCfg = shard.Config{Core: cfg}
		if o.retry != nil {
			p.shardCfg.Retry = *o.retry
		}
	}
	return p, nil
}

// shardedBy names what put a plan on the sharded engine: its source, when
// that can only be streamed, or else the option that asked for it.
func shardedBy(source Source, o planOpts) string {
	switch source.(type) {
	case chunkSource:
		return "FromChunks"
	case colFileSource:
		return "FromColumnFile"
	}
	if len(o.distAddrs) > 0 {
		return "WithDistributed"
	}
	return "WithSharding"
}

// Config returns a copy of the plan's effective (normalised) configuration.
func (p *Plan) Config() Config { return p.cfg }

// Sharded reports whether the plan runs the out-of-core engine.
func (p *Plan) Sharded() bool { return p.sharded }

// Engine names the engine the plan selected: "in-memory", "sharded", or
// "distributed".
func (p *Plan) Engine() string {
	if len(p.distAddrs) > 0 {
		return "distributed"
	}
	if p.sharded {
		return "sharded"
	}
	return "in-memory"
}

// Distributed reports whether the plan delegates pass compute to a worker
// fleet; see WithDistributed.
func (p *Plan) Distributed() bool { return len(p.distAddrs) > 0 }

// Result is the outcome of a fit: the learned pipeline Ψ, the per-iteration
// report, and — for sharded fits — how the engine consumed its source.
type Result struct {
	// Pipeline is the learned feature generation function Ψ.
	Pipeline *Pipeline
	// Report summarises the fit per iteration, including per-stage
	// wall-clock timings.
	Report *Report
	// Shard reports how the sharded engine consumed its source (rows,
	// partitions, passes, rows streamed, retries); nil for in-memory fits.
	Shard *ShardStats
}

// Fit runs the plan: the source is opened (and closed again, when the plan
// opened it), the engine the plan selected learns Ψ, and a cancelled or
// expired ctx aborts the run promptly with ctx.Err() at the next stage,
// candidate, boosting round, or source chunk — whichever comes first — with
// no leaked goroutines.
func (p *Plan) Fit(ctx context.Context) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if len(p.distAddrs) > 0 {
		return p.fitDistributed(ctx)
	}
	src, err := p.src.open(p)
	if err != nil {
		return nil, err
	}
	if src.close != nil {
		defer src.close() //nolint:errcheck // read-only source teardown
	}

	if p.sharded {
		pipeline, report, stats, err := shard.Fit(ctx, src.chunks, p.shardCfg)
		if err != nil {
			return nil, err
		}
		return &Result{Pipeline: pipeline, Report: report, Shard: stats}, nil
	}

	pipeline, report, err := core.Fit(ctx, src.frame, p.valid, p.cfg)
	if err != nil {
		return nil, err
	}
	return &Result{Pipeline: pipeline, Report: report}, nil
}

// Fit learns the SAFE feature generation function Ψ from a training source
// in one call: the options validate into a Plan (see NewPlan) and the plan
// runs under ctx. The engine is picked from the source and options —
// in-memory for frames and CSV files, sharded out-of-core for chunked
// sources or when WithSharding asks for it — and both engines select
// identical features for identical effective configurations.
//
//	res, err := safe.Fit(ctx, safe.FromFrame(train),
//	    safe.WithTask(safe.RegressionTask()),
//	    safe.WithIterations(2),
//	    safe.WithEvents(progress))
//	engineered, err := res.Pipeline.Transform(test)
func Fit(ctx context.Context, source Source, opts ...Option) (*Result, error) {
	plan, err := NewPlan(source, opts...)
	if err != nil {
		return nil, err
	}
	return plan.Fit(ctx)
}
