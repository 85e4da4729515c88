package shard

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/frame"
	"repro/internal/operators"
	"repro/internal/parallel"
	"repro/internal/sketch"
	"repro/internal/stats"
	"repro/internal/wire"
)

// This file is the compute half of the one pass formulation:
//
//	PassSpec → WorkerState.ComputePartial(ctx, spec, chunk) → fold(*Partial)
//
// The fit loop (shard.go, passes.go) reifies every streaming pass into a
// PassSpec and hands it to an Executor; the executor pushes each chunk of
// the source through ComputePartial — the only kernel a pass kind has — and
// delivers the resulting Partials to the fitter's fold in partition-index
// order. Executors differ in transport only: the in-process one (runner.go)
// hands each *Partial to the fold by pointer, dist.Coordinator ships it
// between processes in its wire form (Partial.AppendBlob into the worker's
// frame, Partial.Decode in the fitter's fold wrapper). The fold sequence is the same either way,
// so selection is bit-identical for any worker count or placement.

// PassKind identifies which streaming pass a PassSpec describes.
type PassKind uint8

// The streaming pass kinds of one fit, in the order the fit first runs them.
// Kinds 3–5 are retired: they streamed the rows once more to score the mined
// combinations, which core.ScoreCombos now does on the resident miner codes.
// Kind 8 is retired too: the binary and multiclass criterion counts ride the
// gather pass (grid.go). The numbers stay taken (an older peer may still name
// them) and ComputePartial answers them as unknown kinds. PassSketchGen and
// PassRefine keep their numbers for the two grid passes that replaced the
// candidate sketch and its refinement.
const (
	PassBaseSketch     PassKind = 1  // labels + per-original quantile/moments partials + row sample
	PassCodes          PassKind = 2  // resident miner codes per live feature
	PassScoreBinary    PassKind = 3  // retired
	PassScoreClasses   PassKind = 4  // retired
	PassScoreMomentIDs PassKind = 5  // retired
	PassSketchGen      PassKind = 6  // grid counts/moments partials per generated candidate
	PassRefine         PassKind = 7  // exact-cut gathers: live refiners, or candidate cut buckets + live criterion histograms
	PassHistCounts     PassKind = 8  // retired
	PassHistIDs        PassKind = 9  // criterion bin ids (regression)
	PassGramCodes      PassKind = 10 // pairwise co-moments + ranker codes
)

// NodeSpec is one generated feature's definition, serializable by name: the
// applier is reconstructed on the worker by resolving Op in its operator
// registry (valid because the sharded engine only admits data-independent
// operators).
type NodeSpec struct {
	Name   string
	Inputs []string
	Op     string
}

// GenSpec is one not-yet-named candidate column: operator applied to live
// features (by live index).
type GenSpec struct {
	Op    string
	Feats []int
}

// EntrySpec is one candidate of the histogram/Gram passes (and a live
// feature's criterion histogram in the gather pass): a base entry
// reads live column Base; a generated entry recomputes Gen. Cuts are the
// pass's bin edges (criterion cuts or ranker cuts, per kind).
type EntrySpec struct {
	Base      int // live index, or -1 for generated entries
	Gen       GenSpec
	Cuts      []float64
	NeedCodes bool // PassGramCodes: materialise ranker codes for this entry
}

// RefineSpec is one open exact-cut refinement of a source column before the
// first round: the bracket arrays from the fitter's Refiner plus the column to
// gather from.
type RefineSpec struct {
	Col      int // source column index
	Ranks    []int64
	Lo, Hi   []float64
	Resolved []bool
}

// PassSpec describes one streaming pass. Exactly the fields its Kind needs
// are set. A PassSpec must not be copied once a pass has started.
type PassSpec struct {
	Pass  int // 1-based pass ordinal within the fit, for error positioning
	Kind  PassKind
	Epoch int // live-set epoch this pass must run against

	LiveCuts [][]float64  // PassCodes: miner cuts per live feature
	Grids    []GridSpec   // PassSketchGen, PassRefine: generated candidates
	Entries  []EntrySpec  // PassRefine (count tasks), PassHistIDs, PassGramCodes
	Refines  []RefineSpec // PassRefine: live refiners

	prepOnce sync.Once
	prep     *passPrep
}

// passPrep is what every chunk of one pass shares, derived once from the
// spec: gather templates (refine), bucket tables (grid gathers) and histogram
// templates (criterion entries). All of it is read-only to the kernels, which
// Shadow the templates per chunk, so the goroutines of one kernel's column
// loop share one passPrep.
type passPrep struct {
	refs   []*sketch.Refiner
	tables []*gridTables
	hists  []sketch.CriterionHist
}

// prepared returns the spec's shared per-pass state, building it on first
// use. The fitter reads the same object for its merge targets, so the
// kernels' templates and the folds' always agree.
func (s *PassSpec) prepared(task core.Task) *passPrep {
	s.prepOnce.Do(func() {
		pp := &passPrep{}
		switch s.Kind {
		case PassRefine:
			pp.refs = make([]*sketch.Refiner, len(s.Refines))
			for i, rf := range s.Refines {
				pp.refs[i] = sketch.NewShadowRefiner(rf.Ranks, rf.Lo, rf.Hi, rf.Resolved)
			}
			pp.tables = make([]*gridTables, len(s.Grids))
			for i := range s.Grids {
				pp.tables[i] = newGridTables(&s.Grids[i])
			}
			pp.hists = s.entryHists(task)
		case PassHistIDs:
			pp.hists = s.entryHists(task)
		}
		s.prep = pp
	})
	return s.prep
}

// entryHists builds the task's criterion histogram of every entry.
func (s *PassSpec) entryHists(task core.Task) []sketch.CriterionHist {
	hists := make([]sketch.CriterionHist, len(s.Entries))
	for i := range s.Entries {
		hists[i] = newCriterionHist(task, s.Entries[i].Cuts)
	}
	return hists
}

// newCriterionHist builds the task's mergeable relevance accumulator over
// the given cut points: binary label counts, K-class counts, or target
// moments.
func newCriterionHist(task core.Task, cuts []float64) sketch.CriterionHist {
	switch task.Kind {
	case core.TaskMulticlass:
		return sketch.NewClassHist(cuts, task.Classes)
	case core.TaskRegression:
		return sketch.NewMomentHist(cuts)
	default:
		return sketch.NewLabelHist(cuts)
	}
}

// Partial is one chunk's computed contribution to a pass. Which payload
// fields are set depends on the pass kind:
//
//	BaseSketch:     Labels = chunk labels; Quantiles[j], Moments[j] of source
//	                column j; Sample = the chunk's row sample.
//	Codes:          Codes[i] = chunk codes of live feature i.
//	SketchGen:      Counts[i], Moments[i] of Grids[i].
//	Refine:         Refiners[i] = gather partial of Refines[i]; Gathers[i] =
//	                cut-bucket gather of Grids[i]; Hists[i] = criterion
//	                histogram partial of Entries[i].
//	HistIDs:        Ints = bin id per (entry, row).
//	GramCodes:      Gram = co-moment partial; Codes[i] = chunk ranker codes
//	                of Entries[i] when its NeedCodes is set (nil otherwise).
//
// Kernels fill the typed fields only. Blobs is their wire form on the
// receiving side: a distributed worker renders blob i straight into its frame
// (BlobCount, BlobSize, AppendBlob), the transport delivers the blobs as
// Blobs, and the fitter's fold wrapper decodes them back (Decode), validating
// every count before a fold indexes by it:
//
//	BaseSketch: Blobs[2i], Blobs[2i+1] = quantile, moments i; the last blob
//	            the row sample.
//	SketchGen:  Blobs[2i], Blobs[2i+1] = grid counts, moments i.
//	Refine:     the refiner gathers, then the grid gathers, then the
//	            histograms, as many of each as the spec has Refines, Grids
//	            and Entries.
//	GramCodes:  Blobs[0] = Gram partial.
//
// Labels, Ints and Codes are plain and travel as they are, so the transport
// codec never looks inside a payload.
type Partial struct {
	Chunk  int
	Start  int
	Rows   int
	Labels []float64
	Blobs  [][]byte
	Ints   []int32
	Codes  [][]uint8

	Quantiles []*sketch.Quantile
	Moments   []sketch.Moments
	Sample    *RowSample
	Counts    []GridCounts
	Refiners  []*sketch.Refiner
	Gathers   []*Gather
	Hists     []sketch.CriterionHist
	Gram      *sketch.Gram

	codeSlab  []uint8 // arena backing of Codes
	countSlab []int32 // arena backing of Counts
}

// BlobCount is how many blobs the kind's typed payload renders to on the
// wire. With BlobSize and AppendBlob it is the encoding half of the seam: the
// transport codec sizes its frame exactly from the first two and has the
// third render each blob straight into it, so a partial's bytes are written
// once, into memory that was sized once. An in-process executor calls none of
// them.
func (p *Partial) BlobCount(kind PassKind) int {
	switch kind {
	case PassBaseSketch:
		return 2*len(p.Quantiles) + 1
	case PassSketchGen:
		return 2 * len(p.Counts)
	case PassRefine:
		return len(p.Refiners) + len(p.Gathers) + len(p.Hists)
	case PassGramCodes:
		return 1
	}
	return 0
}

// wireForm is what every sketch family a partial ships implements: an exact
// encoded size and the append that writes that many bytes.
type wireForm interface {
	WireSize() int
	AppendWire(b []byte) []byte
}

// blob returns the payload behind blob i of the kind's typed payload, in the
// order Decode reads them back. A count-valued criterion histogram is one of
// the two families with a wire form; a kernel puts no other in a partial.
func (p *Partial) blob(kind PassKind, i int) wireForm {
	switch kind {
	case PassBaseSketch:
		switch {
		case i == 2*len(p.Quantiles):
			return p.Sample
		case i%2 == 1:
			return &p.Moments[i/2]
		}
		return p.Quantiles[i/2]
	case PassSketchGen:
		if i%2 == 1 {
			return &p.Moments[i/2]
		}
		return &p.Counts[i/2]
	case PassRefine:
		if i < len(p.Refiners) {
			return p.Refiners[i]
		}
		if i -= len(p.Refiners); i < len(p.Gathers) {
			return p.Gathers[i]
		}
		return p.Hists[i-len(p.Gathers)].(wireForm)
	default: // PassGramCodes: BlobCount is 0 for every other kind
		return p.Gram
	}
}

// BlobSize is the exact encoded size of blob i — every family's size is a
// closed formula of its lengths.
func (p *Partial) BlobSize(kind PassKind, i int) int { return p.blob(kind, i).WireSize() }

// AppendBlob appends blob i's wire form — BlobSize(kind, i) bytes — to b.
func (p *Partial) AppendBlob(b []byte, kind PassKind, i int) []byte {
	return p.blob(kind, i).AppendWire(b)
}

// Decode rebuilds the typed payload of a partial that arrived in wire form
// (Blobs set, an empty typed payload) for the pass spec it answers; a partial handed
// over by pointer passes through untouched. Blobs stays in place and is not
// referenced by the typed payload. Quantile and Gram partials and the grid
// counts are drawn from the arena: the fold returns them there once merged,
// so the next partial decodes into the same memory. Counts are not checked
// here beyond what laying the blobs out needs — every fold validates the
// typed payload's shape, whichever way it arrived.
func (p *Partial) Decode(spec *PassSpec, arena *sketch.Arena) error {
	if len(p.Blobs) == 0 || len(p.Quantiles)+len(p.Counts)+len(p.Refiners)+len(p.Gathers)+len(p.Hists) > 0 || p.Gram != nil {
		return nil
	}
	kind := spec.Kind
	fail := func(i int, err error) error {
		return fmt.Errorf("shard: pass kind %d partial %d payload %d: %w", kind, p.Chunk, i, err)
	}
	switch kind {
	case PassBaseSketch:
		n := (len(p.Blobs) - 1) / 2
		if len(p.Blobs) != 2*n+1 {
			return fmt.Errorf("shard: pass kind %d partial %d has %d blobs, want quantile/moments pairs and a sample", kind, p.Chunk, len(p.Blobs))
		}
		p.Quantiles = make([]*sketch.Quantile, n)
		p.Moments = make([]sketch.Moments, n)
		for i := 0; i < n; i++ {
			q, _, err := arena.DecodeQuantile(p.Blobs[2*i])
			if err != nil {
				return fail(2*i, err)
			}
			p.Quantiles[i] = q
			if err := p.decodeMoments(i); err != nil {
				return fail(2*i+1, err)
			}
		}
		s, err := decodeRowSample(p.Blobs[2*n])
		if err != nil {
			return fail(2*n, err)
		}
		p.Sample = s
	case PassSketchGen:
		n := len(p.Blobs) / 2
		if len(p.Blobs) != 2*n {
			return fmt.Errorf("shard: pass kind %d partial %d has %d blobs, want counts/moments pairs", kind, p.Chunk, len(p.Blobs))
		}
		// A recycled container hands back its typed slices: a steady stream of
		// count partials decodes into the same ones.
		p.Counts = wire.Resize(p.Counts, n)
		p.Moments = wire.Resize(p.Moments, n)
		// The slab is sized by the blobs long enough to hold a grid's counts,
		// so what a partial makes this allocate is bounded by its own bytes.
		gridded := 0
		for i := 0; i < n; i++ {
			if len(p.Blobs[2*i]) >= minGridBlob {
				gridded++
			}
		}
		p.countSlab = arena.Int32s(gridded * stats.NumBuckets)
		used := 0
		for i := 0; i < n; i++ {
			gc, err := decodeGridCounts(p.Blobs[2*i], p.countSlab[used:])
			if err != nil {
				return fail(2*i, err)
			}
			used += len(gc.Counts)
			p.Counts[i] = gc
			if err := p.decodeMoments(i); err != nil {
				return fail(2*i+1, err)
			}
		}
	case PassRefine:
		nr, ng := len(spec.Refines), len(spec.Grids)
		if len(p.Blobs) != nr+ng+len(spec.Entries) {
			return fmt.Errorf("shard: pass kind %d partial %d has %d blobs, want %d gathers and %d histograms",
				kind, p.Chunk, len(p.Blobs), nr+ng, len(spec.Entries))
		}
		p.Refiners = make([]*sketch.Refiner, nr)
		p.Gathers = make([]*Gather, ng)
		p.Hists = make([]sketch.CriterionHist, len(spec.Entries))
		for i, b := range p.Blobs {
			var err error
			switch {
			case i < nr:
				p.Refiners[i], _, err = sketch.DecodeRefinerGather(b)
			case i < nr+ng:
				p.Gathers[i-nr], err = decodeGather(b)
			default:
				p.Hists[i-nr-ng], _, err = sketch.DecodeCountHist(b)
			}
			if err != nil {
				return fail(i, err)
			}
		}
	case PassGramCodes:
		if len(p.Blobs) != 1 {
			return fmt.Errorf("shard: gram partial %d has %d blobs, want 1", p.Chunk, len(p.Blobs))
		}
		g, _, err := arena.DecodeGram(p.Blobs[0])
		if err != nil {
			return fail(0, err)
		}
		p.Gram = g
	}
	return nil
}

// decodeMoments decodes blob 2i+1, the moments of column i.
func (p *Partial) decodeMoments(i int) error {
	mom, _, err := sketch.DecodeMoments(p.Blobs[2*i+1])
	if err == nil {
		p.Moments[i] = *mom
	}
	return err
}

// PassResult summarises one executed pass.
type PassResult struct {
	Rows    int
	Parts   int
	Retries int64 // transient faults absorbed below the fold during the pass
}

// Executor runs streaming passes — the seam between the fit loop and where
// chunks are read and computed. RunPass must invoke fold with every
// partition's Partial exactly once, in ascending Chunk order, and must not
// call fold concurrently. Implementations retry transient faults and
// reassign partitions below the fold, so a recovered pass folds the same
// sequence a fault-free one would. Fit installs the in-process executor when
// Config.Exec is nil.
type Executor interface {
	// Open announces the fit's schema and constants. Called once, before any
	// pass.
	Open(ctx context.Context, names []string, task core.Task, sketchSize int) error
	// SetLive syncs the live feature set (and the node program deriving it)
	// ahead of passes that evaluate live columns. Epochs increase
	// monotonically; a PassSpec carries the epoch it expects.
	SetLive(ctx context.Context, epoch int, nodes []NodeSpec, live []string) error
	// RunPass executes one pass over every partition of the source.
	RunPass(ctx context.Context, spec *PassSpec, fold func(*Partial) error) (PassResult, error)
}

// WorkerState is the per-fit state a pass worker keeps between passes: the
// schema, the installed live-set epoch with its program, appliers resolved
// by operator name, the pool its kernels spread each chunk's columns over,
// and the per-goroutine scratch of those loops. Every per-chunk buffer a
// kernel hands out inside a Partial (sketch partials, int32 slabs, code
// columns, the Gram partial) comes from the arena; whoever finishes with the
// partial — the in-process executor after the fold, the distributed worker
// after the send — returns them with Release. One WorkerState computes one
// chunk at a time: ComputePartial is not safe for concurrent calls.
type WorkerState struct {
	names    []string
	task     core.Task
	partSize int // size every quantile partial is built at: see partialSize
	reg      *operators.Registry
	arena    *sketch.Arena
	pool     *parallel.Pool

	epoch int
	live  *core.Program // derives the live features, its outputs, from a chunk; nil before SetLive
	owned [][]float64   // arena buffers behind the current chunk's derived columns

	// appliers is written only between column loops (SetLive, resolveOps), so
	// the loops read it without a lock.
	appliers map[string]operators.Applier
	opsFor   *PassSpec // the pass whose operators were last resolved
	bits     []uint8   // the chunk's label bits/classes, shared read-only by a loop
	cls      []int32

	mu   sync.Mutex
	free []*scratch // idle per-goroutine scratch, kept across chunks and passes
}

// partialSize is the budget of one quantile partial, in points: a kernel
// summarises its chunk's column at min(sketch size, partialSize), so a partial
// is 16 B × partialSize however many rows the chunk has (short of twice that
// in the worst case: a compaction cannot pair duplicate runs heavier than half
// its run weight) — what a worker holds per candidate, ships per candidate and
// the fold copies per candidate. The fitter's running sketches stay at the full sketch size and
// take the partials in by exact concatenation, so the budget costs a rank
// error of ceil(chunk rows / partialSize) per partition and nothing per
// merge; the refinement gather, ±that bound wide, is what pays for it. The
// two costs cross near √(cut targets × chunk rows) points — about 600 for a
// 5,000-row chunk, 2,200 for a 65,536-row row group — and 1024 is the measured
// minimum of bytes allocated per row in between (docs/performance.md).
const partialSize = 1024

// scratch is what one goroutine of a column loop needs to itself.
type scratch struct {
	srt  sketch.SortScratch
	ix   stats.CutIndexer
	buf  []float64 // generated-column buffer
	rowB []int16   // a gather's bucket per row
	cnt  []int32   // a gather's per-bucket (× class) counts
	pos  []int     // a gather's write cursors
}

// rowBuckets returns the scratch's per-row bucket buffer at length n.
func (s *scratch) rowBuckets(n int) []int16 {
	if cap(s.rowB) < n {
		s.rowB = make([]int16, n)
	}
	return s.rowB[:n]
}

// counts returns the scratch's count table at length n, zeroed.
func (s *scratch) counts(n int) []int32 {
	if cap(s.cnt) < n {
		s.cnt = make([]int32, n)
	}
	clear(s.cnt[:n])
	return s.cnt[:n]
}

// cursor returns the scratch's cursor buffer at length n.
func (s *scratch) cursor(n int) []int {
	if cap(s.pos) < n {
		s.pos = make([]int, n)
	}
	return s.pos[:n]
}

// floats returns the scratch's generated-column buffer at length n, contents
// unspecified.
func (s *scratch) floats(n int) []float64 {
	if cap(s.buf) < n {
		s.buf = make([]float64, n)
	}
	return s.buf[:n]
}

// NewWorkerState prepares worker-side fit state for the given schema, with
// the built-in operator registry, its own arena and the process-wide pool, so
// a worker session spreads each partition over its host's cores.
func NewWorkerState(names []string, task core.Task, sketchSize int) *WorkerState {
	return newWorkerState(names, task, sketchSize, operators.NewRegistry(), sketch.NewArena(), parallel.Default())
}

// newWorkerState is NewWorkerState over a given registry, arena and pool: the
// in-process executor resolves operators in the fit's own registry, pools
// through the fitter's arena (the fold hands merged sketches straight back)
// and runs on the pool the fit was configured with.
func newWorkerState(names []string, task core.Task, sketchSize int, reg *operators.Registry, arena *sketch.Arena, pool *parallel.Pool) *WorkerState {
	partSize := partialSize
	if sketchSize > 0 && sketchSize < partSize {
		partSize = sketchSize
	}
	return &WorkerState{
		names:    names,
		task:     task,
		partSize: partSize,
		reg:      reg,
		arena:    arena,
		pool:     pool,
		appliers: map[string]operators.Applier{},
	}
}

// forRange runs fn over [0,n) in index ranges of grain on the pool (inline on
// a one-worker or saturated pool) and returns the error of the lowest failing
// range, else ctx.Err(). Each index belongs to one range, so a loop that
// writes per-index results computes the same bytes for any pool size.
func forRange(ctx context.Context, pool *parallel.Pool, n, grain int, fn func(lo, hi int) error) error {
	var (
		mu    sync.Mutex
		first error
		at    = n
	)
	cerr := pool.ForChunksCtx(ctx, n, grain, func(lo, hi int) {
		if err := fn(lo, hi); err != nil {
			mu.Lock()
			if lo < at {
				first, at = err, lo
			}
			mu.Unlock()
		}
	})
	if first != nil {
		return first
	}
	return cerr
}

// forCols is the column loop of every kernel: fn(s, i) for each i in [0,n),
// every range on one goroutine with a scratch of its own.
func (ws *WorkerState) forCols(ctx context.Context, n int, fn func(s *scratch, i int) error) error {
	return forRange(ctx, ws.pool, n, ws.pool.Grain(n), func(lo, hi int) error {
		s := ws.takeScratch()
		defer ws.putScratch(s)
		for i := lo; i < hi; i++ {
			if err := fn(s, i); err != nil {
				return err
			}
		}
		return nil
	})
}

func (ws *WorkerState) takeScratch() *scratch {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	if n := len(ws.free); n > 0 {
		s := ws.free[n-1]
		ws.free = ws.free[:n-1]
		return s
	}
	return &scratch{}
}

func (ws *WorkerState) putScratch(s *scratch) {
	ws.mu.Lock()
	ws.free = append(ws.free, s)
	ws.mu.Unlock()
}

// applier resolves (and caches) the stateless applier for an operator name,
// holding every use — cached or not — to the operator's arity.
func (ws *WorkerState) applier(op string, arity int) (operators.Applier, error) {
	o, err := ws.reg.Get(op)
	if err != nil {
		return nil, fmt.Errorf("shard: worker operator %q: %w", op, err)
	}
	if int(o.Arity()) != arity {
		return nil, fmt.Errorf("shard: worker operator %q wants arity %d, got %d", op, o.Arity(), arity)
	}
	if ap, ok := ws.appliers[op]; ok {
		return ap, nil
	}
	if !operators.DataIndependent(o) {
		return nil, fmt.Errorf("shard: worker operator %q is not data-independent", op)
	}
	ap, err := o.Fit(make([][]float64, arity))
	if err != nil {
		return nil, fmt.Errorf("shard: worker fit %q: %w", op, err)
	}
	ws.appliers[op] = ap
	return ap, nil
}

// resolveOps resolves every operator a pass's generated columns name, so the
// column loops only read the applier cache.
func (ws *WorkerState) resolveOps(spec *PassSpec) error {
	resolve := func(g *GenSpec) error {
		_, err := ws.applier(g.Op, len(g.Feats))
		return err
	}
	for i := range spec.Grids {
		if err := resolve(&spec.Grids[i].Gen); err != nil {
			return err
		}
	}
	for i := range spec.Entries {
		if e := &spec.Entries[i]; e.Base < 0 {
			if err := resolve(&e.Gen); err != nil {
				return err
			}
		}
	}
	return nil
}

// SetLive installs a live-set epoch: the node program is rebuilt from the
// specs (appliers by registry name) and compiled with the live features as
// its outputs. Specs that do not compile are an error and leave the installed
// epoch as it was.
func (ws *WorkerState) SetLive(epoch int, nodes []NodeSpec, live []string) error {
	prog := make([]core.FeatureNode, len(nodes))
	for i, nd := range nodes {
		ap, err := ws.applier(nd.Op, len(nd.Inputs))
		if err != nil {
			return err
		}
		prog[i] = core.FeatureNode{Name: nd.Name, Inputs: nd.Inputs, Applier: ap}
	}
	g, err := core.Compile(ws.names, prog, live)
	if err != nil {
		return fmt.Errorf("shard: live epoch %d: %w", epoch, err)
	}
	ws.live, ws.epoch = g, epoch
	return nil
}

// liveCols returns the chunk's live columns, in live order: originals are
// zero-copy views of the chunk, derived features are computed into arena
// buffers. Both are valid until releaseLive.
func (ws *WorkerState) liveCols(c *frame.Chunk) [][]float64 {
	if ws.live == nil {
		return nil
	}
	return ws.live.Eval(c.Cols, func() []float64 {
		buf := ws.arena.Floats(c.NumRows())
		ws.owned = append(ws.owned, buf)
		return buf
	})
}

// releaseLive returns the derived columns' buffers to the arena; the chunk
// may be recycled right after.
func (ws *WorkerState) releaseLive() {
	for i, b := range ws.owned {
		ws.arena.PutFloats(b)
		ws.owned[i] = nil
	}
	ws.owned = ws.owned[:0]
}

// Release returns a partial's pooled buffers to the arena. The partial (and
// anything aliasing its payload) must not be used afterwards.
func (ws *WorkerState) Release(p *Partial) {
	for _, q := range p.Quantiles {
		ws.arena.PutQuantile(q)
	}
	ws.arena.PutInt32s(p.Ints)
	ws.arena.PutInt32s(p.countSlab)
	ws.arena.PutBytes(p.codeSlab)
	ws.arena.PutGram(p.Gram)
	*p = Partial{}
}

// genCol computes one generated candidate column into dst (len rows) as the
// program would compute the node. The pass's operators are resolved
// (resolveOps) before any loop calls it.
func (ws *WorkerState) genCol(g GenSpec, cols [][]float64, dst []float64) error {
	var in [3][]float64
	iv := in[:len(g.Feats)]
	for k, fi := range g.Feats {
		if fi < 0 || fi >= len(cols) {
			return fmt.Errorf("shard: generated input %d outside live set of %d", fi, len(cols))
		}
		iv[k] = cols[fi]
	}
	core.Apply(ws.appliers[g.Op], iv, dst)
	return nil
}

// entryCol resolves one histogram/Gram entry's column for the chunk: a live
// column as it is, a generated one computed into buf.
func (ws *WorkerState) entryCol(e *EntrySpec, cols [][]float64, buf []float64) ([]float64, error) {
	if e.Base >= 0 {
		if e.Base >= len(cols) {
			return nil, fmt.Errorf("shard: entry base %d outside live set of %d", e.Base, len(cols))
		}
		return cols[e.Base], nil
	}
	if err := ws.genCol(e.Gen, cols, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// labelBits returns the chunk's labels thresholded to 0/1 bits. Thresholding
// is a per-row cost the count passes would otherwise repeat for every
// candidate column, and random binary labels make the branch mispredict
// constantly.
func (ws *WorkerState) labelBits(labels []float64) []uint8 {
	if cap(ws.bits) < len(labels) {
		ws.bits = make([]uint8, len(labels))
	}
	bits := ws.bits[:len(labels)]
	for i, y := range labels {
		if y > 0.5 {
			bits[i] = 1
		} else {
			bits[i] = 0
		}
	}
	return bits
}

// labelCls returns the chunk's labels as class ids (-1 when out of range).
func (ws *WorkerState) labelCls(labels []float64, k int) []int32 {
	if cap(ws.cls) < len(labels) {
		ws.cls = make([]int32, len(labels))
	}
	cls := ws.cls[:len(labels)]
	for i, y := range labels {
		if c := int(y); c >= 0 && c < k {
			cls[i] = int32(c)
		} else {
			cls[i] = -1
		}
	}
	return cls
}

// fillCodes bins one column slice into GBDT codes: 0 for NaN, 1+bin
// otherwise — the binner encoding gbdt.TrainBinned expects.
func fillCodes(dst []uint8, vals, cuts []float64, ix *stats.CutIndexer) {
	ix.Reset(cuts)
	for i, v := range vals {
		if v != v { // NaN
			dst[i] = 0
			continue
		}
		dst[i] = uint8(1 + ix.Find(v))
	}
}

// ComputePartial computes one chunk's contribution to the given pass — the
// single kernel behind every executor. The chunk's columns (live features,
// entries, gathers) are spread over the worker's pool: each is computed by
// exactly one goroutine in the same arithmetic order as a serial loop and
// lands in its own slot, so the partial is the same bytes for any pool size. A cancelled
// ctx stops the loop between index ranges. The partial references no chunk
// memory, so the chunk may be recycled as soon as this returns.
func (ws *WorkerState) ComputePartial(ctx context.Context, spec *PassSpec, c *frame.Chunk) (*Partial, error) {
	if len(c.Cols) != len(ws.names) {
		return nil, fmt.Errorf("shard: chunk %d has %d columns, want %d", c.Index, len(c.Cols), len(ws.names))
	}
	if c.Label == nil && c.NumRows() > 0 {
		return nil, fmt.Errorf("shard: source has no label column")
	}
	if len(c.Label) != c.NumRows() {
		return nil, fmt.Errorf("shard: chunk %d label covers %d of %d rows", c.Index, len(c.Label), c.NumRows())
	}
	if spec.Epoch != ws.epoch {
		return nil, fmt.Errorf("shard: pass wants live epoch %d, worker has %d", spec.Epoch, ws.epoch)
	}
	if ws.opsFor != spec {
		if err := ws.resolveOps(spec); err != nil {
			return nil, err
		}
		ws.opsFor = spec
	}
	p := &Partial{Chunk: c.Index, Start: c.Start, Rows: c.NumRows()}
	var err error
	switch spec.Kind {
	case PassBaseSketch:
		p.Labels = append([]float64(nil), c.Label...)
		p.Sample = chunkSample(c.Cols, c.Start, p.Rows)
		err = ws.sketchCols(ctx, p, c.Cols)
	case PassCodes:
		err = ws.computeCodes(ctx, spec, c, p)
	case PassSketchGen:
		err = ws.computeGridCounts(ctx, spec, c, p)
	case PassRefine:
		err = ws.computeRefine(ctx, spec, c, p)
	case PassHistIDs:
		err = ws.computeHist(ctx, spec, c, p)
	case PassGramCodes:
		err = ws.computeGramCodes(ctx, spec, c, p)
	default:
		err = fmt.Errorf("shard: unknown pass kind %d", spec.Kind)
	}
	ws.releaseLive()
	if err != nil {
		ws.Release(p)
		return nil, err
	}
	return p, nil
}

// sketchCols summarises the chunk's source columns — quantile partial
// through the SortNonNaN ingestion path plus moments — into p. The partial is
// built at the partial budget, so AddSortedScratch's one compaction happens
// here, at the worker, and what leaves is the budget's size at most.
func (ws *WorkerState) sketchCols(ctx context.Context, p *Partial, cols [][]float64) error {
	p.Quantiles = make([]*sketch.Quantile, len(cols))
	p.Moments = make([]sketch.Moments, len(cols))
	return ws.forCols(ctx, len(cols), func(s *scratch, i int) error {
		vals := cols[i]
		sorted, nan := sketch.SortNonNaN(vals, &s.srt)
		part := ws.arena.Quantile(ws.partSize)
		part.AddSortedScratch(sorted, nan, &s.srt)
		p.Quantiles[i] = part
		p.Moments[i].AddAll(vals)
		return nil
	})
}

// codeCols carves p.Codes[i], p.Rows codes each, out of one pooled slab for
// every one of the slots columns that want(i) names (all of them when nil).
func (ws *WorkerState) codeCols(p *Partial, slots int, want func(i int) bool) {
	p.Codes = make([][]uint8, slots)
	n := slots
	if want != nil {
		n = 0
		for i := 0; i < slots; i++ {
			if want(i) {
				n++
			}
		}
	}
	p.codeSlab = ws.arena.Bytes(n * p.Rows)
	used := 0
	for i := range p.Codes {
		if want == nil || want(i) {
			p.Codes[i] = p.codeSlab[used : used+p.Rows : used+p.Rows]
			used += p.Rows
		}
	}
}

func (ws *WorkerState) computeCodes(ctx context.Context, spec *PassSpec, c *frame.Chunk, p *Partial) error {
	cols := ws.liveCols(c)
	if len(spec.LiveCuts) != len(cols) {
		return fmt.Errorf("shard: codes pass has %d cut sets for %d live", len(spec.LiveCuts), len(cols))
	}
	ws.codeCols(p, len(cols), nil)
	return ws.forCols(ctx, len(cols), func(s *scratch, i int) error {
		fillCodes(p.Codes[i], cols[i], spec.LiveCuts[i], &s.ix)
		return nil
	})
}

// computeRefine is the gather pass's kernel: the live refiners' gathers
// before the first round, or in a round the generated candidates' cut-bucket
// gathers and, for a count task, the live features' criterion histograms at
// their known cuts.
func (ws *WorkerState) computeRefine(ctx context.Context, spec *PassSpec, c *frame.Chunk, p *Partial) error {
	for i := range spec.Refines {
		rf := &spec.Refines[i]
		if len(rf.Lo) != len(rf.Ranks) || len(rf.Hi) != len(rf.Ranks) || len(rf.Resolved) != len(rf.Ranks) {
			return fmt.Errorf("shard: refine %d has %d ranks but %d/%d/%d bracket entries", i, len(rf.Ranks), len(rf.Lo), len(rf.Hi), len(rf.Resolved))
		}
		if rf.Col < 0 || rf.Col >= len(c.Cols) {
			return fmt.Errorf("shard: refine column %d outside schema of %d", rf.Col, len(c.Cols))
		}
	}
	counts := ws.task.Kind != core.TaskRegression
	if !counts && len(spec.Entries) > 0 {
		return fmt.Errorf("shard: a %s gather pass carries %d criterion histograms", ws.task, len(spec.Entries))
	}
	for i := range spec.Grids {
		if err := spec.Grids[i].check(true, counts); err != nil {
			return err
		}
	}
	pp := spec.prepared(ws.task)
	cols := ws.liveCols(c)
	var cls []int32
	var bits []uint8
	if counts && len(spec.Grids)+len(spec.Entries) > 0 {
		var err error
		if cls, err = ws.classIDs(c.Label); err != nil {
			return err
		}
		if ws.task.Kind != core.TaskMulticlass {
			bits = ws.labelBits(c.Label)
		}
	}
	nr, ng := len(spec.Refines), len(spec.Grids)
	p.Refiners = make([]*sketch.Refiner, nr)
	p.Gathers = make([]*Gather, ng)
	p.Hists = make([]sketch.CriterionHist, len(spec.Entries))
	return ws.forCols(ctx, nr+ng+len(spec.Entries), func(s *scratch, i int) error {
		switch {
		case i < nr:
			sh := pp.refs[i].Shadow()
			sh.AddChunk(c.Cols[spec.Refines[i].Col])
			p.Refiners[i] = sh
		case i < nr+ng:
			g := &spec.Grids[i-nr]
			vals := s.floats(p.Rows)
			if err := ws.genCol(g.Gen, cols, vals); err != nil {
				return err
			}
			p.Gathers[i-nr] = gatherCol(g, pp.tables[i-nr], vals, cls, taskClasses(ws.task), s)
		default:
			e := &spec.Entries[i-nr-ng]
			col, err := ws.entryCol(e, cols, s.floats(p.Rows))
			if err != nil {
				return err
			}
			// The pre-encoded label paths fold the same integer counts as AddCol
			// without re-deriving the label per value per candidate.
			switch h := pp.hists[i-nr-ng].(type) {
			case *sketch.ClassHist:
				sh := h.Shadow()
				sh.AddColCls(col, cls)
				p.Hists[i-nr-ng] = sh
			case *sketch.LabelHist:
				sh := h.Shadow()
				sh.AddColBits(col, bits)
				p.Hists[i-nr-ng] = sh
			}
		}
		return nil
	})
}

// computeHist bins every entry for the regression criterion: it emits only
// bin ids (PassHistIDs), so the fold keeps the float target sums in global row
// order.
func (ws *WorkerState) computeHist(ctx context.Context, spec *PassSpec, c *frame.Chunk, p *Partial) error {
	if ws.task.Kind != core.TaskRegression {
		return fmt.Errorf("shard: pass kind %d does not fit a %s task", spec.Kind, ws.task)
	}
	pp := spec.prepared(ws.task)
	cols := ws.liveCols(c)
	rows := p.Rows
	p.Ints = ws.arena.Int32s(len(spec.Entries) * rows)
	return ws.forCols(ctx, len(spec.Entries), func(s *scratch, i int) error {
		e := &spec.Entries[i]
		var buf []float64
		if e.Base < 0 {
			buf = s.floats(rows)
		}
		col, err := ws.entryCol(e, cols, buf)
		if err != nil {
			return err
		}
		pp.hists[i].(*sketch.MomentHist).BinIDs(col, p.Ints[i*rows:(i+1)*rows])
		return nil
	})
}

func (ws *WorkerState) computeGramCodes(ctx context.Context, spec *PassSpec, c *frame.Chunk, p *Partial) error {
	cols := ws.liveCols(c)
	rows := p.Rows
	k := len(spec.Entries)
	ws.codeCols(p, k, func(i int) bool { return spec.Entries[i].NeedCodes })
	// Every generated column stays alive until the last pair is added, so
	// these come from the arena rather than a goroutine's one scratch buffer.
	mat := make([][]float64, k)
	owned := make([][]float64, k)
	defer func() {
		for _, b := range owned {
			ws.arena.PutFloats(b)
		}
	}()
	err := ws.forCols(ctx, k, func(s *scratch, i int) error {
		e := &spec.Entries[i]
		if e.Base < 0 {
			owned[i] = ws.arena.Floats(rows)
		}
		col, err := ws.entryCol(e, cols, owned[i])
		if err != nil {
			return err
		}
		mat[i] = col
		if e.NeedCodes {
			fillCodes(p.Codes[i], col, e.Cuts, &s.ix)
		}
		return nil
	})
	if err != nil {
		return err
	}
	p.Gram = ws.arena.Gram(k)
	p.Gram.AddRows(rows)
	prep := sketch.PrepChunk(mat)
	// Row j of the pair triangle costs j dot products: single-row ranges keep
	// the goroutines level where a few wide ones would not.
	return forRange(ctx, ws.pool, k, 1, func(lo, hi int) error {
		p.Gram.AddPrepared(mat, prep, lo, hi)
		return nil
	})
}
