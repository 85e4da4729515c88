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
// Kinds 8 and 9 are retired too: every task's criterion tallies ride the
// gather pass (grid.go) — kind 9 shipped a bin id per row and candidate for
// the regression criterion, whose sums are integers now. The numbers stay
// taken (an older peer may still name them) and ComputePartial answers them
// as unknown kinds. PassBaseSketch, PassSketchGen and PassRefine keep their
// names and numbers, though no pass sketches or refines any more: they are
// the base pass and the two grid passes that cut every column.
const (
	PassBaseSketch     PassKind = 1  // labels + per-source-column moments + row sample
	PassCodes          PassKind = 2  // resident miner codes per live feature
	PassScoreBinary    PassKind = 3  // retired
	PassScoreClasses   PassKind = 4  // retired
	PassScoreMomentIDs PassKind = 5  // retired
	PassSketchGen      PassKind = 6  // grid counts + range per column
	PassRefine         PassKind = 7  // cut-bucket gathers + criterion codes and span tallies per column
	PassHistCounts     PassKind = 8  // retired
	PassHistIDs        PassKind = 9  // retired
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

// EntrySpec is one candidate of the Gram pass: a base entry reads live column
// Base; a generated entry recomputes Gen. Cuts are its ranker cuts.
type EntrySpec struct {
	Base      int // live index, or -1 for generated entries
	Gen       GenSpec
	Cuts      []float64
	NeedCodes bool // PassGramCodes: materialise ranker codes for this entry
}

// PassSpec describes one streaming pass. Exactly the fields its Kind needs
// are set. A PassSpec must not be copied once a pass has started.
type PassSpec struct {
	Pass  int // 1-based pass ordinal within the fit, for error positioning
	Kind  PassKind
	Epoch int // live-set epoch this pass must run against

	LiveCuts [][]float64      // PassCodes: miner cuts per live feature
	Grids    []GridSpec       // PassSketchGen, PassRefine: the columns being cut
	Target   stats.TargetCode // PassRefine, regression: the fit's target code (its parameters)
	Entries  []EntrySpec      // PassGramCodes

	prepOnce sync.Once
	plans    []stats.GatherPlan
}

// tables returns the gather pass's plans, one per grid, laid on first use.
// They are read-only to the kernels, so every chunk of the pass and the
// goroutines of one kernel's column loop share them.
func (s *PassSpec) tables() []stats.GatherPlan {
	s.prepOnce.Do(func() {
		s.plans = make([]stats.GatherPlan, len(s.Grids))
		for i, g := range s.Grids {
			s.plans[i].Reset(g.Grid.Buckets(), g.Buckets, g.IV)
		}
	})
	return s.plans
}

// Partial is one chunk's computed contribution to a pass. Which payload
// fields are set depends on the pass kind:
//
//	BaseSketch:     Labels = chunk labels; Moments[j] of source column j;
//	                Sample = the chunk's row sample.
//	Codes:          Codes[i] = chunk codes of live feature i.
//	SketchGen:      Counts[i] of Grids[i].
//	Refine:         Gathers[i] = cut-bucket gather of Grids[i].
//	GramCodes:      Gram = co-moment partial; Codes[i] = chunk ranker codes
//	                of Entries[i] when its NeedCodes is set (nil otherwise);
//	                Moments[g] of the g-th generated entry.
//
// Kernels fill the typed fields only. Blobs is their wire form on the
// receiving side: a distributed worker renders blob i straight into its frame
// (BlobCount, BlobSize, AppendBlob), the transport delivers the blobs as
// Blobs, and the fitter's fold wrapper decodes them back (Decode), validating
// every count before a fold indexes by it:
//
//	BaseSketch: Blobs[j] = moments j; the last blob the row sample.
//	SketchGen:  Blobs[i] = grid counts i.
//	Refine:     Blobs[i] = gather i.
//	GramCodes:  Blobs[0] = Gram partial; Blobs[1+g] = moments g.
//
// Labels and Codes are plain and travel as they are, so the transport codec
// never looks inside a payload.
type Partial struct {
	Chunk  int
	Start  int
	Rows   int
	Labels []float64
	Blobs  [][]byte
	Codes  [][]uint8
	Ints   []int32 // retired with kind 9: never set nor sent; bench/trace.go still reads it

	Moments []sketch.Moments
	Sample  *RowSample
	Counts  []GridCounts
	Gathers []*Gather
	Gram    *sketch.Gram

	codeSlab   []uint8   // arena backing of Codes
	countSlab  []int32   // arena backing of Counts
	gatherSize []int32   // arena backing of decoded Gathers' sizes
	gatherInt  []int64   // and of their codes and span tallies
	gatherVal  []float64 // arena backing of decoded Gathers' values
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
		return len(p.Moments) + 1
	case PassSketchGen:
		return len(p.Counts)
	case PassRefine:
		return len(p.Gathers)
	case PassGramCodes:
		return 1 + len(p.Moments)
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
// order Decode reads them back.
func (p *Partial) blob(kind PassKind, i int) wireForm {
	switch kind {
	case PassBaseSketch:
		if i == len(p.Moments) {
			return p.Sample
		}
		return &p.Moments[i]
	case PassSketchGen:
		return &p.Counts[i]
	case PassRefine:
		return p.Gathers[i]
	default: // PassGramCodes: BlobCount is 0 for every other kind
		if i > 0 {
			return &p.Moments[i-1]
		}
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
// referenced by the typed payload. Gram partials, the grid counts and the
// gathers' slabs are drawn from the arena: the fold returns them there once
// merged (ReleaseCounts, ReleaseGathers), so the next partial decodes into the
// same memory. Counts are not checked
// here beyond what laying the blobs out needs — every fold validates the
// typed payload's shape, whichever way it arrived.
func (p *Partial) Decode(spec *PassSpec, arena *sketch.Arena) error {
	if len(p.Blobs) == 0 || p.Sample != nil || len(p.Moments)+len(p.Counts)+len(p.Gathers) > 0 || p.Gram != nil {
		return nil
	}
	kind := spec.Kind
	fail := func(i int, err error) error {
		return fmt.Errorf("shard: pass kind %d partial %d payload %d: %w", kind, p.Chunk, i, err)
	}
	switch kind {
	case PassBaseSketch:
		n := len(p.Blobs) - 1
		p.Moments = make([]sketch.Moments, n)
		for i := range p.Moments {
			if err := p.decodeMoments(i, i); err != nil {
				return fail(i, err)
			}
		}
		s, err := decodeRowSample(p.Blobs[n])
		if err != nil {
			return fail(n, err)
		}
		p.Sample = s
	case PassSketchGen:
		// A recycled container hands back its typed slice: a steady stream of
		// count partials decodes into the same one.
		p.Counts = wire.Resize(p.Counts, len(p.Blobs))
		// The slab is sized by the blobs long enough to hold a grid's counts,
		// so what a partial makes this allocate is bounded by its own bytes.
		gridded := 0
		for _, b := range p.Blobs {
			if len(b) >= minGridBlob {
				gridded++
			}
		}
		p.countSlab = arena.Int32s(gridded * stats.NumBuckets)
		used := 0
		for i, b := range p.Blobs {
			gc, err := decodeGridCounts(b, p.countSlab[used:])
			if err != nil {
				return fail(i, err)
			}
			used += len(gc.Counts)
			p.Counts[i] = gc
		}
	case PassRefine:
		if len(p.Blobs) != len(spec.Grids) {
			return fmt.Errorf("shard: pass kind %d partial %d has %d blobs, want %d gathers",
				kind, p.Chunk, len(p.Blobs), len(spec.Grids))
		}
		// Measured first, so that the two slabs are taken once, at their size:
		// a steady stream of gather partials decodes into the same memory.
		var sl gatherSlabs
		for i, b := range p.Blobs {
			if err := sl.read(b, nil); err != nil {
				return fail(i, err)
			}
		}
		p.gatherSize, p.gatherInt, p.gatherVal = arena.Int32sRoom(sl.ns), arena.Int64sRoom(sl.ni), arena.FloatsRoom(sl.nv)
		sl = gatherSlabs{fill: true, sizes: p.gatherSize, ints: p.gatherInt, vals: p.gatherVal}
		// A recycled container hands back its gathers' headers too.
		p.Gathers = wire.Resize(p.Gathers, len(p.Blobs))
		for i, b := range p.Blobs {
			if p.Gathers[i] == nil {
				p.Gathers[i] = new(Gather)
			}
			if err := sl.read(b, p.Gathers[i]); err != nil {
				return fail(i, err)
			}
		}
	case PassGramCodes:
		g, _, err := arena.DecodeGram(p.Blobs[0])
		if err != nil {
			return fail(0, err)
		}
		p.Gram = g
		p.Moments = wire.Resize(p.Moments, len(p.Blobs)-1)
		for i := range p.Moments {
			if err := p.decodeMoments(i, 1+i); err != nil {
				return fail(1+i, err)
			}
		}
	}
	return nil
}

// decodeMoments decodes blob b into Moments[i].
func (p *Partial) decodeMoments(i, b int) error {
	mom, _, err := sketch.DecodeMoments(p.Blobs[b])
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
	// Open announces the fit's schema and task. Called once, before any pass.
	// sketchSize is ignored (the fitter passes 0); the parameter stays so that
	// existing Executor implementations keep compiling.
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
	names []string
	task  core.Task
	reg   *operators.Registry
	arena *sketch.Arena
	pool  *parallel.Pool

	epoch int
	live  *core.Program // derives the live features, its outputs, from a chunk; nil before SetLive
	owned [][]float64   // arena buffers behind the current chunk's derived columns

	// appliers is written only between column loops (SetLive, resolveOps), so
	// the loops read it without a lock.
	appliers map[string]operators.Applier
	opsFor   *PassSpec         // the pass whose operators were last resolved
	code     *stats.TargetCode // the task's code of the chunk's labels, shared read-only by a loop

	mu   sync.Mutex
	free []*scratch // idle per-goroutine scratch, kept across chunks and passes

	// gathers[i] is what the gather kernel fills for the pass's column i, kept
	// across partitions and passes like the scratch: one partial is alive at
	// a time, and its gathers are folded or sent before the next is computed.
	gathers []*Gather
}

// scratch is what one goroutine of a column loop needs to itself.
type scratch struct {
	ix   stats.CutIndexer
	in   [3][]float64 // a generated column's inputs
	buf  []float64    // generated-column buffer
	rowB []int16      // a gather's bucket per row
	cnt  []int64      // a gather's per-bucket tallies
	pos  []int        // a gather's write cursors
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
func NewWorkerState(names []string, task core.Task) *WorkerState {
	return newWorkerState(names, task, operators.NewRegistry(), sketch.NewArena(), parallel.Default())
}

// newWorkerState is NewWorkerState over a given registry, arena and pool: the
// in-process executor resolves operators in the fit's own registry, pools
// through the fitter's arena (the fold hands merged partials straight back)
// and runs on the pool the fit was configured with.
func newWorkerState(names []string, task core.Task, reg *operators.Registry, arena *sketch.Arena, pool *parallel.Pool) *WorkerState {
	return &WorkerState{
		names:    names,
		task:     task,
		code:     task.Code(nil),
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
		if g := &spec.Grids[i]; g.Base < 0 {
			if err := resolve(&g.Gen); err != nil {
				return err
			}
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
	ws.arena.PutInt32s(p.countSlab)
	ws.arena.PutBytes(p.codeSlab)
	ws.arena.PutGram(p.Gram)
	*p = Partial{}
}

// colOf resolves the column an entry or a grid spec names for the chunk: live
// column base as it is or, when base is negative, gen computed into buf as
// the program would compute the node. The inputs are gathered in the
// scratch's array, which a local one would not save: it escapes through the
// applier's interface call. The pass's operators are resolved (resolveOps)
// before any loop calls it.
func (ws *WorkerState) colOf(s *scratch, base int, gen GenSpec, cols [][]float64, buf []float64) ([]float64, error) {
	if base >= 0 {
		if base >= len(cols) {
			return nil, fmt.Errorf("shard: base column %d outside live set of %d", base, len(cols))
		}
		return cols[base], nil
	}
	in := s.in[:len(gen.Feats)]
	for k, fi := range gen.Feats {
		if fi < 0 || fi >= len(cols) {
			return nil, fmt.Errorf("shard: generated input %d outside live set of %d", fi, len(cols))
		}
		in[k] = cols[fi]
	}
	core.Apply(ws.appliers[gen.Op], in, buf)
	clear(in) // the chunk's columns are not the scratch's to keep
	return buf, nil
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
		p.Moments = make([]sketch.Moments, len(c.Cols))
		err = ws.forCols(ctx, len(c.Cols), func(_ *scratch, i int) error {
			p.Moments[i].AddAll(c.Cols[i])
			return nil
		})
	case PassCodes:
		err = ws.computeCodes(ctx, spec, c, p)
	case PassSketchGen:
		err = ws.computeGridCounts(ctx, spec, c, p)
	case PassRefine:
		err = ws.computeGather(ctx, spec, c, p)
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
		s.ix.FillCodes(p.Codes[i], cols[i], spec.LiveCuts[i])
		return nil
	})
}

// computeGather is the gather pass's kernel: every column's cut-bucket
// gather, with the criterion's codes and span tallies beside it.
func (ws *WorkerState) computeGather(ctx context.Context, spec *PassSpec, c *frame.Chunk, p *Partial) error {
	for i := range spec.Grids {
		if err := spec.Grids[i].check(true); err != nil {
			return err
		}
	}
	tables := spec.tables()
	cols := ws.liveCols(c)
	if len(spec.Grids) > 0 {
		if err := ws.codeLabels(c.Label, &spec.Target); err != nil {
			return err
		}
	}
	for len(ws.gathers) < len(spec.Grids) {
		ws.gathers = append(ws.gathers, new(Gather))
	}
	p.Gathers = ws.gathers[:len(spec.Grids):len(spec.Grids)]
	return ws.forCols(ctx, len(spec.Grids), func(s *scratch, i int) error {
		g := &spec.Grids[i]
		vals, err := ws.colOf(s, g.Base, g.Gen, cols, s.floats(p.Rows))
		if err != nil {
			return err
		}
		gatherCol(g, &tables[i], vals, ws.code, s, p.Gathers[i])
		return nil
	})
}

// codeLabels codes the chunk's labels as the fit coded its target: the
// task's code (core.Task.Code) at the fit's regression centring and scale,
// which the pass carries (target). A label outside the task's classes is an
// error: the fit validated them on its first pass. A regression code is held
// to the fit's range where the fold counts it, not here, where the range
// comes from a peer.
func (ws *WorkerState) codeLabels(labels []float64, target *stats.TargetCode) error {
	code := ws.code
	code.Mean, code.Scale, code.Room = target.Mean, target.Scale, target.Room
	code.Recode(labels)
	if code.Classes == 0 {
		return nil
	}
	for i, q := range code.Q {
		if !code.Valid(q) {
			return fmt.Errorf("shard: label %v of row %d is not one of %d classes", labels[i], i, code.Classes)
		}
	}
	return nil
}

func (ws *WorkerState) computeGramCodes(ctx context.Context, spec *PassSpec, c *frame.Chunk, p *Partial) error {
	cols := ws.liveCols(c)
	rows := p.Rows
	k := len(spec.Entries)
	ws.codeCols(p, k, func(i int) bool { return spec.Entries[i].NeedCodes })
	slot, gens := make([]int, k), 0 // a generated entry's place among the generated
	for i, e := range spec.Entries {
		if slot[i] = gens; e.Base < 0 {
			gens++
		}
	}
	p.Moments = make([]sketch.Moments, gens)
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
		col, err := ws.colOf(s, e.Base, e.Gen, cols, owned[i])
		if err != nil {
			return err
		}
		mat[i] = col
		if e.Base < 0 {
			p.Moments[slot[i]].AddAll(col)
		}
		if e.NeedCodes {
			s.ix.FillCodes(p.Codes[i], col, e.Cuts)
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
