package main

import (
	"context"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/frame"
	"repro/internal/shard"
)

// This file is the outside-in trace: nothing inside the program records
// spans yet, so every span is taken at a seam the program already exposes —
// the WithEvents stream, and decorators around frame.ChunkSource,
// shard.Executor and dist.Conn. Spans stay in memory until the traced run
// ends.

// span is one timed interval at a layer boundary. Start and End are seconds
// since the recorder was created; Parent is the ID of the span that was open
// when this one began (0 for the root); Fit groups the spans of one fit.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Fit    int     `json:"fit"`
	Name   string  `json:"name"`
	Start  float64 `json:"start"`
	End    float64 `json:"end"`
}

func (s span) dur() float64 { return s.End - s.Start }

// recorder collects the spans and counters of one traced fit. The fit's
// events arrive on the fitting goroutine, but chunk reads come from the
// prefetcher and frames from the coordinator's reader goroutines, so every
// method locks.
type recorder struct {
	mu       sync.Mutex
	t0       time.Time
	fit      int
	spans    []span
	open     []int // stack of open span IDs: fit, iteration, stage
	counters map[string]float64
}

func newRecorder(fit int) *recorder {
	return &recorder{t0: time.Now(), fit: fit, counters: map[string]float64{}}
}

func (r *recorder) now() float64 { return time.Since(r.t0).Seconds() }

// begin opens a span under the innermost open one and makes it the new
// innermost. Only the fitting goroutine nests spans this way.
func (r *recorder) begin(name string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: r.parentLocked(), Fit: r.fit, Name: name, Start: r.now()})
	r.open = append(r.open, id)
	return id
}

// end closes the innermost open span.
func (r *recorder) end() {
	r.mu.Lock()
	defer r.mu.Unlock()
	id := r.open[len(r.open)-1]
	r.open = r.open[:len(r.open)-1]
	r.spans[id-1].End = r.now()
}

func (r *recorder) parentLocked() int {
	if len(r.open) == 0 {
		return 0
	}
	return r.open[len(r.open)-1]
}

// leaf records a finished span under the given parent; parent < 0 means the
// innermost open span at the time of the call.
func (r *recorder) leaf(name string, parent int, start time.Time) {
	end := time.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	if parent < 0 {
		parent = r.parentLocked()
	}
	r.spans = append(r.spans, span{
		ID: len(r.spans) + 1, Parent: parent, Fit: r.fit, Name: name,
		Start: start.Sub(r.t0).Seconds(), End: end.Sub(r.t0).Seconds(),
	})
}

func (r *recorder) add(counter string, v float64) {
	r.mu.Lock()
	r.counters[counter] += v
	r.mu.Unlock()
}

const preIteration = "core.pre-iteration"

// onEvent turns the fit's progress stream into iteration and stage spans,
// and keeps the engine's own per-stage elapsed times and exact counts.
func (r *recorder) onEvent(ev core.FitEvent) {
	switch ev.Kind {
	case core.EventFitStart:
		// No stage is open before the first iteration, yet the out-of-core
		// engines stream three passes there (base sketch, live refinement,
		// miner codes): give that stretch a span of its own.
		r.begin(preIteration)
	case core.EventIterationStart:
		if ev.Round == 1 {
			r.end()
		}
		r.begin("core.iteration")
	case core.EventStageStart:
		r.begin("core.stage." + ev.Stage.String())
	case core.EventStageEnd:
		r.end()
		r.add("core.stage_s."+ev.Stage.String(), ev.Elapsed.Seconds())
		if ev.Stage == core.StageGenerate {
			r.add("core.candidates", float64(ev.Survivors))
		}
	case core.EventIterationEnd:
		r.end()
	case core.EventFitEnd:
		r.add("core.selected", float64(ev.Survivors))
	}
}

// selfTimes returns each span's duration minus the part of it its children
// cover (children may overlap one another, so their intervals are merged).
func selfTimes(spans []span) map[int]float64 {
	children := map[int][]span{}
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	self := make(map[int]float64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		cover, hi := 0.0, s.Start
		for _, k := range kids {
			lo, end := k.Start, k.End
			if end > s.End {
				end = s.End
			}
			if lo < hi {
				lo = hi
			}
			if end > lo {
				cover += end - lo
				hi = end
			}
		}
		self[s.ID] = s.dur() - cover
	}
	return self
}

// writeSpans writes spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// tracedSource times a ChunkSource's reads. It forwards StableChunks the way
// shard's own retry wrapper does, so the prefetcher takes the same zero-copy
// decision it takes on the bare source.
type tracedSource struct {
	src frame.ChunkSource
	rec *recorder
}

// tracedSkippable additionally forwards frame.SkippableSource, which the
// engine type-asserts to plan partial refinement passes.
type tracedSkippable struct {
	tracedSource
	skip frame.SkippableSource
}

// traceSource wraps src, keeping every optional interface it implements.
func traceSource(src frame.ChunkSource, rec *recorder) frame.ChunkSource {
	ts := tracedSource{src: src, rec: rec}
	if sk, ok := src.(frame.SkippableSource); ok {
		return &tracedSkippable{tracedSource: ts, skip: sk}
	}
	return &ts
}

func (t *tracedSource) Names() []string { return t.src.Names() }
func (t *tracedSource) NumCols() int    { return t.src.NumCols() }

func (t *tracedSource) Reset() error {
	start := time.Now()
	err := t.src.Reset()
	t.rec.add("frame.next_busy_s", time.Since(start).Seconds())
	t.rec.leaf("frame.reset", -1, start)
	return err
}

func (t *tracedSource) Next() (*frame.Chunk, error) {
	start := time.Now()
	c, err := t.src.Next()
	t.rec.add("frame.next_busy_s", time.Since(start).Seconds())
	if err == nil {
		t.rec.add("frame.chunks", 1)
		t.rec.leaf("frame.next", -1, start)
	}
	return c, err
}

func (t *tracedSource) StableChunks() bool {
	ss, ok := t.src.(frame.StableSource)
	return ok && ss.StableChunks()
}

func (t *tracedSkippable) NumChunks() int                    { return t.skip.NumChunks() }
func (t *tracedSkippable) ChunkStats(i int) []frame.ColStats { return t.skip.ChunkStats(i) }
func (t *tracedSkippable) SetSkip(skip []bool)               { t.skip.SetSkip(skip) }

var (
	_ frame.StableSource    = (*tracedSource)(nil)
	_ frame.SkippableSource = (*tracedSkippable)(nil)
)

// passNames maps the engine's pass kinds onto the seven names the per-layer
// metrics use: the three score kinds and the two histogram kinds differ only
// by task.
var passNames = map[shard.PassKind]string{
	shard.PassBaseSketch:     "base-sketch",
	shard.PassCodes:          "codes",
	shard.PassScoreBinary:    "score",
	shard.PassScoreClasses:   "score",
	shard.PassScoreMomentIDs: "score",
	shard.PassSketchGen:      "sketch-gen",
	shard.PassRefine:         "refine",
	shard.PassHistCounts:     "hist",
	shard.PassHistIDs:        "hist",
	shard.PassGramCodes:      "gram-codes",
}

// tracedExecutor times every pass the distributed coordinator runs and the
// time spent inside the engine's fold callback; a pass's self time is then
// the wait for workers.
type tracedExecutor struct {
	exec shard.Executor
	rec  *recorder
}

func (t *tracedExecutor) Open(ctx context.Context, names []string, task core.Task, sketchSize int) error {
	start := time.Now()
	err := t.exec.Open(ctx, names, task, sketchSize)
	t.rec.leaf("dist.open", -1, start)
	return err
}

func (t *tracedExecutor) SetLive(ctx context.Context, epoch int, nodes []shard.NodeSpec, live []string) error {
	start := time.Now()
	err := t.exec.SetLive(ctx, epoch, nodes, live)
	t.rec.leaf("dist.setlive", -1, start)
	return err
}

func (t *tracedExecutor) RunPass(ctx context.Context, spec *shard.PassSpec, fold func(*shard.Partial) error) (shard.PassResult, error) {
	name := passNames[spec.Kind]
	pass := t.rec.begin("dist.pass." + name)
	start := time.Now()
	res, err := t.exec.RunPass(ctx, spec, func(p *shard.Partial) error {
		fs := time.Now()
		ferr := fold(p)
		t.rec.add("dist.fold_s", time.Since(fs).Seconds())
		t.rec.add("dist.partial_bytes", float64(partialBytes(p)))
		t.rec.leaf("dist.fold", pass, fs)
		return ferr
	})
	t.rec.end()
	t.rec.add("dist.pass_s."+name, time.Since(start).Seconds())
	t.rec.add("dist.retries", float64(res.Retries))
	return res, err
}

// partialBytes is the payload a partial carried over the wire.
func partialBytes(p *shard.Partial) int {
	n := 8*len(p.Labels) + 4*len(p.Ints)
	for _, b := range p.Blobs {
		n += len(b)
	}
	for _, c := range p.Codes {
		n += len(c)
	}
	return n
}

// tracedConn counts the coordinator end's traffic and the time its reader
// spent blocked in Recv.
type tracedConn struct {
	conn dist.Conn
	rec  *recorder
}

func (t *tracedConn) Send(msg []byte) error {
	t.rec.add("dist.send_bytes", float64(len(msg)))
	t.rec.add("dist.frames", 1)
	return t.conn.Send(msg)
}

func (t *tracedConn) Recv() ([]byte, error) {
	start := time.Now()
	msg, err := t.conn.Recv()
	if err == nil {
		t.rec.add("dist.recv_wait_s", time.Since(start).Seconds())
		t.rec.add("dist.recv_bytes", float64(len(msg)))
		t.rec.add("dist.frames", 1)
	}
	return msg, err
}

func (t *tracedConn) Close() error { return t.conn.Close() }
