package dist

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"net"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/frame"
	"repro/internal/shard"
	"repro/internal/sketch"
	"repro/internal/stats"
	"repro/internal/wire"
)

// totalAlloc returns the bytes allocated so far by this process.
func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// --- byte identity with the v1 encoder ---

// referenceFrame is the partial message as protocol version 1 first encoded
// it — with version 2's blobs — kept here as the layout's reference: every
// blob appended from nil by its family's codec, the message appended from nil
// field by field. It shares no code with AppendPartial or the Blob* methods
// it checks.
func referenceFrame(passID int, kind shard.PassKind, p *shard.Partial) []byte {
	var blobs [][]byte
	switch kind {
	case shard.PassBaseSketch:
		for i, q := range p.Quantiles {
			blobs = append(blobs, sketch.AppendQuantile(nil, q), p.Moments[i].AppendWire(nil))
		}
		blobs = append(blobs, p.Sample.AppendWire(nil))
	case shard.PassSketchGen:
		for i := range p.Counts {
			blobs = append(blobs, p.Counts[i].AppendWire(nil), p.Moments[i].AppendWire(nil))
		}
	case shard.PassRefine:
		for _, r := range p.Refiners {
			blobs = append(blobs, r.AppendWire(nil))
		}
		for _, g := range p.Gathers {
			blobs = append(blobs, g.AppendWire(nil))
		}
		for _, h := range p.Hists {
			switch h := h.(type) {
			case *sketch.LabelHist:
				blobs = append(blobs, h.AppendWire(nil))
			case *sketch.ClassHist:
				blobs = append(blobs, h.AppendWire(nil))
			}
		}
	case shard.PassGramCodes:
		blobs = [][]byte{sketch.AppendGram(nil, p.Gram)}
	}
	le := binary.LittleEndian
	b := []byte{msgPartial}
	for _, v := range []int{passID, p.Chunk, p.Start, p.Rows} {
		b = le.AppendUint64(b, uint64(v))
	}
	b = le.AppendUint32(b, uint32(len(p.Labels)))
	for _, v := range p.Labels {
		b = le.AppendUint64(b, math.Float64bits(v))
	}
	b = le.AppendUint32(b, uint32(len(blobs)))
	for _, blob := range blobs {
		b = le.AppendUint32(b, uint32(len(blob)))
		b = append(b, blob...)
	}
	b = le.AppendUint32(b, uint32(len(p.Ints)))
	for _, v := range p.Ints {
		b = le.AppendUint32(b, uint32(v))
	}
	b = le.AppendUint32(b, uint32(len(p.Codes)))
	for _, codes := range p.Codes {
		b = le.AppendUint32(b, uint32(len(codes)))
		b = append(b, codes...)
	}
	return b
}

// identityExec is an Executor that puts every partial of a fit through the
// worker's encoder and holds the frame to referenceFrame before folding what
// the coordinator's decoder makes of it. One frame buffer and one container
// serve the whole fit, the way a session and the pool reuse theirs.
type identityExec struct {
	t   *testing.T
	src frame.ChunkSource
	ws  *shard.WorkerState

	frame []byte
	m     partialMsg
	kinds map[shard.PassKind]int
}

func (e *identityExec) Open(_ context.Context, names []string, task core.Task, sketchSize int) error {
	e.ws = shard.NewWorkerState(names, task, sketchSize)
	e.kinds = map[shard.PassKind]int{}
	return nil
}

func (e *identityExec) SetLive(_ context.Context, epoch int, nodes []shard.NodeSpec, live []string) error {
	return e.ws.SetLive(epoch, nodes, live)
}

func (e *identityExec) RunPass(ctx context.Context, spec *shard.PassSpec, fold func(*shard.Partial) error) (shard.PassResult, error) {
	var res shard.PassResult
	if err := e.src.Reset(); err != nil {
		return res, err
	}
	for {
		c, err := e.src.Next()
		if errors.Is(err, io.EOF) {
			return res, nil
		}
		if err != nil {
			return res, err
		}
		p, err := e.ws.ComputePartial(ctx, spec, c)
		if err != nil {
			return res, err
		}
		e.frame = AppendPartial(e.frame[:0], spec.Pass, spec.Kind, p)
		if want := referenceFrame(spec.Pass, spec.Kind, p); !bytes.Equal(e.frame, want) {
			e.t.Errorf("pass kind %d partial %d: frame of %d bytes differs from the v1 reference of %d", spec.Kind, p.Chunk, len(e.frame), len(want))
		}
		if len(e.frame) != partialSize(spec.Kind, p) {
			e.t.Errorf("pass kind %d partial %d: partialSize says %d, frame has %d bytes", spec.Kind, p.Chunk, partialSize(spec.Kind, p), len(e.frame))
		}
		e.kinds[spec.Kind]++
		e.ws.Release(p)
		if err := decodePartial(e.frame, &e.m); err != nil {
			return res, err
		}
		if err := fold(&e.m.Partial); err != nil {
			return res, err
		}
		res.Rows += e.m.Partial.Rows
		res.Parts++
	}
}

// TestByteIdentityWithV1 pins that the pre-sized encoder changed where bytes
// are held and not one of the bytes: for every task family, every partial of
// every pass kind of a real fit frames exactly as the reference encoder
// frames it — v1's message around version 2's blobs — and the fit over those
// frames still selects what the local fit selects.
func TestByteIdentityWithV1(t *testing.T) {
	// Every kind a fit still streams; the score kinds and the count-task
	// histogram kind are retired, so none of their frames is sent any more.
	want := map[string][]shard.PassKind{
		"binary": {shard.PassBaseSketch, shard.PassCodes, shard.PassSketchGen,
			shard.PassRefine, shard.PassGramCodes},
		"multiclass3": {shard.PassBaseSketch, shard.PassCodes, shard.PassSketchGen,
			shard.PassRefine, shard.PassGramCodes},
		"regression": {shard.PassBaseSketch, shard.PassCodes, shard.PassSketchGen,
			shard.PassRefine, shard.PassHistIDs, shard.PassGramCodes},
	}
	for _, tc := range taskCases() {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			ds, err := datagen.Generate(datagen.Spec{
				Name: "identity", Train: 1200, Test: 16, Dim: 6, Interactions: 2, SignalScale: 2.5, Seed: 11,
				Target: tc.target, Classes: tc.classes,
			})
			if err != nil {
				t.Fatal(err)
			}
			cfg := core.DefaultConfig()
			cfg.Task = tc.task
			cfg.Seed = 1
			cfg.Workers = 1
			cfg.Miner.NumTrees, cfg.Ranker.NumTrees = 12, 12
			// A sketch far smaller than the partitions makes the summaries lossy,
			// so the refine passes really run and ship gathers.
			fit := func(exec shard.Executor) *core.Pipeline {
				p, _, _, err := shard.Fit(context.Background(), frame.NewFrameChunks(ds.Train, 300),
					shard.Config{Core: cfg, SketchSize: 128, Exec: exec})
				if err != nil {
					t.Fatal(err)
				}
				return p
			}
			exec := &identityExec{t: t, src: frame.NewFrameChunks(ds.Train, 300)}
			if got, local := fingerprint(fit(exec)), fingerprint(fit(nil)); got != local {
				t.Fatalf("fit over the frames diverged from the local fit:\n got: %s\nwant: %s", got, local)
			}
			for _, kind := range want[tc.name] {
				if exec.kinds[kind] == 0 {
					t.Errorf("pass kind %d never framed", kind)
				}
			}
			if len(exec.kinds) != len(want[tc.name]) {
				t.Errorf("framed pass kinds %v, want exactly %v", exec.kinds, want[tc.name])
			}
		})
	}
}

// TestRetiredScorePasses is what a worker does with the two things a
// protocol-version-1 coordinator from before the score passes were retired
// could still send it. A runPass naming one of their kinds parses — the kind
// is a byte like any other — and is answered with a passErr, the session
// staying up; a runPass carrying a combination list is a frame this version
// has no reader for, a *ProtocolError, and ends the session.
func TestRetiredScorePasses(t *testing.T) {
	tc := taskCases()[0]
	train := taskWorkload(t, 600, 6, tc)
	coord, worker := Pipe()
	defer coord.Close()
	served := make(chan error, 1)
	go func() { served <- ServeConn(context.Background(), worker) }()
	roundTrip := func(msg []byte) []byte {
		t.Helper()
		if err := coord.Send(msg); err != nil {
			t.Fatal(err)
		}
		reply, err := coord.Recv()
		if err != nil {
			t.Fatal(err)
		}
		return reply
	}
	for _, msg := range [][]byte{
		encodeFitOpen(&fitOpen{Source: writeSource(t, train, SourceColstore, 300), Names: train.Names(), Task: tc.task}),
		encodeSetLive(&setLive{Epoch: 1, Live: train.Names()}),
	} {
		if a, err := decodeAck(roundTrip(msg)); err != nil || !a.OK {
			t.Fatalf("session set-up refused: %+v, %v", a, err)
		}
	}
	for _, kind := range []shard.PassKind{shard.PassScoreBinary, shard.PassScoreClasses, shard.PassScoreMomentIDs} {
		reply := roundTrip(encodeRunPass(&runPass{PassID: int(kind), Assign: assignment{Mod: 1},
			Spec: &shard.PassSpec{Pass: 3, Kind: kind, Epoch: 1}}))
		if msgType(reply) != msgPassErr {
			t.Fatalf("retired kind %d answered with message type %d, want a passErr", kind, msgType(reply))
		}
		if pe, err := decodePassErr(reply); err != nil || pe.PassID != int(kind) || pe.Transient || !strings.Contains(pe.Msg, "unknown pass kind") {
			t.Fatalf("retired kind %d: passErr %+v, %v", kind, pe, err)
		}
	}
	if err := coord.Send(readSeed(t, retiredScoreSeed)); err != nil {
		t.Fatal(err)
	}
	var pe *ProtocolError
	if err := <-served; !errors.As(err, &pe) {
		t.Fatalf("a runPass with a combination list ended the session with %v, want a *ProtocolError", err)
	}
}

// TestMalformedSetLiveIsRefused: a live set that is not a program — an input
// nothing provides, a live name nothing produces, a node defined twice — is
// refused when it arrives, with the reason, and the session carries on under
// the epoch it had: the next, well-formed epoch installs and computes. (Acked,
// such a frame used to take the worker down inside its next pass.)
func TestMalformedSetLiveIsRefused(t *testing.T) {
	tc := taskCases()[0]
	train := taskWorkload(t, 600, 6, tc)
	names := train.Names()
	coord, worker := Pipe()
	served := make(chan error, 1)
	go func() { served <- ServeConn(context.Background(), worker) }()
	roundTrip := func(msg []byte) []byte {
		t.Helper()
		if err := coord.Send(msg); err != nil {
			t.Fatal(err)
		}
		reply, err := coord.Recv()
		if err != nil {
			t.Fatal(err)
		}
		return reply
	}
	sum := shard.NodeSpec{Name: "s", Inputs: names[:2], Op: "add"}
	withSum := append(append([]string(nil), names...), "s")
	for _, msg := range [][]byte{
		encodeFitOpen(&fitOpen{Source: writeSource(t, train, SourceColstore, 300), Names: names, Task: tc.task}),
		encodeSetLive(&setLive{Epoch: 1, Live: names}),
	} {
		if a, err := decodeAck(roundTrip(msg)); err != nil || !a.OK {
			t.Fatalf("session set-up refused: %+v, %v", a, err)
		}
	}
	for what, m := range map[string]*setLive{
		`"ghost"`:   {Epoch: 2, Nodes: []shard.NodeSpec{{Name: "s", Inputs: []string{names[0], "ghost"}, Op: "add"}}, Live: withSum},
		`"phantom"`: {Epoch: 2, Nodes: []shard.NodeSpec{sum}, Live: []string{"phantom"}},
		`"s" (node`: {Epoch: 2, Nodes: []shard.NodeSpec{sum, sum}, Live: withSum},
	} {
		a, err := decodeAck(roundTrip(encodeSetLive(m)))
		if err != nil || a.Re != msgSetLive || a.Epoch != 2 {
			t.Fatalf("%s: reply %+v, %v; want the ack of setLive epoch 2", what, a, err)
		}
		if a.OK || !strings.Contains(a.Msg, what) {
			t.Fatalf("%s: ack %+v, want a refusal naming it", what, a)
		}
	}
	if a, err := decodeAck(roundTrip(encodeSetLive(&setLive{Epoch: 2, Nodes: []shard.NodeSpec{sum}, Live: withSum}))); err != nil || !a.OK {
		t.Fatalf("the well-formed epoch was refused after the malformed ones: %+v, %v", a, err)
	}
	cuts := make([][]float64, len(withSum))
	for i := range cuts {
		cuts[i] = []float64{0}
	}
	reply := roundTrip(encodeRunPass(&runPass{PassID: 9, Assign: assignment{Mod: 1},
		Spec: &shard.PassSpec{Pass: 2, Kind: shard.PassCodes, Epoch: 2, LiveCuts: cuts}}))
	rows := 0
	for msgType(reply) == msgPartial {
		var pm partialMsg
		if err := decodePartial(reply, &pm); err != nil {
			t.Fatal(err)
		}
		if len(pm.Partial.Codes) != len(withSum) {
			t.Fatalf("partial %d codes %d columns, want %d", pm.Partial.Chunk, len(pm.Partial.Codes), len(withSum))
		}
		rows += pm.Partial.Rows
		var err error
		if reply, err = coord.Recv(); err != nil {
			t.Fatal(err)
		}
	}
	if done, err := decodePassDone(reply); err != nil || done.PassID != 9 || rows != train.NumRows() {
		t.Fatalf("pass ended with message type %d (%+v, %v) after %d of %d rows", msgType(reply), done, err, rows, train.NumRows())
	}
	coord.Close()
	<-served
}

// --- steady-state allocation ---

// countPartial builds a partial shaped like the count pass's: n candidates'
// grid counts over a 65,536-row row group (64 rows a bucket) plus moments.
func countPartial(n int) *shard.Partial {
	const rows = 65536
	p := &shard.Partial{Chunk: 0, Rows: rows, Moments: make([]sketch.Moments, n), Counts: make([]shard.GridCounts, n)}
	col := make([]float64, rows)
	for i := 0; i < n; i++ {
		for r := range col {
			col[r] = float64(r*n + i)
		}
		p.Moments[i].AddAll(col)
		counts := make([]int32, stats.NumBuckets)
		for b := range counts {
			counts[b] = rows / stats.NumBuckets
		}
		p.Counts[i] = shard.GridCounts{Min: col[0], Max: col[rows-1], Counts: counts}
	}
	return p
}

// TestSteadyStateAlloc is the guard on the whole path a partial takes: frame
// (worker) → Send → Recv → decodePartial into a pooled container → Decode
// into the container's typed slices and a slab from the arena → the slab back
// to the arena, the container back to the pool. Once every buffer on that path
// has been sized by two warm-up rounds, a round may allocate only bookkeeping
// — under 5% of the bytes it moves.
func TestSteadyStateAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow allocations inflate TotalAlloc")
	}
	spec := &shard.PassSpec{Kind: shard.PassSketchGen}
	p := countPartial(64)
	coord, worker := Pipe()
	defer coord.Close()
	defer worker.Close()
	var (
		buf   []byte
		pool  partialPool
		arena = sketch.NewArena()
		sent  = make(chan error, 1)
	)
	round := func() {
		buf = AppendPartial(buf[:0], 1, spec.Kind, p)
		go func() { sent <- worker.Send(buf) }()
		msg, err := coord.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if err := <-sent; err != nil {
			t.Fatal(err)
		}
		m := pool.take()
		if err := decodePartial(msg, m); err != nil {
			t.Fatal(err)
		}
		if err := m.Partial.Decode(spec, arena); err != nil {
			t.Fatal(err)
		}
		if got := len(m.Partial.Counts); got != len(p.Counts) {
			t.Fatalf("decoded %d grid counts, want %d", got, len(p.Counts))
		}
		if !reflect.DeepEqual(m.Partial.Counts[63], p.Counts[63]) {
			t.Fatal("the grid counts did not survive the wire")
		}
		m.Partial.ReleaseCounts(arena) // what the count fold does once it has added them up
		pool.put(m)
	}
	round()
	round()
	const rounds = 5
	before := totalAlloc()
	for i := 0; i < rounds; i++ {
		round()
	}
	perRound := (totalAlloc() - before) / rounds
	if len(buf) < 64*stats.NumBuckets {
		t.Fatalf("frame of %d bytes is not count-pass sized", len(buf))
	}
	if limit := uint64(len(buf)) / 20; perRound >= limit {
		t.Fatalf("a steady-state round allocates %d bytes for a %d-byte frame (limit %d)", perRound, len(buf), limit)
	}
}

// --- the receive buffer ---

// TestRecvLyingPrefixAllocatesLittle is the trust-boundary pin on the length
// prefix: a peer that announces a 1 GiB frame and hangs up has sent four
// bytes, and gets a truncation error for them — not a gigabyte of this
// process's memory.
func TestRecvLyingPrefixAllocatesLittle(t *testing.T) {
	a, b := net.Pipe()
	conn := NewConn(a)
	defer conn.Close()
	go func() {
		_, _ = b.Write(binary.LittleEndian.AppendUint32(nil, maxFramePayload))
		b.Close()
	}()
	before := totalAlloc()
	_, err := conn.Recv()
	spent := totalAlloc() - before
	var fe *FrameError
	if !errors.Is(err, io.ErrUnexpectedEOF) && !errors.As(err, &fe) {
		t.Fatalf("1 GiB prefix then EOF: %v, want io.ErrUnexpectedEOF or a FrameError", err)
	}
	if spent >= 4<<20 {
		t.Fatalf("a lying length prefix made Recv allocate %d bytes", spent)
	}
}

// TestRecvBufferLifecycle pins the three things the kept buffer does: a frame
// far beyond one growth step arrives intact through the bounded steps,
// like-sized frames after it land in the same memory, and a small frame
// after a big one lets the big buffer go instead of pinning it per connection.
func TestRecvBufferLifecycle(t *testing.T) {
	coord, worker := Pipe()
	defer coord.Close()
	defer worker.Close()
	big := make([]byte, 20*recvStep+17)
	for i := range big {
		big[i] = byte(i * 7)
	}
	big[0] = msgPartial
	small := encodePassDone(&passDone{PassID: 1})
	go func() {
		for _, msg := range [][]byte{big, big, small} {
			if err := worker.Send(msg); err != nil {
				return
			}
		}
	}()
	sc := coord.(*streamConn)
	first, err := coord.Recv()
	if err != nil || !bytes.Equal(first, big) {
		t.Fatalf("big frame: err %v, intact %v", err, bytes.Equal(first, big))
	}
	second, err := coord.Recv()
	if err != nil || !bytes.Equal(second, big) {
		t.Fatalf("second big frame: err %v, intact %v", err, bytes.Equal(second, big))
	}
	if &first[0] != &second[0] {
		t.Fatal("a like-sized frame did not reuse the receive buffer")
	}
	got, err := coord.Recv()
	if err != nil || !bytes.Equal(got, small) {
		t.Fatalf("small frame: err %v, intact %v", err, bytes.Equal(got, small))
	}
	if cap(sc.rbuf) > recvStep {
		t.Fatalf("receive buffer still holds %d bytes after a %d-byte frame", cap(sc.rbuf), len(small))
	}
}

// --- reuse safety under chaos ---

// TestChaosFramesSurviveBufferReuse drives distinct partials through a
// connection whose buffer every Recv overwrites, with drops (the frame is held
// back and redelivered by the retry) and duplicates (redelivered after the
// original) injected, decoding each arrival into a pooled container the way
// the coordinator's reader does and keeping it the way the pending map does.
// Every delivery — first, retried or duplicate — must still read as the
// partial that was sent once all later frames have gone through the buffer.
func TestChaosFramesSurviveBufferReuse(t *testing.T) {
	const n = 40
	type sent struct {
		p     *shard.Partial
		blobs [][]byte
	}
	var all []sent
	for i := 0; i < n; i++ {
		// Sizes differ, so a later frame overwrites an earlier one only in part.
		col := make([]float64, 20+37*(i%7))
		for r := range col {
			col[r] = float64(i*1000 + r)
		}
		p, blobs := sketchPartial(i, col)
		all = append(all, sent{p, blobs})
	}
	coordEnd, worker := Pipe()
	coord := Chaos(coordEnd, ChaosPlan{Seed: 5, DropRate: 0.25, DupRate: 0.25})
	defer coord.Close()
	defer worker.Close()
	go func() {
		var buf []byte
		for _, s := range all {
			buf = AppendPartial(buf[:0], 1, shard.PassBaseSketch, s.p)
			if err := worker.Send(buf); err != nil {
				return
			}
		}
		_ = worker.Send(encodePassDone(&passDone{PassID: 1, Chunks: n}))
	}()
	var (
		pool       partialPool
		held       []*partialMsg
		deliveries = map[int]int{}
		drops      int
	)
	for {
		msg, err := coord.Recv()
		if err != nil {
			if !frame.IsTransient(err) {
				t.Fatal(err)
			}
			drops++
			continue
		}
		if msgType(msg) == msgPassDone {
			break
		}
		m := pool.take()
		if err := decodePartial(msg, m); err != nil {
			t.Fatal(err)
		}
		held = append(held, m)
		deliveries[m.Partial.Chunk]++
	}
	dups := 0
	for _, m := range held {
		want := all[m.Partial.Chunk]
		if !samePlain(want.p, &m.Partial) || !reflect.DeepEqual(m.Partial.Blobs, want.blobs) {
			t.Fatalf("partial %d no longer reads as sent after later frames reused the buffer", m.Partial.Chunk)
		}
	}
	for i := 0; i < n; i++ {
		if deliveries[i] == 0 {
			t.Fatalf("partial %d never arrived", i)
		}
		dups += deliveries[i] - 1
	}
	if drops == 0 || dups == 0 {
		t.Fatalf("chaos plan injected %d drops and %d duplicates; both paths must run", drops, dups)
	}
}

// --- the container pool ---

// TestPartialPoolIsASoftCap pins the two properties the coordinator leans
// on: take never waits (a reader that could block on a quota deadlocks the
// fold under reassignment), and what put keeps is bounded.
func TestPartialPoolIsASoftCap(t *testing.T) {
	var pool partialPool
	var taken []*partialMsg
	for i := 0; i < 3*maxPooledPartials; i++ {
		taken = append(taken, pool.take())
	}
	for _, m := range taken {
		pool.put(m)
	}
	if len(pool.free) != maxPooledPartials {
		t.Fatalf("pool keeps %d idle containers, want %d", len(pool.free), maxPooledPartials)
	}
	if m := pool.take(); m != taken[maxPooledPartials-1] {
		t.Fatal("take did not hand back a pooled container")
	}
	pool.drop()
	if len(pool.free) != 0 {
		t.Fatalf("drop left %d containers", len(pool.free))
	}
}

// TestDecodeCountGuard pins the count bound: an element count is checked
// against the remaining bytes divided by the smallest encoding of one
// element, so a count the payload cannot back is refused before the slice of
// headers it would size — 24 bytes a blob, 16 a string — is allocated.
func TestDecodeCountGuard(t *testing.T) {
	const n = 1 << 20
	hdr := wire.AppendU8(nil, msgPartial)
	for i := 0; i < 4; i++ {
		hdr = wire.AppendI64(hdr, 0)
	}
	hdr = wire.AppendU32(hdr, 0) // no labels
	hdr = wire.AppendU32(hdr, n) // n blobs, backed by n bytes: a quarter of what n lengths need
	msg := append(hdr, make([]byte, n)...)
	before := totalAlloc()
	err := decodePartial(msg, &partialMsg{})
	spent := totalAlloc() - before
	var pe *ProtocolError
	if !errors.As(err, &pe) {
		t.Fatalf("blob count beyond the payload: %v", err)
	}
	if spent > 4*uint64(len(msg)) {
		t.Fatalf("a %d-byte frame made decodePartial allocate %d bytes", len(msg), spent)
	}
}
