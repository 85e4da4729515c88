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
	"slices"
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
// it — with version 5's blobs, and without the bin-id list version 5 dropped
// — kept here as the layout's reference: every blob appended from nil by its
// family's codec, the message appended from nil field by field. It shares no
// code with AppendPartial or the Blob* methods it checks.
func referenceFrame(passID int, kind shard.PassKind, p *shard.Partial) []byte {
	var blobs [][]byte
	switch kind {
	case shard.PassBaseSketch:
		for i := range p.Moments {
			blobs = append(blobs, p.Moments[i].AppendWire(nil))
		}
		blobs = append(blobs, p.Sample.AppendWire(nil))
	case shard.PassSketchGen:
		for i := range p.Counts {
			blobs = append(blobs, p.Counts[i].AppendWire(nil))
		}
	case shard.PassRefine:
		for _, g := range p.Gathers {
			blobs = append(blobs, g.AppendWire(nil))
		}
	case shard.PassGramCodes:
		blobs = [][]byte{sketch.AppendGram(nil, p.Gram)}
		for i := range p.Moments {
			blobs = append(blobs, p.Moments[i].AppendWire(nil))
		}
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

func (e *identityExec) Open(_ context.Context, names []string, task core.Task, _ int) error {
	e.ws = shard.NewWorkerState(names, task)
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
// frames it — v1's message around version 5's blobs — and the fit over those
// frames still selects what the local fit selects.
func TestByteIdentityWithV1(t *testing.T) {
	// Every kind a fit still streams; the score kinds and both histogram kinds
	// are retired, so none of their frames is sent any more.
	want := map[string][]shard.PassKind{
		"binary": {shard.PassBaseSketch, shard.PassCodes, shard.PassSketchGen,
			shard.PassRefine, shard.PassGramCodes},
		"multiclass3": {shard.PassBaseSketch, shard.PassCodes, shard.PassSketchGen,
			shard.PassRefine, shard.PassGramCodes},
		"regression": {shard.PassBaseSketch, shard.PassCodes, shard.PassSketchGen,
			shard.PassRefine, shard.PassGramCodes},
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
			fit := func(exec shard.Executor) *core.Pipeline {
				p, _, _, err := shard.Fit(context.Background(), frame.NewFrameChunks(ds.Train, 300),
					shard.Config{Core: cfg, Exec: exec})
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
// grid counts over a 65,536-row row group (64 rows a bucket).
func countPartial(n int) *shard.Partial {
	const rows = 65536
	p := &shard.Partial{Chunk: 0, Rows: rows, Counts: make([]shard.GridCounts, n)}
	col := make([]float64, rows)
	for i := 0; i < n; i++ {
		for r := range col {
			col[r] = float64(r*n + i)
		}
		counts := make([]int32, stats.NumBuckets)
		for b := range counts {
			counts[b] = rows / stats.NumBuckets
		}
		p.Counts[i] = shard.GridCounts{Min: col[0], Max: col[rows-1], Counts: counts}
	}
	return p
}

// gatherPartial builds a partial shaped like the gather pass's, for chunk:
// per candidate, two cut buckets holding size values together — the second a
// criterion bucket, with a class code per value, and three spans of binary class
// counts around it — and, every fourth candidate, a point mass gathered
// whole instead: one bucket of size copies of one value, all classed. Every
// value names its chunk, so that a gather read from a previous partition's
// memory shows.
func gatherPartial(chunk, n, size int) *shard.Partial {
	p := &shard.Partial{Chunk: chunk, Start: 1000 * chunk, Rows: 4 * size, Gathers: make([]*shard.Gather, n),
		Labels: []float64{}, Codes: [][]uint8{}} // as they decode: empty, not absent
	for i := range p.Gathers {
		g := &shard.Gather{Vals: make([]float64, size), Codes: make([]int64, size-size/3),
			Sizes: []int32{int32(size / 3), int32(size - size/3)}, Spans: []int64{3, 1, 4, 1, 5, 9}}
		if i%4 == 3 {
			g.Codes = make([]int64, size)
			g.Sizes, g.Spans = []int32{int32(size)}, []int64{2, 7, 1, 8}
		}
		for r := range g.Vals {
			g.Vals[r] = float64(chunk*1_000_000 + i*1000 + r)
			if i%4 == 3 {
				g.Vals[r] = float64(chunk)
			}
		}
		for r := range g.Codes {
			g.Codes[r] = int64((r + chunk) % 2)
		}
		p.Gathers[i] = g
	}
	return p
}

// sameGathers compares two gather lists value for value.
func sameGathers(a, b []*shard.Gather) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !slices.Equal(a[i].Sizes, b[i].Sizes) || !slices.Equal(a[i].Vals, b[i].Vals) ||
			!slices.Equal(a[i].Codes, b[i].Codes) || !slices.Equal(a[i].Spans, b[i].Spans) {
			return false
		}
	}
	return true
}

// TestSteadyStateAlloc is the guard on the whole path a partial takes: frame
// (worker) → Send → Recv → decodePartial into a pooled container, as views of
// the receive buffer → Decode into the container's typed slices and slabs
// from the arena → the fold's read → the slabs back to the arena, the
// container back to the pool. It runs for both grid passes: the count pass's
// counts and the gather pass's values, whose partitions differ a little in
// size from one to the next (the rounds alternate two). Once every buffer on
// that path has been sized by two warm-up rounds, a round may allocate only
// bookkeeping — under 5% of the bytes it moves.
func TestSteadyStateAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow allocations inflate TotalAlloc")
	}
	for _, tc := range []struct {
		name  string
		kind  shard.PassKind
		parts []*shard.Partial
		fold  func(t *testing.T, got, want *shard.Partial, arena *sketch.Arena)
	}{
		{"count", shard.PassSketchGen, []*shard.Partial{countPartial(64)},
			func(t *testing.T, got, want *shard.Partial, arena *sketch.Arena) {
				if len(got.Counts) != len(want.Counts) || !reflect.DeepEqual(got.Counts[63], want.Counts[63]) {
					t.Fatal("the grid counts did not survive the wire")
				}
				got.ReleaseCounts(arena) // what the count fold does once it has added them up
			}},
		{"gather", shard.PassRefine, []*shard.Partial{gatherPartial(0, 64, 2000), gatherPartial(1, 64, 2060)},
			func(t *testing.T, got, want *shard.Partial, arena *sketch.Arena) {
				if !sameGathers(got.Gathers, want.Gathers) {
					t.Fatalf("partial %d: the gathers did not survive the wire", want.Chunk)
				}
				got.ReleaseGathers(arena) // what the gather fold does once it has filed them
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spec := &shard.PassSpec{Kind: tc.kind}
			if tc.kind == shard.PassRefine {
				spec.Grids = make([]shard.GridSpec, len(tc.parts[0].Gathers))
			}
			coord, worker := Pipe()
			defer coord.Close()
			defer worker.Close()
			var (
				buf   []byte
				pool  partialPool
				arena = sketch.NewArena()
				sent  = make(chan error, 1)
				moved uint64
			)
			round := func(i int) {
				p := tc.parts[i%len(tc.parts)]
				buf = AppendPartial(buf[:0], 1, spec.Kind, p)
				moved += uint64(len(buf))
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
				tc.fold(t, &m.Partial, p, arena)
				pool.put(m)
			}
			round(0)
			round(1)
			const rounds = 6
			moved = 0
			before := totalAlloc()
			for i := 0; i < rounds; i++ {
				round(i)
			}
			spent := totalAlloc() - before
			t.Logf("%d rounds: %d bytes allocated for %d bytes of frames", rounds, spent, moved)
			if moved < rounds*64*stats.NumBuckets {
				t.Fatalf("%d rounds moved %d bytes: not pass-sized frames", rounds, moved)
			}
			if limit := moved / 20; spent >= limit {
				t.Fatalf("%d steady-state rounds allocate %d bytes for %d bytes of frames (limit %d)", rounds, spent, moved, limit)
			}
		})
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

// scribbleConn holds a coordinator to the letter of Conn's contract: the
// message a Recv returned is valid until the next Recv, and this connection
// overwrites it then.
type scribbleConn struct {
	Conn
	last []byte
}

func (s *scribbleConn) Recv() ([]byte, error) {
	for i := range s.last {
		s.last[i] = 0xa5
	}
	msg, err := s.Conn.Recv()
	s.last = msg
	return msg, err
}

// TestPartialsLetGoOfTheReceiveBuffer: the coordinator decodes a partial as
// views of its connection's receive buffer, and its reader must not receive
// again while anything still reads them — unless the partial was copied out
// to wait beyond a gap. Distributed fits over connections that scribble over
// every message at the next Recv, with delays and duplicates injected so that
// partials arrive out of order, must select what the local fit selects.
func TestPartialsLetGoOfTheReceiveBuffer(t *testing.T) {
	const rows, dim, parts = 2000, 8, 8
	for _, tc := range taskCases() {
		t.Run(tc.name, func(t *testing.T) {
			train := taskWorkload(t, rows, dim, tc)
			cfg := core.DefaultConfig()
			cfg.Task = tc.task
			cfg.Seed = 1
			want := localFingerprint(t, train, cfg, rows/parts)
			spec := writeSource(t, train, SourceColstore, rows/parts)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			fl := pipeFleet(t, ctx, 3)
			conns := make([]Conn, len(fl.conns))
			for i, c := range fl.conns {
				conns[i] = Chaos(&scribbleConn{Conn: c}, ChaosPlan{Seed: int64(i + 1), DelayRate: 0.5, DupRate: 0.2})
			}
			p, _ := distFit(t, ctx, spec, conns, cfg)
			cancel()
			fl.wait()
			if got := fingerprint(p); got != want {
				t.Fatalf("the fit over scribbled buffers selected\n%s\nwant\n%s", got, want)
			}
		})
	}
}

// --- reuse safety under chaos ---

// TestChaosFramesSurviveBufferReuse drives distinct partials — base partials
// and gather partials, of sizes that differ from one to the next — through a
// connection whose buffer every Recv overwrites, with drops (the frame is held
// back and redelivered by the retry) and duplicates (redelivered after the
// original) injected. Each arrival is decoded into a pooled container as views
// of the receive buffer, the way the coordinator's reader decodes it, and then
// either read at once, as a fold in order reads it before its reader receives
// again, or copied out and kept, the way a partial parked beyond a gap is.
// Every delivery — first, retried or duplicate — must read as the partial that
// was sent; a kept one still once all later frames have gone through the
// buffer. A gather partial is also decoded the way the fold decodes it, into
// arena slabs that the previous gather partial released: a reused backing
// must never show a previous partition's values.
func TestChaosFramesSurviveBufferReuse(t *testing.T) {
	const n = 40
	type sent struct {
		kind  shard.PassKind
		p     *shard.Partial
		blobs [][]byte
	}
	var all []sent
	for i := 0; i < n; i++ {
		// Sizes differ, so a later frame overwrites an earlier one only in part.
		if i%2 == 1 {
			p := gatherPartial(i, 3, 12+29*(i%5))
			var blobs [][]byte
			for _, g := range p.Gathers {
				blobs = append(blobs, g.AppendWire(nil))
			}
			all = append(all, sent{shard.PassRefine, p, blobs})
			continue
		}
		col := make([]float64, 20+37*(i%7))
		for r := range col {
			col[r] = float64(i*1000 + r)
		}
		p, blobs := basePartial(i, col)
		all = append(all, sent{shard.PassBaseSketch, p, blobs})
	}
	coordEnd, worker := Pipe()
	coord := Chaos(coordEnd, ChaosPlan{Seed: 5, DropRate: 0.25, DupRate: 0.25})
	defer coord.Close()
	defer worker.Close()
	go func() {
		var buf []byte
		for _, s := range all {
			buf = AppendPartial(buf[:0], 1, s.kind, s.p)
			if err := worker.Send(buf); err != nil {
				return
			}
		}
		_ = worker.Send(encodePassDone(&passDone{PassID: 1, Chunks: n}))
	}()
	var (
		pool       partialPool
		arena      = sketch.NewArena()
		kept       []*partialMsg
		deliveries = map[int]int{}
		drops      int
	)
	check := func(m *partialMsg) {
		t.Helper()
		want := all[m.Partial.Chunk]
		if !samePlain(want.p, &m.Partial) || !reflect.DeepEqual(m.Partial.Blobs, want.blobs) {
			t.Fatalf("partial %d does not read as sent", m.Partial.Chunk)
		}
		if want.kind != shard.PassRefine {
			return
		}
		q := m.Partial // the fold decodes a container's partial in place; this one is read again
		if err := q.Decode(&shard.PassSpec{Kind: shard.PassRefine, Grids: make([]shard.GridSpec, len(q.Blobs))}, arena); err != nil {
			t.Fatal(err)
		}
		if !sameGathers(q.Gathers, want.p.Gathers) {
			t.Fatalf("gather partial %d decoded into reused memory does not read as sent", m.Partial.Chunk)
		}
		q.ReleaseGathers(arena)
	}
	for i := 0; ; i++ {
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
		deliveries[m.Partial.Chunk]++
		if i%3 == 0 {
			m.keep()
			kept = append(kept, m)
			continue
		}
		check(m)
		pool.put(m)
	}
	for _, m := range kept {
		check(m)
	}
	dups := 0
	for i := 0; i < n; i++ {
		if deliveries[i] == 0 {
			t.Fatalf("partial %d never arrived", i)
		}
		dups += deliveries[i] - 1
	}
	if drops == 0 || dups == 0 || len(kept) == 0 {
		t.Fatalf("chaos plan injected %d drops and %d duplicates, and %d partials were kept; every path must run", drops, dups, len(kept))
	}
}

// --- the container pool ---

// TestPartialPoolIsASoftCap pins the three properties the coordinator leans
// on: take never waits (a reader that could block on a quota deadlocks the
// fold under reassignment), what put keeps is bounded, and put ends a
// received partial's hold on its connection's receive buffer — it wakes the
// waiting reader exactly once, whether the container is kept or dropped.
func TestPartialPoolIsASoftCap(t *testing.T) {
	var pool partialPool
	var taken []*partialMsg
	free := make(chan struct{}, 1)
	for i := 0; i < 3*maxPooledPartials; i++ {
		taken = append(taken, pool.take())
	}
	for _, m := range taken {
		m.free = free
		pool.put(m)
		select {
		case <-free:
		default:
			t.Fatal("put did not release the partial's reader")
		}
		if m.free != nil {
			t.Fatal("a released partial still holds its reader")
		}
	}
	if len(pool.free) != maxPooledPartials {
		t.Fatalf("pool keeps %d idle containers, want %d", len(pool.free), maxPooledPartials)
	}
	pool.put(taken[0]) // already released: nobody to wake
	if len(free) != 0 {
		t.Fatal("a second put woke the reader again")
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

// --- the whole fit ---

// fitAllocRatio is the most a distributed fit over a Pipe worker may
// allocate, as a multiple of the in-process executor's fit on the same rows
// (TestDistFitAllocWithinLocal). Both read ×1.27 on amd64 with the gathered
// values' memory reused at every hop; before that reuse, the same test read
// ×1.49 to ×1.58.
const fitAllocRatio = 1.35

// TestDistFitAllocWithinLocal pins what the wire path costs in allocation,
// end to end: a binary fit of 8,000 × 20 rows in four row groups, once
// through the in-process executor and once through a coordinator and a
// worker over a Pipe connection, both in this process, so that TotalAlloc
// counts both sides of the wire. The distributed fit may allocate at most
// fitAllocRatio times what the local one does. One worker sends the
// partitions in order, so none waits beyond a gap and is copied out of the
// receive buffer: the reading does not depend on which worker finishes
// first.
func TestDistFitAllocWithinLocal(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow allocations inflate TotalAlloc")
	}
	const rows, dim, parts = 8000, 20, 4
	tc := taskCases()[0]
	train := taskWorkload(t, rows, dim, tc)
	spec := writeSource(t, train, SourceColstore, rows/parts)
	cfg := core.DefaultConfig()
	cfg.Task = tc.task
	cfg.Seed = 1
	before := totalAlloc()
	local, _, _, err := shard.Fit(context.Background(), openLocal(t, spec), shard.Config{Core: cfg})
	if err != nil {
		t.Fatal(err)
	}
	localBytes := totalAlloc() - before
	ctx, cancel := context.WithCancel(context.Background())
	fl := pipeFleet(t, ctx, 1)
	before = totalAlloc()
	dist, _ := distFit(t, ctx, spec, fl.conns, cfg)
	distBytes := totalAlloc() - before
	cancel()
	fl.wait()
	if fingerprint(dist) != fingerprint(local) {
		t.Fatalf("the distributed fit selected %s, the local one %s", fingerprint(dist), fingerprint(local))
	}
	ratio := float64(distBytes) / float64(localBytes)
	t.Logf("distributed fit %.1f MB, local fit %.1f MB: ×%.2f", float64(distBytes)/(1<<20), float64(localBytes)/(1<<20), ratio)
	if ratio > fitAllocRatio {
		t.Fatalf("a distributed fit allocates ×%.2f the local fit's bytes (%d against %d), over the ×%.2f bound",
			ratio, distBytes, localBytes, fitAllocRatio)
	}
}
