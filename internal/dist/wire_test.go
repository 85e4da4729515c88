package dist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"net"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/shard"
	"repro/internal/sketch"
	"repro/internal/stats"
	"repro/internal/wire"
	"repro/internal/wire/wiretest"
)

// --- message codec round trips ---

func TestHelloRoundTrip(t *testing.T) {
	msg := encodeHello()
	if msgType(msg) != msgHello {
		t.Fatalf("hello encodes as type %d", msgType(msg))
	}
	if err := decodeHello(msg); err != nil {
		t.Fatalf("decode of a fresh hello: %v", err)
	}
	// Corrupt the magic: a stray client speaking length-prefixed frames must
	// be rejected before anything is interpreted.
	bad := append([]byte(nil), msg...)
	bad[1] ^= 0xFF
	var pe *ProtocolError
	if err := decodeHello(bad); !errors.As(err, &pe) {
		t.Fatalf("bad magic decoded: %v", err)
	}
	// Version skew is permanent: the fleet upgrades atomically.
	skew := append([]byte(nil), msg...)
	binary.LittleEndian.PutUint32(skew[len(skew)-4:], Version+1)
	if err := decodeHello(skew); !errors.As(err, &pe) {
		t.Fatalf("version skew decoded: %v", err)
	}

	ackMsg := encodeHelloAck()
	if err := decodeHelloAck(ackMsg); err != nil {
		t.Fatalf("decode of a fresh helloAck: %v", err)
	}
	skew = append([]byte(nil), ackMsg...)
	binary.LittleEndian.PutUint32(skew[1:], Version+9)
	if err := decodeHelloAck(skew); !errors.As(err, &pe) {
		t.Fatalf("helloAck version skew decoded: %v", err)
	}
}

func TestFitOpenRoundTrip(t *testing.T) {
	in := &fitOpen{
		Source: SourceSpec{Kind: SourceCSV, Path: "/data/train.csv", Label: "label", ChunkRows: 512},
		Names:  []string{"f0", "f1", "f2"},
		Task:   core.MulticlassTask(5),
		Retry:  shard.RetryPolicy{MaxAttempts: 4, BaseDelay: time.Millisecond, MaxDelay: 20 * time.Millisecond},
	}
	out, err := decodeFitOpen(encodeFitOpen(in))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("fitOpen round trip:\n got %+v\nwant %+v", out, in)
	}
}

func TestAckRoundTrip(t *testing.T) {
	for _, in := range []*ack{
		{Re: msgFitOpen, OK: true},
		{Re: msgSetLive, Epoch: 7, OK: true},
		{Re: msgSetLive, Epoch: 3, OK: false, Msg: "no fit open"},
	} {
		out, err := decodeAck(encodeAck(in))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(in, out) {
			t.Fatalf("ack round trip:\n got %+v\nwant %+v", out, in)
		}
	}
}

func TestSetLiveRoundTrip(t *testing.T) {
	in := &setLive{
		Epoch: 4,
		Nodes: []shard.NodeSpec{
			{Name: "f0*f1", Op: "mul", Inputs: []string{"f0", "f1"}},
			{Name: "log(f2)", Op: "log", Inputs: []string{"f2"}},
		},
		Live: []string{"f0", "f0*f1", "log(f2)"},
	}
	out, err := decodeSetLive(encodeSetLive(in))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("setLive round trip:\n got %+v\nwant %+v", out, in)
	}
}

// fullPassSpec populates every PassSpec field so the round trip covers the
// whole reified surface of the pass family.
func fullPassSpec() *shard.PassSpec {
	return &shard.PassSpec{
		Pass: 5, Kind: shard.PassRefine, Epoch: 2,
		LiveCuts: [][]float64{{0.5, 1.5, 2.5}, {-1, 1}},
		Grids: []shard.GridSpec{
			{Base: -1, Gen: shard.GenSpec{Op: "mul", Feats: []int{1, 3}}, Grid: stats.Grid{Lo: -2, Scale: 256},
				Buckets: []int{3, 700, 1023}, IV: []bool{true, false, true}},
			{Base: -1, Gen: shard.GenSpec{Op: "sub", Feats: []int{0, 2}}, Buckets: []int{0}, IV: []bool{true}},
			// A live column's: no recipe (an empty list decodes as one).
			{Base: 2, Gen: shard.GenSpec{Feats: []int{}}, Grid: stats.Grid{Lo: 0.5, Scale: 1024}, Buckets: []int{0, 9}, IV: []bool{false, true}},
		},
		Target: stats.TargetCode{Mean: -2.75, Scale: 47, Room: 48},
		Entries: []shard.EntrySpec{
			{Base: 1, Gen: shard.GenSpec{Op: "add", Feats: []int{0, 2}}, Cuts: []float64{0.25, 0.75}, NeedCodes: true},
		},
	}
}

func TestRunPassRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name   string
		assign assignment
	}{
		{"residue", assignment{Mod: 3, Residue: 1}},
		{"explicit", assignment{Explicit: []int{0, 5, 9}}},
		{"explicit-empty", assignment{Explicit: []int{}}},
	} {
		in := &runPass{PassID: 5, Assign: tc.assign, Spec: fullPassSpec()}
		msg := encodeRunPass(in)
		// Sized once, exactly: the encoder never grows its buffer.
		if len(msg) != runPassSize(in) || cap(msg) != len(msg) {
			t.Fatalf("%s: runPassSize %d, message of %d bytes in a buffer of %d", tc.name, runPassSize(in), len(msg), cap(msg))
		}
		out, err := decodeRunPass(msg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !reflect.DeepEqual(in, out) {
			t.Fatalf("%s: runPass round trip:\n got %+v\nwant %+v", tc.name, out, in)
		}
		// Explicit-vs-residue must survive the wire: a nil Explicit means the
		// residue class, a non-nil one (even empty) means exactly that list.
		if (out.Assign.Explicit == nil) != (tc.assign.Explicit == nil) {
			t.Fatalf("%s: Explicit nil-ness flipped on the wire", tc.name)
		}
	}
}

func TestAssignmentHas(t *testing.T) {
	residue := assignment{Mod: 3, Residue: 1}
	for idx, want := range map[int]bool{0: false, 1: true, 2: false, 4: true, 7: true} {
		if got := residue.has(idx); got != want {
			t.Fatalf("residue.has(%d) = %v, want %v", idx, got, want)
		}
	}
	explicit := assignment{Mod: 3, Residue: 1, Explicit: []int{0, 2}}
	for idx, want := range map[int]bool{0: true, 1: false, 2: true, 4: false} {
		if got := explicit.has(idx); got != want {
			t.Fatalf("explicit.has(%d) = %v, want %v", idx, got, want)
		}
	}
	var zero assignment
	if zero.has(0) {
		t.Fatal("zero assignment owns partition 0")
	}
}

// basePartial builds a base-sketch partial over cols (Codes set as well, so
// one partial covers every field of the message) and the blobs it must
// decode to.
func basePartial(chunk int, cols ...[]float64) (*shard.Partial, [][]byte) {
	p := &shard.Partial{
		Chunk: chunk, Start: 1000 * chunk, Rows: len(cols[0]),
		Labels:  make([]float64, len(cols[0])),
		Codes:   [][]uint8{{0, 1, 2}, {uint8(chunk)}},
		Moments: make([]sketch.Moments, len(cols)),
		Sample:  &shard.RowSample{Rows: []int{1000*chunk + 1}, Vals: make([][]float64, len(cols))},
	}
	for r := range p.Labels {
		p.Labels[r] = float64(r % 2)
	}
	var blobs [][]byte
	for i, col := range cols {
		p.Moments[i].AddAll(col)
		p.Sample.Vals[i] = []float64{col[1]}
		blobs = append(blobs, p.Moments[i].AppendWire(nil))
	}
	return p, append(blobs, p.Sample.AppendWire(nil))
}

// samePlain compares what a partial carries on the wire outside its blobs.
func samePlain(a, b *shard.Partial) bool {
	return a.Chunk == b.Chunk && a.Start == b.Start && a.Rows == b.Rows &&
		reflect.DeepEqual(a.Labels, b.Labels) && reflect.DeepEqual(a.Codes, b.Codes)
}

func TestPartialRoundTrip(t *testing.T) {
	in, blobs := basePartial(2, []float64{3, 1, 4, 1, 5}, []float64{9, 2, 6})
	// Into a fresh container, then into the same one again: the second decode
	// reuses the first's backings and must not be able to tell.
	out := &partialMsg{}
	for round := 0; round < 2; round++ {
		if err := decodePartial(AppendPartial(nil, 3, shard.PassBaseSketch, in), out); err != nil {
			t.Fatal(err)
		}
		if out.PassID != 3 || !samePlain(in, &out.Partial) || !reflect.DeepEqual(out.Partial.Blobs, blobs) {
			t.Fatalf("partial round trip %d:\n got %+v\nwant %+v with blobs %v", round, out.Partial, in, blobs)
		}
		if len(out.Partial.Moments) != 0 || out.Partial.Sample != nil {
			t.Fatalf("round %d: a decoded partial carries a typed payload before the fold decodes one", round)
		}
		// What the fold does to a container before it is recycled.
		if err := out.Partial.Decode(&shard.PassSpec{Kind: shard.PassBaseSketch}, sketch.NewArena()); err != nil {
			t.Fatal(err)
		}
	}
}

func TestPassDoneRoundTrip(t *testing.T) {
	in := &passDone{PassID: 9, Chunks: 4, Rows: 2000, Retries: 3}
	out, err := decodePassDone(encodePassDone(in))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("passDone round trip:\n got %+v\nwant %+v", out, in)
	}
}

func TestPassErrRoundTrip(t *testing.T) {
	in := &passErr{PassID: 2, Chunk: 3, Attempts: 4, Transient: true, Msg: "read chunk: i/o timeout"}
	out, err := decodePassErr(encodePassErr(in))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("passErr round trip:\n got %+v\nwant %+v", out, in)
	}
}

// TestDecodeRejectsTruncationAndTrailing sweeps every prefix of every
// message's golden seed through its decoder: a payload cut anywhere must fail
// as a ProtocolError (never panic, never half-parse), and so must trailing
// garbage — a message decoder owns its whole frame.
func TestDecodeRejectsTruncationAndTrailing(t *testing.T) {
	seeds := map[string][]byte{}
	for name := range distSeedFrames() {
		seeds[name] = readSeed(t, name)
	}
	wiretest.Sweep(t, seeds, true, func(b []byte) ([]byte, error) {
		_, err := decodeMsg(b)
		return nil, err
	}, isProtocolError)
}

// patchFlagCount returns msg with the single-flag list at offset at — count 1,
// then the flag's byte — rewritten to hold count flags: no byte for 0, the
// byte and count-1 more for 2 and up. The rest of the message is left as it
// was, so nothing but the flag's count is wrong with the result.
func patchFlagCount(t *testing.T, msg []byte, at int, count uint32) []byte {
	t.Helper()
	out := append([]byte(nil), msg...)
	if binary.LittleEndian.Uint32(out[at:]) != 1 || out[at+4] > 1 {
		t.Fatalf("no flag at offset %d of % x", at, msg)
	}
	binary.LittleEndian.PutUint32(out[at:], count)
	if count == 0 {
		out = append(out[:at+4], out[at+5:]...) // an empty list carries no byte
	} else {
		out = append(out[:at+5], append(bytes.Repeat([]byte{1}, int(count)-1), out[at+5:]...)...)
	}
	return out
}

// TestFlagListsMustHoldOneFlag pins the strict flag decode: every boolean of
// the protocol travels as a list of one, and a frame whose list is empty or
// longer — well-formed in every other respect, so nothing else rejects it —
// is a *ProtocolError, not a false. Before, only ack checked; a runPass with a
// two-element hasExplicit list silently became a residue assignment.
func TestFlagListsMustHoldOneFlag(t *testing.T) {
	spec := fullPassSpec()
	runPassMsg := encodeRunPass(&runPass{PassID: 5, Assign: assignment{Explicit: []int{0, 5}}, Spec: spec})
	// runPass: type, pass id, mod, residue — then hasExplicit.
	hasExplicitAt := 1 + 3*8
	// The entry's NeedCodes is the last field of the last entry, and of the
	// message: a list of one flag, a count and a byte.
	needCodesAt := len(runPassMsg) - 5
	for _, tc := range []struct {
		name string
		msg  []byte
		at   int
	}{
		{"ack.OK", encodeAck(&ack{Re: msgSetLive, Epoch: 1, OK: true, Msg: "m"}), 1 + 1 + 8},
		{"runPass.hasExplicit", runPassMsg, hasExplicitAt},
		{"runPass.NeedCodes", runPassMsg, needCodesAt},
		{"passErr.Transient", encodePassErr(&passErr{PassID: 1, Chunk: 2, Attempts: 3, Transient: true, Msg: "m"}), 1 + 3*8},
	} {
		if _, err := decodeMsg(tc.msg); err != nil {
			t.Fatalf("%s: intact message rejected: %v", tc.name, err)
		}
		for _, count := range []uint32{0, 2} {
			if _, err := decodeMsg(patchFlagCount(t, tc.msg, tc.at, count)); !isProtocolError(err) {
				t.Fatalf("%s with %d flags: error %v (%T), want a *ProtocolError", tc.name, count, err, err)
			}
		}
	}
}

// TestDecodeLengthGuard pins the allocation guard: a corrupted element count
// far beyond the remaining payload must fail fast instead of driving a giant
// make().
func TestDecodeLengthGuard(t *testing.T) {
	b := wire.AppendU8(nil, msgPartial)
	b = wire.AppendI64(b, 1) // pass id
	b = wire.AppendI64(b, 0) // chunk
	b = wire.AppendI64(b, 0) // start
	b = wire.AppendI64(b, 8) // rows
	b = wire.AppendU32(b, 0xFFFFFFFF)
	if _, err := decodeMsg(b); !isProtocolError(err) {
		t.Fatalf("bogus 4G label count: %v", err)
	}
}

// --- framing ---

// TestFrameRoundTrip sends messages of several sizes across a framed pipe.
func TestFrameRoundTrip(t *testing.T) {
	coord, worker := Pipe()
	defer coord.Close()
	defer worker.Close()
	payloads := [][]byte{
		{msgShutdown},
		encodeHello(),
		append([]byte{msgPartial}, make([]byte, 1<<17)...), // spans the 64K buffers
	}
	go func() {
		for _, p := range payloads {
			if err := coord.Send(p); err != nil {
				return
			}
		}
	}()
	for i, want := range payloads {
		got, err := worker.Recv()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("frame %d corrupted in transit (%d bytes vs %d)", i, len(got), len(want))
		}
	}
}

func TestFrameRejectsEmptyMessage(t *testing.T) {
	coord, worker := Pipe()
	defer coord.Close()
	defer worker.Close()
	var fe *FrameError
	if err := coord.Send(nil); !errors.As(err, &fe) {
		t.Fatalf("empty send: %v", err)
	}
}

// rawFrame assembles [len | payload | crc] with an optional corrupted CRC.
func rawFrame(payload []byte, corruptCRC bool) []byte {
	out := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
	out = append(out, payload...)
	crc := crc32.Checksum(payload, castagnoli)
	if corruptCRC {
		crc ^= 0xDEADBEEF
	}
	return binary.LittleEndian.AppendUint32(out, crc)
}

// recvRaw writes raw bytes into one end of a pipe and returns what a framed
// Conn on the other end makes of them.
func recvRaw(t *testing.T, raw []byte) error {
	t.Helper()
	a, b := net.Pipe()
	conn := NewConn(a)
	defer conn.Close()
	defer b.Close()
	go func() { _, _ = b.Write(raw) }()
	_, err := conn.Recv()
	return err
}

// TestFrameRejectsCorruption pins the CRC and length guards: a flipped
// checksum, a zero length, and a length beyond the frame cap are all
// permanent FrameErrors — a stream that framed wrong cannot be trusted.
func TestFrameRejectsCorruption(t *testing.T) {
	var fe *FrameError
	if err := recvRaw(t, rawFrame([]byte{msgShutdown, 1, 2}, true)); !errors.As(err, &fe) {
		t.Fatalf("corrupted CRC: %v", err)
	}
	if err := recvRaw(t, binary.LittleEndian.AppendUint32(nil, 0)); !errors.As(err, &fe) {
		t.Fatalf("zero-length frame: %v", err)
	}
	huge := binary.LittleEndian.AppendUint32(nil, maxFramePayload+1)
	if err := recvRaw(t, huge); !errors.As(err, &fe) {
		t.Fatalf("oversized length prefix: %v", err)
	}
	// An intact frame through the same path parses fine.
	a, b := net.Pipe()
	conn := NewConn(a)
	defer conn.Close()
	defer b.Close()
	go func() { _, _ = b.Write(rawFrame(encodeHello(), false)) }()
	msg, err := conn.Recv()
	if err != nil {
		t.Fatalf("intact raw frame: %v", err)
	}
	if err := decodeHello(msg); err != nil {
		t.Fatal(err)
	}
}
