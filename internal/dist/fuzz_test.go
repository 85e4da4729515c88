package dist

import (
	"bytes"
	"context"
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/frame"
	"repro/internal/shard"
	"repro/internal/wire/wiretest"
)

// distSeedFrames builds one real message of every kind: the seed corpus
// FuzzDistDecode mutates from, and — checked in — the golden bytes of
// protocol version 1.
func distSeedFrames() map[string][]byte {
	p, _ := sketchPartial(1, []float64{3, 1, 4, 1, 5}, []float64{2, 7})
	return map[string][]byte{
		"hello":    encodeHello(),
		"helloAck": encodeHelloAck(),
		"ack":      encodeAck(&ack{Re: msgSetLive, Epoch: 7, OK: true, Msg: "installed"}),
		"passDone": encodePassDone(&passDone{PassID: 9, Chunks: 4, Rows: 2000, Retries: 3}),
		"passErr":  encodePassErr(&passErr{PassID: 2, Chunk: 3, Attempts: 4, Transient: true, Msg: "read chunk: i/o timeout"}),
		"partial":  AppendPartial(nil, 3, shard.PassBaseSketch, p),
		"runPass":  encodeRunPass(&runPass{PassID: 5, Assign: assignment{Explicit: []int{0, 5}}, Spec: fullPassSpec()}),
		"fitOpen": encodeFitOpen(&fitOpen{
			Source: SourceSpec{Kind: SourceCSV, Path: "/data/train.csv", Label: "label", ChunkRows: 512},
			Names:  []string{"f0", "f1", "f2"}, Task: core.MulticlassTask(3), SketchSize: 256,
		}),
		"setLive": encodeSetLive(&setLive{Epoch: 4,
			Nodes: []shard.NodeSpec{{Name: "f0*f1", Op: "mul", Inputs: []string{"f0", "f1"}}},
			Live:  []string{"f0", "f0*f1"}}),
	}
}

// retiredScoreSeed is the corpus entry no encoder here can write any more: a
// binary score pass's runPass as a protocol-version-1 coordinator framed it,
// two combinations in its combination list. It stays checked in as the
// decoder's rejection case.
const retiredScoreSeed = "runPass-score"

func seedPath(name string) string {
	return filepath.Join("testdata", "fuzz", "FuzzDistDecode", "seed-"+name)
}

// readSeed returns the message inside a checked-in FuzzDistDecode seed.
func readSeed(t testing.TB, name string) []byte {
	t.Helper()
	return wiretest.ReadSeed(t, seedPath(name))
}

// driveSpec hands a decoded pass spec to the kernel over one small chunk, as
// handleRunPass does with whatever a coordinator sent. The spec's epoch is
// installed first so the kernel gets as far as the spec's contents.
func driveSpec(spec *shard.PassSpec) {
	names := []string{"f0", "f1", "f2"}
	ws := shard.NewWorkerState(names, core.BinaryTask(), 16)
	if err := ws.SetLive(spec.Epoch, nil, names); err != nil {
		return
	}
	c := &frame.Chunk{Label: []float64{0, 1, 1, 0, 1, 0}, Cols: [][]float64{
		{1, 2, 3, 4, 5, 6}, {-1, 0, 1, 0, -1, math.NaN()}, {0.5, 0.5, 2, 2, 8, 8}}}
	if p, err := ws.ComputePartial(context.Background(), spec, c); err == nil {
		ws.Release(p)
	}
}

// decodeMsg routes a message to the decoder for its type byte, as the
// dispatch loops of the coordinator and the worker do. A runPass that decodes
// also returns its spec: that is what a worker then computes with, so callers
// drive it through the kernel (outside any allocation measurement).
func decodeMsg(p []byte) (spec *shard.PassSpec, err error) {
	switch msgType(p) {
	case msgHello:
		err = decodeHello(p)
	case msgHelloAck:
		err = decodeHelloAck(p)
	case msgFitOpen:
		_, err = decodeFitOpen(p)
	case msgAck:
		_, err = decodeAck(p)
	case msgSetLive:
		_, err = decodeSetLive(p)
	case msgRunPass:
		var m *runPass
		if m, err = decodeRunPass(p); err == nil {
			spec = m.Spec
		}
	case msgPartial:
		err = decodePartial(p, &partialMsg{})
	case msgPassDone:
		_, err = decodePassDone(p)
	case msgPassErr:
		_, err = decodePassErr(p)
	default:
		err = protoErr("unknown type %d", msgType(p))
	}
	return spec, err
}

func isProtocolError(err error) bool {
	var pe *ProtocolError
	return errors.As(err, &pe)
}

// FuzzDistDecode feeds arbitrary bytes to the message decoders. The contract
// under fuzz: a message decodes or fails with a *ProtocolError — never a
// panic — and either way costs at most a small multiple of its own length in
// allocation, because every count is bounded by the bytes that remain divided
// by the smallest encoding of one element; and a pass spec that decodes goes
// through ComputePartial without a panic, whatever indices and arities it
// carries. Corpus seeds live in testdata/fuzz/FuzzDistDecode (regenerate with
// DIST_WRITE_CORPUS=1 go test ./internal/dist -run TestWriteDistDecodeSeedCorpus).
func FuzzDistDecode(f *testing.F) {
	frames := distSeedFrames()
	frames[retiredScoreSeed] = readSeed(f, retiredScoreSeed) // mutate around the rejection case too
	for _, msg := range frames {
		f.Add(msg)
		f.Add(append([]byte(nil), msg[:len(msg)/2]...))
		flip := append([]byte(nil), msg...)
		flip[len(flip)/3] ^= 0x40
		f.Add(flip)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		before := totalAlloc()
		spec, err := decodeMsg(data)
		spent := totalAlloc() - before
		if err != nil && !isProtocolError(err) {
			t.Fatalf("decode error %v (%T), want *ProtocolError", err, err)
		}
		// The widest header is 24 bytes for an element of at least 4; the rest
		// is the payload's own bytes copied once, and a fixed allowance for the
		// decoded struct and the error.
		if limit := 16*uint64(len(data)) + 8<<10; spent > limit {
			t.Fatalf("a %d-byte message made its decoder allocate %d bytes (limit %d)", len(data), spent, limit)
		}
		if spec != nil {
			driveSpec(spec) // a partial or an error; a panic fails the target
		}
	})
}

// TestWriteDistDecodeSeedCorpus regenerates the checked-in seed corpus for
// FuzzDistDecode when DIST_WRITE_CORPUS=1 is set. Otherwise the corpus is the
// golden record of protocol version 1: every message's encoder must write its
// checked-in seed byte for byte — control messages included, which no
// fingerprint would notice — the seed must decode, and the retired score frame
// must still be refused.
func TestWriteDistDecodeSeedCorpus(t *testing.T) {
	frames := distSeedFrames()
	if os.Getenv("DIST_WRITE_CORPUS") == "1" {
		for name, msg := range frames {
			wiretest.WriteSeed(t, seedPath(name), msg)
		}
		return
	}
	for name, msg := range frames {
		seed := readSeed(t, name)
		if !bytes.Equal(seed, msg) {
			t.Fatalf("%s: the encoder writes %d bytes that differ from the %d checked in: the v1 layout moved", name, len(msg), len(seed))
		}
		spec, err := decodeMsg(seed)
		if err != nil {
			t.Fatalf("seed corpus %s no longer decodes: %v", name, err)
		}
		if spec != nil {
			driveSpec(spec)
		}
	}
	if _, err := decodeMsg(readSeed(t, retiredScoreSeed)); !isProtocolError(err) {
		t.Fatalf("the retired score frame decoded: %v, want a *ProtocolError", err)
	}
}
