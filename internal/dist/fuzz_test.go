package dist

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/frame"
	"repro/internal/shard"
	"repro/internal/sketch"
	"repro/internal/stats"
	"repro/internal/wire"
	"repro/internal/wire/wiretest"
)

// distSeedFrames builds one real message of every kind — a partial of each
// pass kind whose blobs versions 2 to 5 changed among them: the seed corpus
// FuzzDistDecode mutates from, and — checked in — the golden bytes of
// protocol version 5.
func distSeedFrames() map[string][]byte {
	p, _ := basePartial(1, []float64{3, 1, 4, 1, 5}, []float64{2, 7})
	counts := make([]int32, stats.NumBuckets)
	counts[3], counts[700] = 3, 1
	countP := &shard.Partial{Chunk: 2, Start: 600, Rows: 4,
		Counts: []shard.GridCounts{{Min: -1, Max: 9, Counts: counts}, {Min: 0, Max: 0}}}
	// A Gram partial over a live survivor and a generated one, which carries
	// its moments.
	gramP := &shard.Partial{Chunk: 4, Start: 1200, Rows: 3, Codes: [][]uint8{nil, {0, 2, 1}},
		Gram: sketch.NewGram(2), Moments: make([]sketch.Moments, 1)}
	gramP.Gram.AddChunk([][]float64{{1, 2, 3}, {0.5, -1, 4}})
	gramP.Moments[0].AddAll([]float64{0.5, -1, 4})
	gatherP := &shard.Partial{Chunk: 3, Start: 900, Rows: 3,
		Gathers: []*shard.Gather{
			{Sizes: []int32{1, 0, 2}, Vals: []float64{-1, 8.5, 9}, Codes: []int64{1, 0, 1}, Spans: []int64{0, 0, 1, 2, 0, 0}},
			{Sizes: []int32{3}, Vals: []float64{0, 0, 0}, Codes: []int64{0, 1, 1}, Spans: []int64{0, 0, 0, 0}},
			{Spans: []int64{1, 2}}, // a constant column's: no cut bucket, one span
		}}
	// Gather partials as a steady stream of them varies: sizes that differ
	// from column to column, criterion buckets with their classes (three
	// classes' span counts in the second), and a point mass gathered whole —
	// one bucket of every value, most of them one value.
	mixedP := &shard.Partial{Chunk: 5, Start: 1500, Rows: 9,
		Gathers: []*shard.Gather{
			{Sizes: []int32{2, 0, 5, 1}, Vals: []float64{-3, -2.5, 0.25, 0.5, 0.5, 0.75, 1, 12},
				Codes: []int64{0, 1, 1, 0, 1}, Spans: []int64{1, 0, 0, 1, 2, 0}},
			{Sizes: []int32{1, 3}, Vals: []float64{math.Inf(-1), 7, 7.5, 8},
				Codes: []int64{2, 0, 1, 2}, Spans: []int64{1, 1, 0, 0, 0, 0, 2, 1, 0}},
			{Sizes: []int32{0}, Spans: []int64{4, 5}},
		}}
	massP := &shard.Partial{Chunk: 6, Start: 1800, Rows: 10,
		Gathers: []*shard.Gather{
			{Sizes: []int32{10}, Vals: []float64{0, 0, 3.5, 0, 0, 0, 0, -1, 0, 0},
				Codes: []int64{0, 1, 1, 0, 0, 1, 0, 0, 1, 0}, Spans: []int64{0, 0, 0, 0}},
			{Sizes: []int32{2, 1}, Vals: []float64{4, 4.25, 9}, Codes: []int64{1, 0}, Spans: []int64{3, 2, 0, 0, 2, 1}},
		}}
	// A regression gather: the members of criterion cut buckets carry their
	// target codes, negative ones too, and the spans (rows, Σq, Σq2).
	regP := &shard.Partial{Chunk: 7, Start: 2100, Rows: 8,
		Gathers: []*shard.Gather{
			{Sizes: []int32{2, 1}, Vals: []float64{-0.5, -0.25, 3}, Codes: []int64{-1 << 40, 3 << 38},
				Spans: []int64{3, -5 << 39, 1 << 50, 0, 0, 0, 2, 7 << 36, 1 << 45}},
			{Sizes: []int32{0}, Spans: []int64{8, -12, 1 << 20, 0, 0, 0}},
		}}
	return map[string][]byte{
		"hello":    encodeHello(),
		"helloAck": encodeHelloAck(),
		"ack":      encodeAck(&ack{Re: msgSetLive, Epoch: 7, OK: true, Msg: "installed"}),
		"passDone": encodePassDone(&passDone{PassID: 9, Chunks: 4, Rows: 2000, Retries: 3}),
		"passErr":  encodePassErr(&passErr{PassID: 2, Chunk: 3, Attempts: 4, Transient: true, Msg: "read chunk: i/o timeout"}),
		"partial":  AppendPartial(nil, 3, shard.PassBaseSketch, p),
		// The two grid passes' partials and the Gram pass's, as v5 frames them.
		"partial-counts":       AppendPartial(nil, 4, shard.PassSketchGen, countP),
		"partial-gather":       AppendPartial(nil, 5, shard.PassRefine, gatherP),
		"partial-gather-mixed": AppendPartial(nil, 5, shard.PassRefine, mixedP),
		"partial-gather-mass":  AppendPartial(nil, 5, shard.PassRefine, massP),
		"partial-gather-reg":   AppendPartial(nil, 5, shard.PassRefine, regP),
		"partial-gram":         AppendPartial(nil, 6, shard.PassGramCodes, gramP),
		"runPass":              encodeRunPass(&runPass{PassID: 5, Assign: assignment{Explicit: []int{0, 5}}, Spec: fullPassSpec()}),
		"fitOpen": encodeFitOpen(&fitOpen{
			Source: SourceSpec{Kind: SourceCSV, Path: "/data/train.csv", Label: "label", ChunkRows: 512},
			Names:  []string{"f0", "f1", "f2"}, Task: core.MulticlassTask(3),
		}),
		"setLive": encodeSetLive(&setLive{Epoch: 4,
			Nodes: []shard.NodeSpec{{Name: "f0*f1", Op: "mul", Inputs: []string{"f0", "f1"}}},
			Live:  []string{"f0", "f0*f1"}}),
	}
}

// The corpus entries no encoder here can write any more, checked in as the
// decoders' rejection cases: a binary score pass's runPass as a
// protocol-version-1 coordinator framed it, two combinations in its
// combination list; and a hello of each version before 5.
const (
	retiredScoreSeed = "runPass-score"
	helloV1Seed      = "hello-v1"
	helloV2Seed      = "hello-v2"
	helloV3Seed      = "hello-v3"
	helloV4Seed      = "hello-v4"
)

// corpus is FuzzDistDecode's checked-in seed corpus, the golden bytes of the
// protocol (regenerate with DIST_WRITE_CORPUS=1 go test ./internal/dist -run
// TestWriteDistDecodeSeedCorpus, and only alongside a Version bump).
var corpus = wiretest.Corpus{Target: "FuzzDistDecode", Env: "DIST_WRITE_CORPUS"}

// readSeed returns the message inside a checked-in FuzzDistDecode seed.
func readSeed(t testing.TB, name string) []byte {
	t.Helper()
	return corpus.Read(t, name)
}

// driveSpec hands a decoded pass spec to the kernel over one small chunk, as
// handleRunPass does with whatever a coordinator sent. The spec's epoch is
// installed first so the kernel gets as far as the spec's contents.
func driveSpec(spec *shard.PassSpec) {
	names := []string{"f0", "f1", "f2"}
	ws := shard.NewWorkerState(names, core.BinaryTask())
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
		m := &partialMsg{}
		if err = decodePartial(p, m); err == nil {
			err = decodeBlobs(&m.Partial)
		}
	case msgPassDone:
		_, err = decodePassDone(p)
	case msgPassErr:
		_, err = decodePassErr(p)
	default:
		err = protoErr("unknown type %d", msgType(p))
	}
	return spec, err
}

// decodeBlobs puts a partial's blobs through Partial.Decode as each pass kind
// that ships blobs would, with a spec the blob count fits: the fold's typed
// decoders under fuzz too. Their errors are the fold's to report; only a
// panic fails the target — and a gather decode that fails with anything but
// ErrBlob, the error of a blob that does not parse: the gather pass decodes
// into memory reused across partitions, and is held to naming what it
// refused.
func decodeBlobs(p *shard.Partial) error {
	n := len(p.Blobs)
	for _, spec := range []*shard.PassSpec{
		{Kind: shard.PassBaseSketch},
		{Kind: shard.PassSketchGen},
		{Kind: shard.PassRefine, Grids: make([]shard.GridSpec, n)},
		{Kind: shard.PassGramCodes},
	} {
		q := *p
		arena := sketch.NewArena()
		err := q.Decode(spec, arena)
		if spec.Kind == shard.PassRefine {
			q.ReleaseGathers(arena)
			if err != nil && !errors.Is(err, shard.ErrBlob) {
				return fmt.Errorf("gather decode: %w, want an ErrBlob", err)
			}
		}
	}
	return nil
}

func isProtocolError(err error) bool {
	var pe *ProtocolError
	return errors.As(err, &pe)
}

// FuzzDistDecode feeds arbitrary bytes to the message decoders. The contract
// under fuzz: a message decodes or fails with a *ProtocolError — never a
// panic — and either way costs at most a small multiple of its own length in
// allocation, because every count is bounded by the bytes that remain divided
// by the smallest encoding of one element; a partial's blobs go through the
// fold's typed decoders under the same bound; and a pass spec that decodes
// goes through ComputePartial without a panic, whatever indices and arities
// it carries. It starts from the checked-in corpus (see corpus).
func FuzzDistDecode(f *testing.F) {
	frames := distSeedFrames()
	for _, name := range []string{retiredScoreSeed, helloV1Seed, helloV2Seed, helloV3Seed, helloV4Seed} {
		frames[name] = readSeed(f, name) // mutate around the rejection cases too
	}
	corpus.Seed(f, frames)
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

// TestWriteDistDecodeSeedCorpus is the corpus's golden test (see
// wiretest.Corpus.Check): the corpus is the record of protocol version 5, so
// every message's encoder must write its checked-in seed byte for byte —
// control messages included, which no fingerprint would notice — and the seed
// must decode, a partial's blobs through the fold's decoders too. The retired
// score frame must still be refused, and so must a hello of every earlier
// version, by the version check.
func TestWriteDistDecodeSeedCorpus(t *testing.T) {
	corpus.Check(t, distSeedFrames(), func(seed []byte) error {
		spec, err := decodeMsg(seed)
		if spec != nil {
			driveSpec(spec)
		}
		return err
	})
	if _, err := decodeMsg(readSeed(t, retiredScoreSeed)); !isProtocolError(err) {
		t.Fatalf("the retired score frame decoded: %v, want a *ProtocolError", err)
	}
	for v, name := range map[int]string{1: helloV1Seed, 2: helloV2Seed, 3: helloV3Seed, 4: helloV4Seed} {
		want := fmt.Sprintf("version mismatch: peer %d, local %d", v, Version)
		if _, err := decodeMsg(readSeed(t, name)); !isProtocolError(err) || !strings.Contains(err.Error(), want) {
			t.Fatalf("a version-%d hello: %v, want a version-mismatch *ProtocolError", v, err)
		}
	}
}

// rawPartial frames blobs as a partial message of no rows, whatever they hold.
func rawPartial(blobs ...[]byte) []byte {
	b := wire.AppendU8(nil, msgPartial)
	for i := 0; i < 4; i++ {
		b = wire.AppendI64(b, 0)
	}
	b = wire.AppendU32(b, 0) // no labels
	b = wire.AppendU32(b, uint32(len(blobs)))
	for _, blob := range blobs {
		b = wire.AppendBytes(b, blob)
	}
	return wire.AppendU32(b, 0) // no code columns
}

// TestGatherDecodeRefusesMalformedBlobs is the gather decode's contract on
// memory that earlier partitions used: a malformed gather blob — a value run
// cut short, sizes that add up to more values than follow, bytes after the
// last span count, a regression blob's span sums cut short or run long — is
// refused with ErrBlob, before anything is taken from the arena, and within
// the fuzz target's allocation bound; a frame cut inside a blob is a
// *ProtocolError before any blob is decoded. The arena then decodes the next
// good partial exactly.
func TestGatherDecodeRefusesMalformedBlobs(t *testing.T) {
	good := &shard.Gather{Sizes: []int32{1, 2}, Vals: []float64{1, 2, 3}, Codes: []int64{0, 1}, Spans: []int64{1, 1, 0, 2}}
	blob := good.AppendWire(nil)
	reg := (&shard.Gather{Sizes: []int32{1}, Vals: []float64{2}, Codes: []int64{-3 << 40},
		Spans: []int64{4, -1 << 41, 1 << 44, 0, 0, 0}}).AppendWire(nil)
	varints := func(vs ...uint64) []byte {
		var b []byte
		for _, v := range vs {
			b = wire.AppendUvarint(b, v)
		}
		return b
	}
	f64s := func(vs ...float64) []byte {
		var b []byte
		for _, v := range vs {
			b = wire.AppendF64(b, v)
		}
		return b
	}
	spec := &shard.PassSpec{Kind: shard.PassRefine, Grids: make([]shard.GridSpec, 2)}
	arena := sketch.NewArena()
	decodeGood := func() {
		t.Helper()
		var m partialMsg
		if err := decodePartial(rawPartial(blob, blob), &m); err != nil {
			t.Fatal(err)
		}
		if err := m.Partial.Decode(spec, arena); err != nil {
			t.Fatal(err)
		}
		if !sameGathers(m.Partial.Gathers, []*shard.Gather{good, good}) {
			t.Fatalf("a good gather partial decoded as %+v", m.Partial.Gathers)
		}
		m.Partial.ReleaseGathers(arena)
	}
	decodeGood()
	for _, tc := range []struct {
		name string
		msg  []byte
	}{
		{"a truncated value run", rawPartial(blob, append(varints(1, 3), f64s(1, 2)...))},
		{"sizes past the values", rawPartial(blob, slices.Concat(varints(2, 2, 5), f64s(1, 2, 3, 4), varints(0, 0)))},
		{"sizes past the values, the classes read as values", rawPartial(blob,
			slices.Concat(varints(1, 2), f64s(1), varints(8, 0, 1, 0, 1, 0, 1, 0, 1), varints(0)))},
		{"trailing bytes", rawPartial(blob, append(append([]byte(nil), blob...), 0))},
		{"a size past MaxInt32", rawPartial(blob, slices.Concat(varints(1, 1<<31), f64s(1), varints(0, 0)))},
		{"span sums cut short", rawPartial(blob, reg[:len(reg)-4])},
		{"span sums past the blob's end", rawPartial(blob, append(append([]byte(nil), reg...), 1))},
		{"an overlong span sum", rawPartial(blob, slices.Concat(reg[:len(reg)-1], bytes.Repeat([]byte{0x80}, 10), []byte{1}))},
		{"a frame cut inside a blob", rawPartial(blob, blob)[:40]},
	} {
		before := totalAlloc()
		var m partialMsg
		err := decodePartial(tc.msg, &m)
		if err == nil {
			err = m.Partial.Decode(spec, arena)
		}
		spent := totalAlloc() - before
		if !errors.Is(err, shard.ErrBlob) && !isProtocolError(err) {
			t.Fatalf("%s: %v, want an ErrBlob or a *ProtocolError", tc.name, err)
		}
		if m.Partial.Gathers != nil {
			t.Fatalf("%s: the refused partial carries %d gathers", tc.name, len(m.Partial.Gathers))
		}
		if limit := 16*uint64(len(tc.msg)) + 8<<10; !raceEnabled && spent > limit {
			t.Fatalf("%s: a %d-byte frame made the decode allocate %d bytes (limit %d)", tc.name, len(tc.msg), spent, limit)
		}
		decodeGood()
	}
}
