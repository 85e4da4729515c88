package dist

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/frame"
	"repro/internal/shard"
	"repro/internal/sketch"
	"repro/internal/stats"
	"repro/internal/wire/wiretest"
)

// distSeedFrames builds one real message of every kind — a partial of each
// pass kind whose blobs version 2 changed among them: the seed corpus
// FuzzDistDecode mutates from, and — checked in — the golden bytes of
// protocol version 2.
func distSeedFrames() map[string][]byte {
	p, _ := sketchPartial(1, []float64{3, 1, 4, 1, 5}, []float64{2, 7})
	counts := make([]int32, stats.NumBuckets)
	counts[3], counts[700] = 2, 1
	countP := &shard.Partial{Chunk: 2, Start: 600, Rows: 4, Moments: make([]sketch.Moments, 2),
		Counts: []shard.GridCounts{{Min: -1, Max: 9, Counts: counts}, {Min: 0, Max: 0}}}
	countP.Moments[0].AddAll([]float64{-1, 0.5, 9})
	countP.Moments[1].AddAll([]float64{0, 0, 0, 0})
	lh := sketch.NewLabelHist([]float64{0, 1})
	lh.AddCol([]float64{-1, 0.5, 2}, []float64{1, 0, 1})
	gatherP := &shard.Partial{Chunk: 3, Start: 900, Rows: 3,
		Gathers: []*shard.Gather{
			{Sizes: []int32{1, 0, 2}, Vals: []float64{-1, 8.5, 9}, Class: []int32{1, 0, 1}, Spans: []int32{0, 0, 1, 2, 0, 0}},
			{Sizes: []int32{3}, Vals: []float64{0, 0, 0}, Class: []int32{0, 1, 1}, Spans: []int32{0, 0, 0, 0}},
		},
		Hists: []sketch.CriterionHist{lh}}
	return map[string][]byte{
		"hello":    encodeHello(),
		"helloAck": encodeHelloAck(),
		"ack":      encodeAck(&ack{Re: msgSetLive, Epoch: 7, OK: true, Msg: "installed"}),
		"passDone": encodePassDone(&passDone{PassID: 9, Chunks: 4, Rows: 2000, Retries: 3}),
		"passErr":  encodePassErr(&passErr{PassID: 2, Chunk: 3, Attempts: 4, Transient: true, Msg: "read chunk: i/o timeout"}),
		"partial":  AppendPartial(nil, 3, shard.PassBaseSketch, p),
		// The two grid passes' partials, as v2 frames them.
		"partial-counts": AppendPartial(nil, 4, shard.PassSketchGen, countP),
		"partial-gather": AppendPartial(nil, 5, shard.PassRefine, gatherP),
		"runPass":        encodeRunPass(&runPass{PassID: 5, Assign: assignment{Explicit: []int{0, 5}}, Spec: fullPassSpec()}),
		"fitOpen": encodeFitOpen(&fitOpen{
			Source: SourceSpec{Kind: SourceCSV, Path: "/data/train.csv", Label: "label", ChunkRows: 512},
			Names:  []string{"f0", "f1", "f2"}, Task: core.MulticlassTask(3), SketchSize: 256,
		}),
		"setLive": encodeSetLive(&setLive{Epoch: 4,
			Nodes: []shard.NodeSpec{{Name: "f0*f1", Op: "mul", Inputs: []string{"f0", "f1"}}},
			Live:  []string{"f0", "f0*f1"}}),
	}
}

// The corpus entries no encoder here can write any more, checked in as the
// decoders' rejection cases: a binary score pass's runPass as a
// protocol-version-1 coordinator framed it, two combinations in its
// combination list; and a version-1 hello.
const (
	retiredScoreSeed = "runPass-score"
	helloV1Seed      = "hello-v1"
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
		m := &partialMsg{}
		if err = decodePartial(p, m); err == nil {
			decodeBlobs(&m.Partial)
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
// panic fails the target.
func decodeBlobs(p *shard.Partial) {
	n := len(p.Blobs)
	for _, spec := range []*shard.PassSpec{
		{Kind: shard.PassBaseSketch},
		{Kind: shard.PassSketchGen},
		{Kind: shard.PassRefine, Grids: make([]shard.GridSpec, n/2), Entries: make([]shard.EntrySpec, n-n/2)},
		{Kind: shard.PassRefine, Refines: make([]shard.RefineSpec, n)},
		{Kind: shard.PassGramCodes},
	} {
		q := *p
		q.Decode(spec, sketch.NewArena())
	}
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
	for _, name := range []string{retiredScoreSeed, helloV1Seed} {
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
// wiretest.Corpus.Check): the corpus is the record of protocol version 2, so
// every message's encoder must write its checked-in seed byte for byte —
// control messages included, which no fingerprint would notice — and the seed
// must decode, a partial's blobs through the fold's decoders too. The retired
// score frame must still be refused, and so must a version-1 hello, by the
// version check.
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
	if _, err := decodeMsg(readSeed(t, helloV1Seed)); !isProtocolError(err) || !strings.Contains(err.Error(), "version mismatch: peer 1, local 2") {
		t.Fatalf("a version-1 hello: %v, want a version-mismatch *ProtocolError", err)
	}
}
