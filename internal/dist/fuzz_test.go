package dist

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"repro/internal/core"
	"repro/internal/frame"
	"repro/internal/shard"
)

// distSeedFrames builds one real message of every kind whose decoder sizes
// allocations from counts a peer chose — the seed corpus FuzzDistDecode
// mutates from.
func distSeedFrames() map[string][]byte {
	p, _ := sketchPartial(1, []float64{3, 1, 4, 1, 5}, []float64{2, 7})
	return map[string][]byte{
		"partial": AppendPartial(nil, 3, shard.PassBaseSketch, p),
		"runPass": encodeRunPass(&runPass{PassID: 5, Assign: assignment{Explicit: []int{0, 5}}, Spec: fullPassSpec()}),
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

// readSeed returns the message inside a checked-in FuzzDistDecode seed.
func readSeed(t testing.TB, name string) []byte {
	t.Helper()
	p := filepath.Join("testdata", "fuzz", "FuzzDistDecode", "seed-"+name)
	body, err := os.ReadFile(p)
	if err != nil {
		t.Fatalf("missing seed corpus %s (regenerate with DIST_WRITE_CORPUS=1): %v", p, err)
	}
	var quoted string
	if _, err := fmt.Sscanf(string(body), "go test fuzz v1\n[]byte(%q)\n", &quoted); err != nil {
		t.Fatalf("seed corpus %s not in go fuzz v1 format: %v", p, err)
	}
	return []byte(quoted)
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

// decodeSized routes a message to the decoder for its type byte and reports
// whether it has one among the four under fuzz. A runPass that decodes also
// returns its spec: that is what a worker then computes with, so callers
// drive it through the kernel (outside any allocation measurement).
func decodeSized(data []byte) (known bool, spec *shard.PassSpec, err error) {
	switch msgType(data) {
	case msgPartial:
		return true, nil, decodePartial(data, &partialMsg{})
	case msgRunPass:
		m, err := decodeRunPass(data)
		if err != nil {
			return true, nil, err
		}
		return true, m.Spec, nil
	case msgFitOpen:
		_, err = decodeFitOpen(data)
		return true, nil, err
	case msgSetLive:
		_, err = decodeSetLive(data)
		return true, nil, err
	}
	return false, nil, nil
}

// FuzzDistDecode feeds arbitrary bytes to the message decoders that allocate
// by peer-chosen counts. The contract under fuzz: a message decodes or fails
// with a *ProtocolError — never a panic — and either way costs at most a
// small multiple of its own length in allocation, because every count is
// bounded by the bytes that remain divided by the smallest encoding of one
// element; and a pass spec that decodes goes through ComputePartial without a
// panic, whatever indices and arities it carries. Corpus seeds live in testdata/fuzz/FuzzDistDecode (regenerate with
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
		known, spec, err := decodeSized(data)
		spent := totalAlloc() - before
		if !known {
			return
		}
		var pe *ProtocolError
		if err != nil && !errors.As(err, &pe) {
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
// FuzzDistDecode when DIST_WRITE_CORPUS=1 is set; otherwise it verifies the
// corpus files exist and still decode — and that the retired score frame is
// still refused — so corpus rot fails the build.
func TestWriteDistDecodeSeedCorpus(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzDistDecode")
	frames := distSeedFrames()
	if os.Getenv("DIST_WRITE_CORPUS") == "1" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		for name, msg := range frames {
			body := fmt.Sprintf("go test fuzz v1\n[]byte(%s)\n", strconv.Quote(string(msg)))
			if err := os.WriteFile(filepath.Join(dir, "seed-"+name), []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		return
	}
	for name := range frames {
		known, spec, err := decodeSized(readSeed(t, name))
		if !known || err != nil {
			t.Fatalf("seed corpus %s no longer decodes: known=%v err=%v", name, known, err)
		}
		if spec != nil {
			driveSpec(spec)
		}
	}
	var pe *ProtocolError
	if known, _, err := decodeSized(readSeed(t, retiredScoreSeed)); !known || !errors.As(err, &pe) {
		t.Fatalf("the retired score frame decoded: known=%v err=%v, want a *ProtocolError", known, err)
	}
}
