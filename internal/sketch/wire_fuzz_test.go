package sketch

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/wire/wiretest"
)

// retiredSeeds are the corpus entries no encoder here writes any more: the
// frames of the LabelHist (family tag 3), ClassHist (4), MomentHist (5) and
// refiner-gather (7) codecs, which no fit sends. They stay checked in as
// the decoders' rejection cases.
var retiredSeeds = []string{"classhist", "labelhist", "momenthist", "refgather"}

// corpus is FuzzSketchDecode's checked-in seed corpus, the golden bytes of
// the wire format (regenerate with SKETCH_WRITE_CORPUS=1 go test
// ./internal/sketch -run TestWriteSketchDecodeSeedCorpus).
var corpus = wiretest.Corpus{Target: "FuzzSketchDecode", Env: "SKETCH_WRITE_CORPUS"}

// decoders are the wire decoders, by the corpus name of the family each reads.
var decoders = map[string]func([]byte) (any, []byte, error){
	"quantile": func(b []byte) (any, []byte, error) { return DecodeQuantile(b) },
	"moments":  func(b []byte) (any, []byte, error) { return DecodeMoments(b) },
	"gram":     func(b []byte) (any, []byte, error) { return DecodeGram(b) },
}

// wireSeedFrames builds one valid encoding per wire family: the seed corpus
// FuzzSketchDecode mutates from, and — checked in — the v1 golden bytes.
func wireSeedFrames() map[string][]byte {
	// 25 runs of 16 values and a NaN: the v1 seed was written by a per-value
	// path that summarised every 16 values as one lossless run, as AddAll does.
	rng := rand.New(rand.NewSource(7))
	q := NewQuantile(16)
	run := make([]float64, 16)
	for r := 0; r < 25; r++ {
		for i := range run {
			run[i] = rng.NormFloat64()
		}
		q.AddAll(run)
	}
	q.AddAll([]float64{math.NaN()})

	m := &Moments{}
	m.AddAll([]float64{1, 2, math.NaN(), -4, 9})

	g := NewGram(3)
	g.AddChunk([][]float64{{1, 2}, {3, math.NaN()}, {5, 6}})

	return map[string][]byte{
		"quantile": q.AppendWire(nil),
		"moments":  m.AppendWire(nil),
		"gram":     g.AppendWire(nil),
	}
}

// isDecodeError reports whether err is the decoders' typed failure.
func isDecodeError(err error) bool {
	var de *DecodeError
	return errors.As(err, &de)
}

// FuzzSketchDecode feeds arbitrary bytes to every wire decoder. The contract
// under fuzz: a corrupted frame either decodes to a structurally valid value
// (which must then survive being queried and merged) or fails with a typed
// *DecodeError — never a panic, never an unbounded allocation. It starts from
// the checked-in corpus (see corpus), the retired families' frames included.
func FuzzSketchDecode(f *testing.F) {
	frames := wireSeedFrames()
	for _, name := range retiredSeeds { // mutate around the rejection cases too
		frames[name] = corpus.Read(f, name)
	}
	corpus.Seed(f, frames)
	f.Fuzz(func(t *testing.T, data []byte) {
		for name, decode := range decoders {
			v, _, err := decode(data)
			if err != nil {
				if !isDecodeError(err) {
					t.Fatalf("%s: decode error %v (%T), want *DecodeError", name, err, err)
				}
				continue
			}
			// A frame that decodes must behave: queries and merges may produce
			// garbage statistics from garbage counts, but never a panic.
			switch s := v.(type) {
			case *Quantile:
				s.Cuts(10)
				fresh := NewQuantile(s.Size())
				fresh.AddAll([]float64{1})
				fresh.Merge(s)
				fresh.Cuts(4)
			case *Moments:
				acc := &Moments{}
				acc.AddAll([]float64{2})
				acc.Merge(s)
				acc.Variance()
			case *Gram:
				fresh := NewGram(s.K())
				fresh.Merge(s)
				if s.K() >= 2 {
					s.Dot(0, 1, 0, 1, 0, 1)
				}
			default:
				t.Fatalf("%s: unexpected decode type %T", name, v)
			}
		}
	})
}

// TestWriteSketchDecodeSeedCorpus regenerates the checked-in seed corpus for
// FuzzSketchDecode when SKETCH_WRITE_CORPUS=1 is set. Otherwise the corpus is
// the golden record of wire format v1: every family's encoder must write its
// checked-in seed byte for byte and its decoder must read the seed whole, and
// every decoder must refuse every retired family's frame typed.
func TestWriteSketchDecodeSeedCorpus(t *testing.T) {
	frames := wireSeedFrames()
	for name, frame := range frames {
		corpus.Check(t, map[string][]byte{name: frame}, func(seed []byte) error {
			if _, rest, err := decoders[name](seed); err != nil || len(rest) != 0 {
				return fmt.Errorf("%v (%d bytes left)", err, len(rest))
			}
			return nil
		})
	}
	for _, retired := range retiredSeeds {
		seed := corpus.Read(t, retired)
		for name, decode := range decoders {
			if _, _, err := decode(seed); !isDecodeError(err) {
				t.Fatalf("the retired %s frame decoded as %s: %v", retired, name, err)
			}
		}
	}
}

// TestDecodeRejectsTruncationAndTrailing sweeps every prefix of every family's
// golden seed through its decoder, and hands each decoder its seed with a byte
// to spare: the family decoders do not own their buffer, so the byte comes
// back as the remainder.
func TestDecodeRejectsTruncationAndTrailing(t *testing.T) {
	for name, decode := range decoders {
		seeds := map[string][]byte{name: corpus.Read(t, name)}
		wiretest.Sweep(t, seeds, false, func(b []byte) ([]byte, error) {
			_, rest, err := decode(b)
			return rest, err
		}, isDecodeError)
	}
}
