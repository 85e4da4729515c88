package sketch

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/wire/wiretest"
)

// retiredMomentHistSeed is the corpus entry no encoder here can write any
// more: a MomentHist under family tag 5, as the removed codec wrote it (no fit
// ever sent one). It stays checked in as the decoders' rejection case.
const retiredMomentHistSeed = "momenthist"

// corpus is FuzzSketchDecode's checked-in seed corpus, the golden bytes of
// the wire format (regenerate with SKETCH_WRITE_CORPUS=1 go test
// ./internal/sketch -run TestWriteSketchDecodeSeedCorpus).
var corpus = wiretest.Corpus{Target: "FuzzSketchDecode", Env: "SKETCH_WRITE_CORPUS"}

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

	lh := NewLabelHist([]float64{-0.5, 0, 0.5})
	lh.AddCol([]float64{-1, 0, 1, math.NaN()}, []float64{1, 0, 1, 0})

	ch := NewClassHist([]float64{0, 1}, 3)
	ch.AddCol([]float64{-1, 0.5, 2, math.NaN()}, []float64{0, 1, 2, 1})

	g := NewGram(3)
	g.AddChunk([][]float64{{1, 2}, {3, math.NaN()}, {5, 6}})

	rf := NewRefiner(q, CutRanks(q.Count(), 5))
	sh := rf.Shadow()
	sh.AddChunk([]float64{0.1, -0.3, 2.5})

	return map[string][]byte{
		"quantile":  q.AppendWire(nil),
		"moments":   m.AppendWire(nil),
		"labelhist": lh.AppendWire(nil),
		"classhist": ch.AppendWire(nil),
		"gram":      g.AppendWire(nil),
		"refgather": sh.AppendWire(nil),
	}
}

// FuzzSketchDecode feeds arbitrary bytes to the wire decoders. The contract
// under fuzz: a corrupted frame either decodes to a structurally valid value
// (which must then survive being queried and merged) or fails with a typed
// *DecodeError — never a panic, never an unbounded allocation. It starts from
// the checked-in corpus (see corpus).
func FuzzSketchDecode(f *testing.F) {
	frames := wireSeedFrames()
	frames[retiredMomentHistSeed] = corpus.Read(f, retiredMomentHistSeed) // mutate around the rejection case too
	corpus.Seed(f, frames)
	f.Fuzz(func(t *testing.T, data []byte) {
		v, _, err := DecodeAny(data)
		if err != nil {
			var de *DecodeError
			if !errors.As(err, &de) {
				t.Fatalf("decode error %v (%T), want *DecodeError", err, err)
			}
			return
		}
		// A frame that decodes must behave: queries and merges may produce
		// garbage statistics from garbage counts, but never a panic.
		switch s := v.(type) {
		case *Quantile:
			s.Cuts(10)
			s.RankValue(0)
			fresh := NewQuantile(s.Size())
			fresh.AddAll([]float64{1})
			fresh.Merge(s)
			fresh.Cuts(4)
		case *Moments:
			acc := &Moments{}
			acc.AddAll([]float64{2})
			acc.Merge(s)
			acc.Variance()
		case *LabelHist:
			s.Criterion()
			if err := s.Merge(s.Shadow()); err != nil {
				t.Fatalf("merge own shadow: %v", err)
			}
		case *ClassHist:
			s.Criterion()
			if err := s.Merge(s.Shadow()); err != nil {
				t.Fatalf("merge own shadow: %v", err)
			}
		case *Gram:
			fresh := NewGram(s.K())
			fresh.Merge(s)
			if s.K() >= 2 {
				s.Dot(0, 1, 0, 1, 0, 1)
			}
		case *Refiner:
			nt := len(s.loEq) // a decoded gather carries accumulators only
			master := NewShadowRefiner(
				make([]int64, nt),
				make([]float64, nt),
				make([]float64, nt),
				make([]bool, nt))
			if err := master.MergeWire(s); err != nil {
				t.Fatalf("merge into a same-width master: %v", err)
			}
		default:
			t.Fatalf("unexpected decode type %T", v)
		}
	})
}

// TestWriteSketchDecodeSeedCorpus regenerates the checked-in seed corpus for
// FuzzSketchDecode when SKETCH_WRITE_CORPUS=1 is set. Otherwise the corpus is
// the golden record of wire format v1: every family's encoder must write its
// checked-in seed byte for byte, the seed must decode, and the retired
// MomentHist frame must be refused typed — by the self-describing decoder and
// by the one a hist-counts partial goes through.
func TestWriteSketchDecodeSeedCorpus(t *testing.T) {
	corpus.Check(t, wireSeedFrames(), func(seed []byte) error {
		if _, rest, err := DecodeAny(seed); err != nil || len(rest) != 0 {
			return fmt.Errorf("%v (%d bytes left)", err, len(rest))
		}
		return nil
	})
	retired := corpus.Read(t, retiredMomentHistSeed)
	var de *DecodeError
	if _, _, err := DecodeAny(retired); !errors.As(err, &de) {
		t.Fatalf("the retired MomentHist frame decoded: %v, want a *DecodeError", err)
	}
	if h, _, err := DecodeCountHist(retired); !errors.As(err, &de) || h != nil {
		t.Fatalf("the retired MomentHist frame decoded as a count histogram: %v, %v", h, err)
	}
}

// TestDecodeRejectsTruncationAndTrailing sweeps every prefix of every family's
// golden seed through its decoder, and hands each decoder its seed with a byte
// to spare: the family decoders do not own their buffer, so the byte comes
// back as the remainder.
func TestDecodeRejectsTruncationAndTrailing(t *testing.T) {
	seeds := map[string][]byte{}
	for name := range wireSeedFrames() {
		seeds[name] = corpus.Read(t, name)
	}
	wiretest.Sweep(t, seeds, false, func(b []byte) ([]byte, error) {
		_, rest, err := DecodeAny(b)
		return rest, err
	}, func(err error) bool {
		var de *DecodeError
		return errors.As(err, &de)
	})
}
