package sketch

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"testing"
)

// wireSeedFrames builds one valid encoding per wire family, the seed corpus
// FuzzSketchDecode mutates from.
func wireSeedFrames() map[string][]byte {
	rng := rand.New(rand.NewSource(7))
	q := NewQuantile(16)
	for i := 0; i < 400; i++ {
		q.Add(rng.NormFloat64())
	}
	q.Add(math.NaN())

	m := &Moments{}
	m.AddAll([]float64{1, 2, math.NaN(), -4, 9})

	lh := NewLabelHist([]float64{-0.5, 0, 0.5})
	lh.AddCol([]float64{-1, 0, 1, math.NaN()}, []float64{1, 0, 1, 0})

	ch := NewClassHist([]float64{0, 1}, 3)
	ch.AddCol([]float64{-1, 0.5, 2, math.NaN()}, []float64{0, 1, 2, 1})

	mh := NewMomentHist([]float64{0})
	mh.AddCol([]float64{-1, 1, math.NaN()}, []float64{2, 3, 4})

	g := NewGram(3)
	g.AddChunk([][]float64{{1, 2}, {3, math.NaN()}, {5, 6}})

	rf := NewRefiner(q, CutRanks(q.Count(), 5))
	sh := rf.Shadow()
	sh.AddChunk([]float64{0.1, -0.3, 2.5})

	return map[string][]byte{
		"quantile":   AppendQuantile(nil, q),
		"moments":    AppendMoments(nil, m),
		"labelhist":  AppendLabelHist(nil, lh),
		"classhist":  AppendClassHist(nil, ch),
		"momenthist": AppendMomentHist(nil, mh),
		"gram":       AppendGram(nil, g),
		"refgather":  AppendRefinerGather(nil, sh),
	}
}

// FuzzSketchDecode feeds arbitrary bytes to the wire decoders. The contract
// under fuzz: a corrupted frame either decodes to a structurally valid value
// (which must then survive being queried and merged) or fails with a typed
// *DecodeError — never a panic, never an unbounded allocation. Corpus seeds
// live in testdata/fuzz/FuzzSketchDecode (regenerate with
// SKETCH_WRITE_CORPUS=1 go test ./internal/sketch -run TestWriteSketchDecodeSeedCorpus).
func FuzzSketchDecode(f *testing.F) {
	for _, frame := range wireSeedFrames() {
		f.Add(frame)
		if len(frame) > 8 {
			trunc := frame[:len(frame)/2]
			f.Add(append([]byte(nil), trunc...))
			flip := append([]byte(nil), frame...)
			flip[len(flip)/3] ^= 0x40
			f.Add(flip)
		}
	}
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
			fresh.Add(1)
			fresh.Merge(s)
			fresh.Cuts(4)
		case *Moments:
			acc := &Moments{}
			acc.Add(2)
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
		case *MomentHist:
			s.Criterion()
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
// FuzzSketchDecode when SKETCH_WRITE_CORPUS=1 is set; otherwise it verifies
// the corpus files exist and are valid frames, so corpus rot fails the build.
func TestWriteSketchDecodeSeedCorpus(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzSketchDecode")
	frames := wireSeedFrames()
	if os.Getenv("SKETCH_WRITE_CORPUS") == "1" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		for name, frame := range frames {
			body := fmt.Sprintf("go test fuzz v1\n[]byte(%s)\n", strconv.Quote(string(frame)))
			if err := os.WriteFile(filepath.Join(dir, "seed-"+name), []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		return
	}
	for name := range frames {
		p := filepath.Join(dir, "seed-"+name)
		body, err := os.ReadFile(p)
		if err != nil {
			t.Fatalf("missing seed corpus %s (regenerate with SKETCH_WRITE_CORPUS=1): %v", p, err)
		}
		var quoted string
		if _, err := fmt.Sscanf(string(body), "go test fuzz v1\n[]byte(%q)\n", &quoted); err != nil {
			t.Fatalf("seed corpus %s not in go fuzz v1 format: %v", p, err)
		}
		if _, _, err := DecodeAny([]byte(quoted)); err != nil {
			t.Fatalf("seed corpus %s no longer decodes: %v", p, err)
		}
	}
}
