package sketch

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// randomQuantile builds a sketch over n random values (some NaN), taken in
// runs of size values, so levels, errors and extrema are all populated.
func randomQuantile(rng *rand.Rand, size, n int) *Quantile {
	q := NewQuantile(size)
	vs := make([]float64, n)
	for i := range vs {
		if rng.Intn(17) == 0 {
			vs[i] = math.NaN()
			continue
		}
		vs[i] = rng.NormFloat64() * 10
	}
	for lo := 0; lo < n; lo += size {
		q.AddAll(vs[lo:min(lo+size, n)])
	}
	return q
}

func TestQuantileWireRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, n := range []int{0, 1, 50, 1000, 5000} {
		q := randomQuantile(rng, 64, n)
		dec, rest, err := DecodeQuantile(AppendQuantile(nil, q))
		if err != nil {
			t.Fatalf("n=%d: decode: %v", n, err)
		}
		if len(rest) != 0 {
			t.Fatalf("n=%d: %d unconsumed bytes", n, len(rest))
		}
		if dec.count != q.count || dec.nan != q.nan || dec.size != q.size {
			t.Fatalf("n=%d: counts differ: %+v vs %+v", n, dec, q)
		}
		if dec.min != q.min && !(math.IsInf(dec.min, 1) && math.IsInf(q.min, 1)) {
			t.Fatalf("n=%d: min %v vs %v", n, dec.min, q.min)
		}
		if !reflect.DeepEqual(dec.levels, q.levels) && !(len(dec.levels) == 0 && levelsEmpty(q.levels)) {
			t.Fatalf("n=%d: levels differ", n)
		}
		// The contract that matters downstream: merging the decoded partial
		// is bit-identical to merging the original.
		a, b := NewQuantile(64), NewQuantile(64)
		a.AddAll([]float64{3, 1, 4, 1, 5})
		b.AddAll([]float64{3, 1, 4, 1, 5})
		a.Merge(q)
		b.Merge(dec)
		ca, cb := a.Cuts(10), b.Cuts(10)
		if !reflect.DeepEqual(ca, cb) {
			t.Fatalf("n=%d: merged cuts differ: %v vs %v", n, ca, cb)
		}
		if a.ErrorBound() != b.ErrorBound() {
			t.Fatalf("n=%d: error bounds differ", n)
		}
	}
}

func levelsEmpty(levels [][]wpoint) bool {
	for _, l := range levels {
		if len(l) > 0 {
			return false
		}
	}
	return true
}

func TestMomentsWireRoundTrip(t *testing.T) {
	m := &Moments{}
	m.AddAll([]float64{1, 2, math.NaN(), 4, 8, -3})
	dec, rest, err := DecodeMoments(m.AppendWire(nil))
	if err != nil || len(rest) != 0 {
		t.Fatalf("decode: %v (rest %d)", err, len(rest))
	}
	if *dec != *m {
		t.Fatalf("round trip changed moments: %+v vs %+v", dec, m)
	}
}

func TestGramWireRoundTrip(t *testing.T) {
	g := NewGram(3)
	g.AddChunk([][]float64{
		{1, 2, math.NaN(), 4},
		{2, 1, 3, 0},
		{0, math.NaN(), 1, 2},
	})
	dec, rest, err := DecodeGram(AppendGram(nil, g))
	if err != nil || len(rest) != 0 {
		t.Fatalf("decode: %v (rest %d)", err, len(rest))
	}
	if dec.k != g.k || dec.rows != g.rows ||
		!reflect.DeepEqual(dec.sxy, g.sxy) || !reflect.DeepEqual(dec.sx, g.sx) ||
		!reflect.DeepEqual(dec.sy, g.sy) || !reflect.DeepEqual(dec.cnt, g.cnt) {
		t.Fatalf("round trip changed gram")
	}
}

// TestDecodeCorruptedTyped pins the failure mode for frames that are whole but
// wrong: a typed *DecodeError, never a panic and never silent success when
// an invariant is broken. (Truncation is TestDecodeRejectsTruncationAndTrailing.)
func TestDecodeCorruptedTyped(t *testing.T) {
	q := randomQuantile(rand.New(rand.NewSource(5)), 32, 500)
	enc := AppendQuantile(nil, q)
	// Flip the count so level weights no longer sum to it.
	bad := append([]byte(nil), enc...)
	bad[5] ^= 0xff
	for name, b := range map[string][]byte{
		"wrong tag":  append([]byte{wireGram}, enc[1:]...),
		"count flip": bad,
	} {
		_, _, err := DecodeQuantile(b)
		var de *DecodeError
		if !errors.As(err, &de) {
			t.Fatalf("%s: error %v (%T), want *DecodeError", name, err, err)
		}
	}
}

// TestWireSizesExact pins every *WireSize against the encoder it sizes: an
// encoder that reserves by these writes each byte once, into room that was
// there.
func TestWireSizesExact(t *testing.T) {
	m := &Moments{}
	m.AddAll([]float64{1, 2, math.NaN()})
	if got, want := m.WireSize(), len(m.AppendWire(nil)); got != want {
		t.Fatalf("moments: size %d, encodes to %d", got, want)
	}
	for _, k := range []int{0, 1, 2, 5} {
		g := NewGram(k)
		if got, want := g.WireSize(), len(g.AppendWire(nil)); got != want {
			t.Fatalf("gram k=%d: size %d, encodes to %d", k, got, want)
		}
	}
}

// TestArenaDecodeRecycles pins the coordinator's decode path: a Gram partial
// decoded from the arena comes back out of it once returned, equal to its
// source, and a width the input cannot back is refused before it sizes
// anything.
func TestArenaDecodeRecycles(t *testing.T) {
	a := NewArena()
	g := NewGram(4)
	g.AddChunk([][]float64{{1, 2, 3}, {2, 1, math.NaN()}, {0, 5, 1}, {4, 4, 2}})
	enc := AppendGram(nil, g)
	first, _, err := a.DecodeGram(enc)
	if err != nil {
		t.Fatal(err)
	}
	a.PutGram(first)
	second, _, err := a.DecodeGram(enc)
	if err != nil || second != first {
		t.Fatalf("gram decode did not recycle: %v, same=%v", err, second == first)
	}
	if second.rows != g.rows || !reflect.DeepEqual(second.sxy, g.sxy) || !reflect.DeepEqual(second.cnt, g.cnt) {
		t.Fatal("recycled gram decode differs from the source")
	}
	// A width the input cannot back is refused before it sizes anything.
	wide := append([]byte(nil), enc...)
	wide[1], wide[2] = 0xFF, 0xFF // k = 65535
	var de *DecodeError
	if _, _, err := a.DecodeGram(wide); !errors.As(err, &de) {
		t.Fatalf("gram with an unbacked width: %v", err)
	}
}
