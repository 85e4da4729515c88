package sketch

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// randomQuantile builds a sketch over n random values (some NaN) so levels,
// errors and extrema are all populated.
func randomQuantile(rng *rand.Rand, size, n int) *Quantile {
	q := NewQuantile(size)
	for i := 0; i < n; i++ {
		if rng.Intn(17) == 0 {
			q.Add(math.NaN())
			continue
		}
		q.Add(rng.NormFloat64() * 10)
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

func TestLabelHistWireRoundTrip(t *testing.T) {
	h := NewLabelHist([]float64{-1, 0, 1})
	h.AddCol(
		[]float64{-2, -1, 0.5, 3, math.NaN(), 0},
		[]float64{1, 0, 1, 1, 1, 0},
	)
	dec, rest, err := DecodeLabelHist(h.AppendWire(nil))
	if err != nil || len(rest) != 0 {
		t.Fatalf("decode: %v (rest %d)", err, len(rest))
	}
	if !reflect.DeepEqual(dec.pos, h.pos) || !reflect.DeepEqual(dec.neg, h.neg) ||
		dec.nanPos != h.nanPos || dec.nanNeg != h.nanNeg {
		t.Fatalf("round trip changed counts")
	}
	if err := h.Merge(dec); err != nil {
		t.Fatalf("merge decoded: %v", err)
	}
}

func TestClassHistWireRoundTrip(t *testing.T) {
	h := NewClassHist([]float64{0, 2}, 3)
	h.AddCol(
		[]float64{-1, 1, 3, math.NaN(), 2},
		[]float64{0, 1, 2, 1, 0},
	)
	dec, rest, err := DecodeClassHist(h.AppendWire(nil))
	if err != nil || len(rest) != 0 {
		t.Fatalf("decode: %v (rest %d)", err, len(rest))
	}
	if !reflect.DeepEqual(dec.flat, h.flat) || !reflect.DeepEqual(dec.nan, h.nan) {
		t.Fatalf("round trip changed counts")
	}
	if err := h.Merge(dec); err != nil {
		t.Fatalf("merge decoded: %v", err)
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

// TestRefinerGatherWireRoundTrip checks the distributed gather path end to
// end: a shadow rebuilt from transported brackets, accumulated remotely,
// serialized, decoded and merged must yield the same exact values as the
// local shadow fold.
func TestRefinerGatherWireRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	col := make([]float64, 4000)
	for i := range col {
		col[i] = math.Round(rng.NormFloat64() * 100)
	}
	q := NewQuantile(32)
	q.AddAll(col)
	ranks := CutRanks(q.Count(), 10)
	local := NewRefiner(q, ranks)
	remoteMaster := NewRefiner(q, ranks)

	rks, lo, hi, resolved := local.Brackets()
	for _, chunk := range [][]float64{col[:1500], col[1500:]} {
		lsh := local.Shadow()
		lsh.AddChunk(chunk)
		local.Merge(lsh)

		rsh := NewShadowRefiner(rks, lo, hi, resolved)
		rsh.AddChunk(chunk)
		dec, rest, err := DecodeRefinerGather(rsh.AppendWire(nil))
		if err != nil || len(rest) != 0 {
			t.Fatalf("decode gather: %v (rest %d)", err, len(rest))
		}
		remoteMaster.Merge(dec)
	}
	for _, rk := range ranks {
		if lv, rv := local.Value(rk), remoteMaster.Value(rk); lv != rv {
			t.Fatalf("rank %d: local %v, remote %v", rk, lv, rv)
		}
	}
}

func TestDecodeAnyDispatch(t *testing.T) {
	m := &Moments{}
	m.Add(3)
	v, _, err := DecodeAny(m.AppendWire(nil))
	if err != nil {
		t.Fatalf("DecodeAny: %v", err)
	}
	if _, ok := v.(*Moments); !ok {
		t.Fatalf("DecodeAny returned %T", v)
	}
	if _, _, err := DecodeAny([]byte{250}); err == nil {
		t.Fatal("unknown tag decoded")
	}
	var de *DecodeError
	if _, _, err := DecodeAny(nil); !errors.As(err, &de) {
		t.Fatalf("empty input error %T, want *DecodeError", err)
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
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{0, 1, 40, 700, 5000} {
		q := randomQuantile(rng, 64, n)
		if got, want := q.WireSize(), len(q.AppendWire(nil)); got != want {
			t.Fatalf("quantile over %d values: size %d, encodes to %d", n, got, want)
		}
	}
	m := &Moments{}
	m.AddAll([]float64{1, 2, math.NaN()})
	if got, want := m.WireSize(), len(m.AppendWire(nil)); got != want {
		t.Fatalf("moments: size %d, encodes to %d", got, want)
	}
	lh := NewLabelHist([]float64{-1, 0, 1})
	lh.AddCol([]float64{-2, 0.5, math.NaN()}, []float64{1, 0, 1})
	if got, want := lh.WireSize(), len(lh.AppendWire(nil)); got != want {
		t.Fatalf("labelhist: size %d, encodes to %d", got, want)
	}
	ch := NewClassHist([]float64{0, 2}, 3)
	ch.AddCol([]float64{-1, 1, 3}, []float64{0, 1, 2})
	if got, want := ch.WireSize(), len(ch.AppendWire(nil)); got != want {
		t.Fatalf("classhist: size %d, encodes to %d", got, want)
	}
	for _, k := range []int{0, 1, 2, 5} {
		g := NewGram(k)
		if got, want := g.WireSize(), len(g.AppendWire(nil)); got != want {
			t.Fatalf("gram k=%d: size %d, encodes to %d", k, got, want)
		}
	}
	q := randomQuantile(rng, 32, 3000)
	sh := NewRefiner(q, CutRanks(q.Count(), 10)).Shadow()
	sh.AddChunk([]float64{0.5, -3, 12, 12, 7})
	if got, want := sh.WireSize(), len(sh.AppendWire(nil)); got != want {
		t.Fatalf("refgather: size %d, encodes to %d", got, want)
	}
}

// TestArenaDecodeRecycles pins the coordinator's decode path: a quantile or
// Gram partial decoded from the arena equals one decoded into fresh memory,
// comes back out of the arena once returned to it, and a rejected input
// leaves nothing behind that the next decode could trip over.
func TestArenaDecodeRecycles(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	a := NewArena()
	encA := AppendQuantile(nil, randomQuantile(rng, 64, 3000))
	encB := AppendQuantile(nil, randomQuantile(rng, 64, 900))
	var prev *Quantile
	for round, enc := range [][]byte{encA, encB, encA[:len(encA)/2], encB} {
		want, _, werr := DecodeQuantile(enc)
		got, rest, err := a.DecodeQuantile(enc)
		if (err != nil) != (werr != nil) {
			t.Fatalf("round %d: arena decode err %v, fresh decode err %v", round, err, werr)
		}
		if err != nil {
			var de *DecodeError
			if !errors.As(err, &de) || got != nil {
				t.Fatalf("round %d: rejected input returned %v, %v", round, got, err)
			}
			continue
		}
		if len(rest) != 0 || got.count != want.count || got.nan != want.nan || got.min != want.min || got.max != want.max ||
			!reflect.DeepEqual(got.levels, want.levels) || !reflect.DeepEqual(got.errs, want.errs) {
			t.Fatalf("round %d: arena decode differs from fresh decode", round)
		}
		if prev != nil && got != prev {
			t.Fatalf("round %d: decode did not draw the sketch returned to the arena", round)
		}
		a.PutQuantile(got)
		prev = got
	}
	if allocs := testing.AllocsPerRun(20, func() {
		q, _, _ := a.DecodeQuantile(encA)
		a.PutQuantile(q)
	}); allocs > 0 {
		t.Fatalf("steady-state arena decode allocates %v times", allocs)
	}

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
