package sketch

import (
	"fmt"
	"math"

	"repro/internal/wire"
)

// Wire serialization for the sketch families that cross a wire: Moments and
// Gram, which the distributed fit protocol (internal/dist) ships — a worker
// encodes per-partition partials, the coordinator decodes and merges them in
// partition order — and Quantile, whose codec the repository benchmark's
// sketch.wire_*_mb_per_s probes time.
//
// The encoding is a stable little-endian byte layout (internal/wire) with a
// one-byte family tag. Decoders never panic on corrupted input: every read is
// bounds-checked against the remaining buffer by the wire.Reader, every count
// before anything is allocated for it, and every structural invariant is
// verified, returning a typed *DecodeError. Round-tripping preserves the
// sketch state bit-for-bit — float64 fields travel as raw IEEE-754 bits —
// so merging a decoded partial is arithmetically identical to merging the
// original, which is what keeps a distributed fit's selections bit-identical
// to the single-process engine's.
//
// Every family a partial ships has the same two methods: WireSize, the exact
// encoded size as a closed formula of the sketch's lengths, and AppendWire,
// which appends that many bytes — so the sender sizes its frame once and the
// appends never grow it. On the receiving side the fold recycles Gram
// partials, which decode out of an Arena (Arena.DecodeGram).

// Wire family tags. Values are part of the format and must never be reused.
// Tags 3, 4, 5 and 7 belonged to the LabelHist, ClassHist, MomentHist and
// refiner-gather codecs, which no fit sends; they stay reserved and every
// decoder rejects them.
const (
	wireQuantile byte = 1
	wireMoments  byte = 2
	wireGram     byte = 6
)

// Decode sanity bounds: corrupted lengths fail fast instead of allocating.
const (
	maxWireSketchSize = 1 << 26
	maxWireLevels     = 64
	maxWireGramK      = 1 << 16
)

// DecodeError is the typed failure every sketch wire decoder returns on
// malformed input. Corrupted frames must decode to one of these — never a
// panic — which FuzzSketchDecode enforces.
type DecodeError struct {
	Family string // which decoder rejected the input
	Reason string
}

func (e *DecodeError) Error() string {
	return fmt.Sprintf("sketch: decode %s: %s", e.Family, e.Reason)
}

func decErr(family, format string, args ...any) error {
	return &DecodeError{Family: family, Reason: fmt.Sprintf(format, args...)}
}

func errTruncated(family string) error { return decErr(family, "truncated input") }

// open starts a reader on b and consumes the family tag, which must be want.
func open(b []byte, want byte, family string) (wire.Reader, error) {
	r := wire.NewReader(b)
	switch tag := r.U8(); {
	case r.Failed():
		return r, decErr(family, "empty input")
	case tag != want:
		return r, decErr(family, "family tag %d, want %d", tag, want)
	}
	return r, nil
}

// fillCounted consumes a count-prefixed float64 slice straight into dst. The
// count must be len(dst): any other fails the reader.
func fillCounted(r *wire.Reader, dst []float64) {
	if r.Len(8) != len(dst) {
		r.Fail()
	}
	r.FillF64s(dst)
}

// --- Quantile ---

// AppendWire serializes q and returns the extended buffer. The encoded levels
// and per-level error bounds reproduce q's summary exactly, so Merge on the
// decoded sketch performs the same point-list pushes as Merge on q.
func (q *Quantile) AppendWire(b []byte) []byte {
	b = wire.AppendU8(b, wireQuantile)
	b = wire.AppendU32(b, uint32(q.size))
	b = wire.AppendI64(b, q.count)
	b = wire.AppendI64(b, q.nan)
	b = wire.AppendF64(b, q.min)
	b = wire.AppendF64(b, q.max)
	b = wire.AppendU32(b, uint32(len(q.levels)))
	for level, pts := range q.levels {
		b = wire.AppendU32(b, uint32(len(pts)))
		b = wire.AppendI64(b, q.errs[level])
		for _, p := range pts {
			b = wire.AppendF64(b, p.v)
			b = wire.AppendI64(b, p.w)
		}
	}
	return b
}

// AppendQuantile is q.AppendWire(b).
func AppendQuantile(b []byte, q *Quantile) []byte { return q.AppendWire(b) }

// DecodeQuantile decodes a sketch serialized by AppendWire into a fresh
// sketch, returning it and the unconsumed remainder of the buffer.
func DecodeQuantile(b []byte) (*Quantile, []byte, error) {
	const fam = "quantile"
	r, err := open(b, wireQuantile, fam)
	if err != nil {
		return nil, b, err
	}
	size := r.U32()
	if r.Failed() || size == 0 || size > maxWireSketchSize {
		return nil, b, decErr(fam, "bad size %d", size)
	}
	q := NewQuantile(int(size))
	if err := q.decodeBody(&r); err != nil {
		return nil, b, err
	}
	return q, r.Rest(), nil
}

// decodeBody fills a fresh sketch from everything after the size field.
func (q *Quantile) decodeBody(r *wire.Reader) error {
	const fam = "quantile"
	q.count, q.nan = r.I64(), r.I64()
	q.min, q.max = r.F64(), r.F64()
	nlevels := r.U32()
	switch {
	case r.Failed():
		return errTruncated(fam)
	case q.count < 0 || q.nan < 0:
		return decErr(fam, "negative count")
	case math.IsNaN(q.min) || math.IsNaN(q.max):
		return decErr(fam, "NaN extremum")
	case nlevels > maxWireLevels:
		return decErr(fam, "bad level count %d", nlevels)
	}
	var total int64
	for level := 0; level < int(nlevels); level++ {
		npts := r.Len(16)
		lerr := r.I64()
		span := r.Take(16 * npts) // before the points it sizes are allocated
		if r.Failed() || lerr < 0 {
			return decErr(fam, "bad level %d", level)
		}
		// An emptied level slot is nil, matching push's bookkeeping.
		var pts []wpoint
		if npts > 0 {
			pts = make([]wpoint, npts)
		}
		q.levels = append(q.levels, pts)
		q.errs = append(q.errs, lerr)
		for i := range pts {
			p := wpoint{v: wire.F64(span[16*i:]), w: wire.I64(span[16*i+8:])}
			if math.IsNaN(p.v) || p.w <= 0 {
				return decErr(fam, "level %d point %d invalid", level, i)
			}
			if i > 0 && p.v < pts[i-1].v {
				return decErr(fam, "level %d points not sorted at %d", level, i)
			}
			pts[i] = p
			total += p.w
		}
	}
	if total != q.count {
		return decErr(fam, "level weights sum to %d, count says %d", total, q.count)
	}
	return nil
}

// --- Moments ---

// AppendWire serializes m and returns the extended buffer.
func (m *Moments) AppendWire(b []byte) []byte {
	b = wire.AppendU8(b, wireMoments)
	b = wire.AppendI64(b, m.Rows)
	b = wire.AppendI64(b, m.N)
	b = wire.AppendF64(b, m.Mean)
	b = wire.AppendF64(b, m.M2)
	b = wire.AppendI64(b, m.NaNs)
	return b
}

// WireSize is the number of bytes AppendWire appends.
func (m *Moments) WireSize() int { return 1 + 5*8 }

// DecodeMoments decodes an accumulator serialized by AppendWire.
func DecodeMoments(b []byte) (*Moments, []byte, error) {
	const fam = "moments"
	r, err := open(b, wireMoments, fam)
	if err != nil {
		return nil, b, err
	}
	m := &Moments{}
	m.Rows, m.N = r.I64(), r.I64()
	m.Mean, m.M2 = r.F64(), r.F64()
	m.NaNs = r.I64()
	switch {
	case r.Failed():
		return nil, b, errTruncated(fam)
	case m.Rows < 0 || m.N < 0 || m.NaNs < 0:
		return nil, b, decErr(fam, "negative count")
	case m.N+m.NaNs > m.Rows:
		return nil, b, decErr(fam, "n %d + nans %d exceed rows %d", m.N, m.NaNs, m.Rows)
	}
	return m, r.Rest(), nil
}

// --- Gram ---

// AppendWire serializes g.
func (g *Gram) AppendWire(b []byte) []byte {
	b = wire.AppendU8(b, wireGram)
	b = wire.AppendU32(b, uint32(g.k))
	b = wire.AppendI64(b, g.rows)
	b = wire.AppendF64s(b, g.sxy)
	b = wire.AppendF64s(b, g.sx)
	b = wire.AppendF64s(b, g.sy)
	b = wire.AppendI64s(b, g.cnt)
	return b
}

// WireSize returns the exact number of bytes AppendWire appends for g.
func (g *Gram) WireSize() int {
	return 1 + 4 + 8 + 4*(4+8*len(g.sxy))
}

// AppendGram is g.AppendWire(b).
func AppendGram(b []byte, g *Gram) []byte { return g.AppendWire(b) }

// DecodeGram decodes an accumulator serialized by AppendWire.
func DecodeGram(b []byte) (*Gram, []byte, error) { return (*Arena)(nil).DecodeGram(b) }

// DecodeGram is the package-level DecodeGram drawing the accumulator from the
// arena; the caller returns it with PutGram once it is merged.
func (a *Arena) DecodeGram(b []byte) (*Gram, []byte, error) {
	const fam = "gram"
	r, err := open(b, wireGram, fam)
	if err != nil {
		return nil, b, err
	}
	k, rows := r.U32(), r.I64()
	// The width fixes the size of everything that follows; checked before the
	// accumulator it sizes is allocated.
	pairs := uint64(k) * (uint64(k) - 1) / 2 // k = 0: 0 × anything
	if r.Failed() || k > maxWireGramK || rows < 0 || 4*(4+8*pairs) > uint64(len(r.Rest())) {
		return nil, b, decErr(fam, "bad width %d or row count %d over %d bytes", k, rows, len(r.Rest()))
	}
	g := a.Gram(int(k))
	g.rows = rows
	fillCounted(&r, g.sxy)
	fillCounted(&r, g.sx)
	fillCounted(&r, g.sy)
	if r.Len(8) != len(g.cnt) {
		r.Fail()
	}
	r.FillI64s(g.cnt)
	if r.Failed() {
		a.PutGram(g)
		return nil, b, decErr(fam, "a slice does not hold the %d pairs of width %d", pairs, k)
	}
	return g, r.Rest(), nil
}
