package sketch

import (
	"fmt"
	"math"
)

// Wire serialization for the mergeable sketch families, used by the
// distributed fit protocol (internal/dist): a worker encodes per-partition
// partials, the coordinator decodes and merges them in partition order.
//
// The encoding is a stable little-endian byte layout with a one-byte family
// tag. Decoders never panic on corrupted input: every length is bounds-
// checked against the remaining buffer and every structural invariant is
// verified, returning a typed *DecodeError. Round-tripping preserves the
// sketch state bit-for-bit — float64 fields travel as raw IEEE-754 bits —
// so merging a decoded partial is arithmetically identical to merging the
// original, which is what keeps a distributed fit's selections bit-identical
// to the single-process engine's.
//
// Every family a partial ships has a *WireSize next to its Append*: the
// encoded size is a closed formula of the sketch's lengths, so the sender
// sizes its frame once and the appends never grow it. On the receiving side
// the two families a fold recycles, Quantile and Gram, also decode out of an
// Arena (Arena.DecodeQuantile, Arena.DecodeGram).

// Wire family tags. Values are part of the format and must never be reused.
const (
	wireQuantile   byte = 1
	wireMoments    byte = 2
	wireLabelHist  byte = 3
	wireClassHist  byte = 4
	wireMomentHist byte = 5
	wireGram       byte = 6
	wireRefGather  byte = 7
)

// Decode sanity bounds: corrupted lengths fail fast instead of allocating.
const (
	maxWireSketchSize = 1 << 26
	maxWireLevels     = 64
	maxWireClasses    = 1 << 16
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

// --- primitive little-endian append/read helpers ---

func appendU8(b []byte, v byte) []byte { return append(b, v) }

func appendU32(b []byte, v uint32) []byte {
	return append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

func appendU64(b []byte, v uint64) []byte {
	return append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}

func appendI64(b []byte, v int64) []byte   { return appendU64(b, uint64(v)) }
func appendF64(b []byte, v float64) []byte { return appendU64(b, math.Float64bits(v)) }

func readU8(b []byte) (byte, []byte, bool) {
	if len(b) < 1 {
		return 0, b, false
	}
	return b[0], b[1:], true
}

func readU32(b []byte) (uint32, []byte, bool) {
	if len(b) < 4 {
		return 0, b, false
	}
	v := uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
	return v, b[4:], true
}

func readU64(b []byte) (uint64, []byte, bool) {
	if len(b) < 8 {
		return 0, b, false
	}
	v := uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
	return v, b[8:], true
}

func readI64(b []byte) (int64, []byte, bool) {
	v, rest, ok := readU64(b)
	return int64(v), rest, ok
}

func readF64(b []byte) (float64, []byte, bool) {
	v, rest, ok := readU64(b)
	return math.Float64frombits(v), rest, ok
}

// appendF64s writes a u32 length followed by the raw bits of each value.
func appendF64s(b []byte, vs []float64) []byte {
	b = appendU32(b, uint32(len(vs)))
	for _, v := range vs {
		b = appendF64(b, v)
	}
	return b
}

// readF64s reads a u32-length-prefixed float64 slice, bounds-checked.
func readF64s(b []byte, family string) ([]float64, []byte, error) {
	n, b, ok := readU32(b)
	if !ok {
		return nil, b, decErr(family, "truncated slice length")
	}
	if uint64(n)*8 > uint64(len(b)) {
		return nil, b, decErr(family, "slice length %d exceeds remaining %d bytes", n, len(b))
	}
	out := make([]float64, n)
	for i := range out {
		out[i], b, _ = readF64(b)
	}
	return out, b, nil
}

func appendI64s(b []byte, vs []int64) []byte {
	b = appendU32(b, uint32(len(vs)))
	for _, v := range vs {
		b = appendI64(b, v)
	}
	return b
}

// readCount consumes the u32 length of a slice of 8-byte values that must
// hold exactly want of them, all present in the remaining input.
func readCount(b []byte, want int, family string) ([]byte, error) {
	n, b, ok := readU32(b)
	if !ok {
		return b, decErr(family, "truncated slice length")
	}
	if int64(n) != int64(want) {
		return b, decErr(family, "slice of %d values, want %d", n, want)
	}
	if uint64(n)*8 > uint64(len(b)) {
		return b, decErr(family, "slice length %d exceeds remaining %d bytes", n, len(b))
	}
	return b, nil
}

// readF64sInto reads a u32-length-prefixed float64 slice straight into dst,
// whose length is the count the input must carry.
func readF64sInto(dst []float64, b []byte, family string) ([]byte, error) {
	b, err := readCount(b, len(dst), family)
	if err != nil {
		return b, err
	}
	for i := range dst {
		dst[i], b, _ = readF64(b)
	}
	return b, nil
}

// readI64sInto is readF64sInto for int64 slices.
func readI64sInto(dst []int64, b []byte, family string) ([]byte, error) {
	b, err := readCount(b, len(dst), family)
	if err != nil {
		return b, err
	}
	for i := range dst {
		dst[i], b, _ = readI64(b)
	}
	return b, nil
}

// readTag consumes and verifies the family tag byte.
func readTag(b []byte, want byte, family string) ([]byte, error) {
	tag, b, ok := readU8(b)
	if !ok {
		return b, decErr(family, "empty input")
	}
	if tag != want {
		return b, decErr(family, "family tag %d, want %d", tag, want)
	}
	return b, nil
}

// validCuts rejects cut arrays no histogram constructor produces: cuts are
// always non-NaN and ascending (equal neighbours tolerated for safety).
func validCuts(cuts []float64, family string) error {
	for i, c := range cuts {
		if math.IsNaN(c) {
			return decErr(family, "NaN cut %d", i)
		}
		if i > 0 && c < cuts[i-1] {
			return decErr(family, "cuts not ascending at %d", i)
		}
	}
	return nil
}

// --- Quantile ---

// AppendQuantile serializes q (normalising its pending buffer first, exactly
// as Merge does) and returns the extended buffer. The encoded levels and
// per-level error bounds reproduce q's summary exactly, so Merge on the
// decoded sketch performs the same point-list pushes as Merge on q.
func AppendQuantile(b []byte, q *Quantile) []byte {
	q.flush()
	b = appendU8(b, wireQuantile)
	b = appendU32(b, uint32(q.size))
	b = appendI64(b, q.count)
	b = appendI64(b, q.nan)
	b = appendF64(b, q.min)
	b = appendF64(b, q.max)
	b = appendU32(b, uint32(len(q.levels)))
	for level, pts := range q.levels {
		b = appendU32(b, uint32(len(pts)))
		b = appendI64(b, q.errs[level])
		for _, p := range pts {
			b = appendF64(b, p.v)
			b = appendI64(b, p.w)
		}
	}
	return b
}

// QuantileWireSize returns the exact number of bytes AppendQuantile appends
// for q (normalising its pending buffer first, as AppendQuantile does), so an
// encoder can size its buffer once instead of growing it.
func QuantileWireSize(q *Quantile) int {
	q.flush()
	n := 1 + 4 + 8 + 8 + 8 + 8 + 4
	for _, pts := range q.levels {
		n += 4 + 8 + 16*len(pts)
	}
	return n
}

// DecodeQuantile decodes a sketch serialized by AppendQuantile, returning the
// sketch and the unconsumed remainder of the buffer.
func DecodeQuantile(b []byte) (*Quantile, []byte, error) {
	return decodeQuantile(b, nil)
}

// DecodeQuantile is the package-level DecodeQuantile drawing the sketch from
// the arena: a recycled sketch's retired level backings take the decoded
// points, so a fold that returns each partial with PutQuantile after merging
// it decodes the next one without allocating.
func (a *Arena) DecodeQuantile(b []byte) (*Quantile, []byte, error) {
	return decodeQuantile(b, a)
}

func decodeQuantile(b []byte, a *Arena) (*Quantile, []byte, error) {
	const fam = "quantile"
	b, err := readTag(b, wireQuantile, fam)
	if err != nil {
		return nil, b, err
	}
	size, b, ok := readU32(b)
	if !ok || size == 0 || size > maxWireSketchSize {
		return nil, b, decErr(fam, "bad size %d", size)
	}
	var q *Quantile
	if a != nil {
		q = a.Quantile(int(size))
	} else {
		q = NewQuantile(int(size))
	}
	if b, err = q.decodeBody(b); err != nil {
		if a != nil {
			a.PutQuantile(q)
		}
		return nil, b, err
	}
	return q, b, nil
}

// decodeBody fills a fresh or reset sketch from everything after the size
// field, drawing level backings from the sketch's own free list.
func (q *Quantile) decodeBody(b []byte) ([]byte, error) {
	const fam = "quantile"
	var ok bool
	if q.count, b, ok = readI64(b); !ok || q.count < 0 {
		return b, decErr(fam, "bad count")
	}
	if q.nan, b, ok = readI64(b); !ok || q.nan < 0 {
		return b, decErr(fam, "bad nan count")
	}
	if q.min, b, ok = readF64(b); !ok {
		return b, decErr(fam, "truncated min")
	}
	if q.max, b, ok = readF64(b); !ok {
		return b, decErr(fam, "truncated max")
	}
	if math.IsNaN(q.min) || math.IsNaN(q.max) {
		return b, decErr(fam, "NaN extremum")
	}
	nlevels, b, ok := readU32(b)
	if !ok || nlevels > maxWireLevels {
		return b, decErr(fam, "bad level count %d", nlevels)
	}
	var total int64
	for level := 0; level < int(nlevels); level++ {
		npts, rest, ok := readU32(b)
		b = rest
		if !ok {
			return b, decErr(fam, "truncated level %d", level)
		}
		var lerr int64
		if lerr, b, ok = readI64(b); !ok || lerr < 0 {
			return b, decErr(fam, "bad level %d error", level)
		}
		if uint64(npts)*16 > uint64(len(b)) {
			return b, decErr(fam, "level %d point count %d exceeds input", level, npts)
		}
		// An emptied level slot is nil, matching push's bookkeeping.
		var pts []wpoint
		if npts > 0 {
			pts = q.takeFree(int(npts))[:npts]
		}
		q.levels = append(q.levels, pts)
		q.errs = append(q.errs, lerr)
		for i := range pts {
			pts[i].v, b, _ = readF64(b)
			pts[i].w, b, _ = readI64(b)
			if math.IsNaN(pts[i].v) || pts[i].w <= 0 {
				return b, decErr(fam, "level %d point %d invalid", level, i)
			}
			if i > 0 && pts[i].v < pts[i-1].v {
				return b, decErr(fam, "level %d points not sorted at %d", level, i)
			}
			total += pts[i].w
		}
	}
	if total != q.count {
		return b, decErr(fam, "level weights sum to %d, count says %d", total, q.count)
	}
	return b, nil
}

// --- Moments ---

// AppendMoments serializes m and returns the extended buffer.
func AppendMoments(b []byte, m *Moments) []byte {
	b = appendU8(b, wireMoments)
	b = appendI64(b, m.Rows)
	b = appendI64(b, m.N)
	b = appendF64(b, m.Mean)
	b = appendF64(b, m.M2)
	b = appendI64(b, m.NaNs)
	return b
}

// MomentsWireSize is the number of bytes AppendMoments appends.
const MomentsWireSize = 1 + 5*8

// DecodeMoments decodes an accumulator serialized by AppendMoments.
func DecodeMoments(b []byte) (*Moments, []byte, error) {
	const fam = "moments"
	b, err := readTag(b, wireMoments, fam)
	if err != nil {
		return nil, b, err
	}
	m := &Moments{}
	var ok bool
	if m.Rows, b, ok = readI64(b); !ok || m.Rows < 0 {
		return nil, b, decErr(fam, "bad rows")
	}
	if m.N, b, ok = readI64(b); !ok || m.N < 0 {
		return nil, b, decErr(fam, "bad n")
	}
	if m.Mean, b, ok = readF64(b); !ok {
		return nil, b, decErr(fam, "truncated mean")
	}
	if m.M2, b, ok = readF64(b); !ok {
		return nil, b, decErr(fam, "truncated m2")
	}
	if m.NaNs, b, ok = readI64(b); !ok || m.NaNs < 0 {
		return nil, b, decErr(fam, "bad nan count")
	}
	if m.N+m.NaNs > m.Rows {
		return nil, b, decErr(fam, "n %d + nans %d exceed rows %d", m.N, m.NaNs, m.Rows)
	}
	return m, b, nil
}

// --- LabelHist ---

// AppendLabelHist serializes h (cuts included, so the receiver can verify
// the partial was accumulated over the cut points it expects).
func AppendLabelHist(b []byte, h *LabelHist) []byte {
	b = appendU8(b, wireLabelHist)
	b = appendF64s(b, h.cuts)
	b = appendF64s(b, h.pos)
	b = appendF64s(b, h.neg)
	b = appendF64(b, h.nanPos)
	b = appendF64(b, h.nanNeg)
	return b
}

// LabelHistWireSize returns the exact number of bytes AppendLabelHist appends
// for h.
func LabelHistWireSize(h *LabelHist) int {
	return 1 + 3*4 + 8*(len(h.cuts)+len(h.pos)+len(h.neg)) + 2*8
}

// DecodeLabelHist decodes a histogram serialized by AppendLabelHist.
func DecodeLabelHist(b []byte) (*LabelHist, []byte, error) {
	const fam = "labelhist"
	b, err := readTag(b, wireLabelHist, fam)
	if err != nil {
		return nil, b, err
	}
	cuts, b, err := readF64s(b, fam)
	if err != nil {
		return nil, b, err
	}
	if err := validCuts(cuts, fam); err != nil {
		return nil, b, err
	}
	pos, b, err := readF64s(b, fam)
	if err != nil {
		return nil, b, err
	}
	neg, b, err := readF64s(b, fam)
	if err != nil {
		return nil, b, err
	}
	if len(pos) != len(cuts)+1 || len(neg) != len(cuts)+1 {
		return nil, b, decErr(fam, "%d cuts with %d/%d bins", len(cuts), len(pos), len(neg))
	}
	h := NewLabelHist(cuts)
	copy(h.pos, pos)
	copy(h.neg, neg)
	var ok bool
	if h.nanPos, b, ok = readF64(b); !ok {
		return nil, b, decErr(fam, "truncated nanPos")
	}
	if h.nanNeg, b, ok = readF64(b); !ok {
		return nil, b, decErr(fam, "truncated nanNeg")
	}
	return h, b, nil
}

// --- ClassHist ---

// AppendClassHist serializes h.
func AppendClassHist(b []byte, h *ClassHist) []byte {
	b = appendU8(b, wireClassHist)
	b = appendU32(b, uint32(h.k))
	b = appendF64s(b, h.cuts)
	b = appendF64s(b, h.flat)
	b = appendF64s(b, h.nan)
	return b
}

// ClassHistWireSize returns the exact number of bytes AppendClassHist appends
// for h.
func ClassHistWireSize(h *ClassHist) int {
	return 1 + 4 + 3*4 + 8*(len(h.cuts)+len(h.flat)+len(h.nan))
}

// DecodeClassHist decodes a histogram serialized by AppendClassHist.
func DecodeClassHist(b []byte) (*ClassHist, []byte, error) {
	const fam = "classhist"
	b, err := readTag(b, wireClassHist, fam)
	if err != nil {
		return nil, b, err
	}
	k, b, ok := readU32(b)
	if !ok || k == 0 || k > maxWireClasses {
		return nil, b, decErr(fam, "bad class count %d", k)
	}
	cuts, b, err := readF64s(b, fam)
	if err != nil {
		return nil, b, err
	}
	if err := validCuts(cuts, fam); err != nil {
		return nil, b, err
	}
	flat, b, err := readF64s(b, fam)
	if err != nil {
		return nil, b, err
	}
	nan, b, err := readF64s(b, fam)
	if err != nil {
		return nil, b, err
	}
	nb := len(cuts) + 1
	if len(flat) != int(k)*nb || len(nan) != int(k) {
		return nil, b, decErr(fam, "k=%d nb=%d with %d counts, %d nans", k, nb, len(flat), len(nan))
	}
	h := NewClassHist(cuts, int(k))
	copy(h.flat, flat)
	copy(h.nan, nan)
	return h, b, nil
}

// --- MomentHist ---

// AppendMomentHist serializes h. Note the distributed fit never merges
// MomentHist partials (float sums are order-sensitive — the regression
// passes ship bin ids instead); the codec exists for completeness and for
// callers that accept the regrouping.
func AppendMomentHist(b []byte, h *MomentHist) []byte {
	b = appendU8(b, wireMomentHist)
	b = appendF64s(b, h.cuts)
	b = appendF64s(b, h.cnt)
	b = appendF64s(b, h.sum)
	b = appendF64s(b, h.sumsq)
	b = appendF64(b, h.nanN)
	return b
}

// DecodeMomentHist decodes a histogram serialized by AppendMomentHist.
func DecodeMomentHist(b []byte) (*MomentHist, []byte, error) {
	const fam = "momenthist"
	b, err := readTag(b, wireMomentHist, fam)
	if err != nil {
		return nil, b, err
	}
	cuts, b, err := readF64s(b, fam)
	if err != nil {
		return nil, b, err
	}
	if err := validCuts(cuts, fam); err != nil {
		return nil, b, err
	}
	cnt, b, err := readF64s(b, fam)
	if err != nil {
		return nil, b, err
	}
	sum, b, err := readF64s(b, fam)
	if err != nil {
		return nil, b, err
	}
	sumsq, b, err := readF64s(b, fam)
	if err != nil {
		return nil, b, err
	}
	nb := len(cuts) + 1
	if len(cnt) != nb || len(sum) != nb || len(sumsq) != nb {
		return nil, b, decErr(fam, "%d cuts with %d/%d/%d bins", len(cuts), len(cnt), len(sum), len(sumsq))
	}
	h := NewMomentHist(cuts)
	copy(h.cnt, cnt)
	copy(h.sum, sum)
	copy(h.sumsq, sumsq)
	var ok bool
	if h.nanN, b, ok = readF64(b); !ok {
		return nil, b, decErr(fam, "truncated nanN")
	}
	return h, b, nil
}

// --- Gram ---

// AppendGram serializes g.
func AppendGram(b []byte, g *Gram) []byte {
	b = appendU8(b, wireGram)
	b = appendU32(b, uint32(g.k))
	b = appendI64(b, g.rows)
	b = appendF64s(b, g.sxy)
	b = appendF64s(b, g.sx)
	b = appendF64s(b, g.sy)
	b = appendI64s(b, g.cnt)
	return b
}

// GramWireSize returns the exact number of bytes AppendGram appends for g.
func GramWireSize(g *Gram) int {
	return 1 + 4 + 8 + 4*(4+8*len(g.sxy))
}

// DecodeGram decodes an accumulator serialized by AppendGram.
func DecodeGram(b []byte) (*Gram, []byte, error) {
	return decodeGram(b, nil)
}

// DecodeGram is the package-level DecodeGram drawing the accumulator from the
// arena; the caller returns it with PutGram once it is merged.
func (a *Arena) DecodeGram(b []byte) (*Gram, []byte, error) {
	return decodeGram(b, a)
}

func decodeGram(b []byte, a *Arena) (*Gram, []byte, error) {
	const fam = "gram"
	b, err := readTag(b, wireGram, fam)
	if err != nil {
		return nil, b, err
	}
	k, b, ok := readU32(b)
	if !ok || k > maxWireGramK {
		return nil, b, decErr(fam, "bad width %d", k)
	}
	rows, b, ok := readI64(b)
	if !ok || rows < 0 {
		return nil, b, decErr(fam, "bad row count")
	}
	// The width fixes the size of everything that follows; checked before the
	// accumulator it sizes is allocated.
	pairs := uint64(k) * (uint64(k) - 1) / 2 // k = 0: 0 × anything
	if 4*(4+8*pairs) > uint64(len(b)) {
		return nil, b, decErr(fam, "width %d wants %d pairs, %d bytes remain", k, pairs, len(b))
	}
	var g *Gram
	if a != nil {
		g = a.Gram(int(k))
	} else {
		g = NewGram(int(k))
	}
	g.rows = rows
	for _, dst := range [][]float64{g.sxy, g.sx, g.sy} {
		if b, err = readF64sInto(dst, b, fam); err != nil {
			break
		}
	}
	if err == nil {
		b, err = readI64sInto(g.cnt, b, fam)
	}
	if err != nil {
		if a != nil {
			a.PutGram(g)
		}
		return nil, b, err
	}
	return g, b, nil
}

// --- Refiner gather partials ---

// Brackets exposes a refiner's target ranks and bracket arrays (not copies)
// so a coordinator can ship them to workers, which rebuild an equivalent
// gatherer with NewShadowRefiner.
func (r *Refiner) Brackets() (ranks []int64, lo, hi []float64, resolved []bool) {
	return r.ranks, r.lo, r.hi, r.resolved
}

// NewShadowRefiner builds a gather-only refiner from transported brackets —
// the remote equivalent of Refiner.Shadow. AddChunk/AddSorted accumulate
// exactly as a local shadow would (the bucket index is rebuilt from the same
// lo edges, and its answers are defined identically to the binary search),
// so partials folded with Merge in partition order reproduce the local fold
// bit-for-bit. The slices are retained; they must not be modified.
func NewShadowRefiner(ranks []int64, lo, hi []float64, resolved []bool) *Refiner {
	r := &Refiner{
		ranks:    ranks,
		lo:       lo,
		hi:       hi,
		resolved: resolved,
		lowDelta: make([]int64, len(ranks)+1),
		loEq:     make([]int64, len(ranks)),
		hiEq:     make([]int64, len(ranks)),
		mid:      make([][]float64, len(ranks)),
	}
	r.idx = newEdgeIndex(r.lo)
	return r
}

// AppendRefinerGather serializes a refiner's gather accumulators (not its
// brackets): the per-partition partial a worker sends back.
func AppendRefinerGather(b []byte, r *Refiner) []byte {
	b = appendU8(b, wireRefGather)
	b = appendU32(b, uint32(len(r.ranks)))
	for t := 0; t <= len(r.ranks); t++ {
		b = appendI64(b, r.lowDelta[t])
	}
	for t := range r.ranks {
		b = appendI64(b, r.loEq[t])
		b = appendI64(b, r.hiEq[t])
		b = appendF64s(b, r.mid[t])
	}
	return b
}

// RefinerGatherWireSize returns the exact number of bytes AppendRefinerGather
// appends for r.
func RefinerGatherWireSize(r *Refiner) int {
	nt := len(r.ranks)
	n := 1 + 4 + 8*(nt+1) + nt*(8+8+4)
	for _, m := range r.mid[:nt] {
		n += 8 * len(m)
	}
	return n
}

// DecodeRefinerGather decodes a partial serialized by AppendRefinerGather
// into a refiner suitable only as a Merge argument: it has accumulators and
// through them a target count, but no ranks and no brackets.
func DecodeRefinerGather(b []byte) (*Refiner, []byte, error) {
	const fam = "refgather"
	b, err := readTag(b, wireRefGather, fam)
	if err != nil {
		return nil, b, err
	}
	nt, b, ok := readU32(b)
	if !ok || nt > maxWireSketchSize {
		return nil, b, decErr(fam, "bad target count %d", nt)
	}
	// Every target carries at least its lowDelta, loEq, hiEq and a gather length.
	if 8+uint64(nt)*(8+8+8+4) > uint64(len(b)) {
		return nil, b, decErr(fam, "target count %d exceeds input", nt)
	}
	r := &Refiner{
		lowDelta: make([]int64, nt+1),
		loEq:     make([]int64, nt),
		hiEq:     make([]int64, nt),
		mid:      make([][]float64, nt),
	}
	for t := range r.lowDelta {
		if r.lowDelta[t], b, ok = readI64(b); !ok || r.lowDelta[t] < 0 {
			return nil, b, decErr(fam, "bad lowDelta %d", t)
		}
	}
	for t := range r.mid {
		if r.loEq[t], b, ok = readI64(b); !ok || r.loEq[t] < 0 {
			return nil, b, decErr(fam, "bad loEq %d", t)
		}
		if r.hiEq[t], b, ok = readI64(b); !ok || r.hiEq[t] < 0 {
			return nil, b, decErr(fam, "bad hiEq %d", t)
		}
		if r.mid[t], b, err = readF64s(b, fam); err != nil {
			return nil, b, err
		}
	}
	return r, b, nil
}

// MergeWire merges a decoded gather partial into r, validating the target
// count first — a merge from the wire must not trust the peer's shape (a
// bare Merge indexes the argument's accumulators by r's target count).
func (r *Refiner) MergeWire(o *Refiner) error {
	if len(o.loEq) != len(r.ranks) {
		return decErr("refgather", "gather partial covers %d targets, want %d", len(o.loEq), len(r.ranks))
	}
	r.Merge(o)
	return nil
}

// DecodeAny dispatches on the family tag — the single entry point
// FuzzSketchDecode drives, and a convenient way for protocol code to decode
// a self-describing sketch payload.
func DecodeAny(b []byte) (any, []byte, error) {
	if len(b) == 0 {
		return nil, b, decErr("any", "empty input")
	}
	switch b[0] {
	case wireQuantile:
		return DecodeQuantile(b)
	case wireMoments:
		return DecodeMoments(b)
	case wireLabelHist:
		return DecodeLabelHist(b)
	case wireClassHist:
		return DecodeClassHist(b)
	case wireMomentHist:
		return DecodeMomentHist(b)
	case wireGram:
		return DecodeGram(b)
	case wireRefGather:
		return DecodeRefinerGather(b)
	default:
		return nil, b, decErr("any", "unknown family tag %d", b[0])
	}
}
