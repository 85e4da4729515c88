package sketch

import (
	"fmt"
	"math"

	"repro/internal/wire"
)

// Wire serialization for the mergeable sketch families, used by the
// distributed fit protocol (internal/dist): a worker encodes per-partition
// partials, the coordinator decodes and merges them in partition order.
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
// appends never grow it. On the receiving side the two families a fold
// recycles, Quantile and Gram, also decode out of an Arena
// (Arena.DecodeQuantile, Arena.DecodeGram).

// Wire family tags. Values are part of the format and must never be reused.
// Tag 5 belonged to a MomentHist codec no fit ever used (the regression passes
// ship bin ids, because float sums are order-sensitive); it stays reserved and
// every decoder rejects it.
const (
	wireQuantile  byte = 1
	wireMoments   byte = 2
	wireLabelHist byte = 3
	wireClassHist byte = 4
	wireGram      byte = 6
	wireRefGather byte = 7
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

// readCuts consumes a histogram's cut array and rejects one no constructor
// produces: cuts are always non-NaN and ascending (equal neighbours tolerated
// for safety).
func readCuts(r *wire.Reader, family string) ([]float64, error) {
	cuts := r.F64s(nil)
	if r.Failed() {
		return nil, errTruncated(family)
	}
	for i, c := range cuts {
		if math.IsNaN(c) {
			return nil, decErr(family, "NaN cut %d", i)
		}
		if i > 0 && c < cuts[i-1] {
			return nil, decErr(family, "cuts not ascending at %d", i)
		}
	}
	return cuts, nil
}

// --- Quantile ---

// AppendWire serializes q (normalising its pending buffer first, exactly as
// Merge does) and returns the extended buffer. The encoded levels and
// per-level error bounds reproduce q's summary exactly, so Merge on the
// decoded sketch performs the same point-list pushes as Merge on q.
func (q *Quantile) AppendWire(b []byte) []byte {
	q.flush()
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

// WireSize returns the exact number of bytes AppendWire appends for q
// (normalising its pending buffer first, as AppendWire does).
func (q *Quantile) WireSize() int {
	q.flush()
	n := 1 + 4 + 8 + 8 + 8 + 8 + 4
	for _, pts := range q.levels {
		n += 4 + 8 + 16*len(pts)
	}
	return n
}

// AppendQuantile is q.AppendWire(b).
func AppendQuantile(b []byte, q *Quantile) []byte { return q.AppendWire(b) }

// DecodeQuantile decodes a sketch serialized by AppendWire, returning the
// sketch and the unconsumed remainder of the buffer.
func DecodeQuantile(b []byte) (*Quantile, []byte, error) {
	return (*Arena)(nil).DecodeQuantile(b)
}

// DecodeQuantile is the package-level DecodeQuantile drawing the sketch from
// the arena: a recycled sketch's retired level backings take the decoded
// points, so a fold that returns each partial with PutQuantile after merging
// it decodes the next one without allocating.
func (a *Arena) DecodeQuantile(b []byte) (*Quantile, []byte, error) {
	const fam = "quantile"
	r, err := open(b, wireQuantile, fam)
	if err != nil {
		return nil, b, err
	}
	size := r.U32()
	if r.Failed() || size == 0 || size > maxWireSketchSize {
		return nil, b, decErr(fam, "bad size %d", size)
	}
	q := a.Quantile(int(size))
	if err := q.decodeBody(&r); err != nil {
		a.PutQuantile(q)
		return nil, b, err
	}
	return q, r.Rest(), nil
}

// decodeBody fills a fresh or reset sketch from everything after the size
// field, drawing level backings from the sketch's own free list.
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
			pts = q.takeFree(npts)[:npts]
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

// --- LabelHist ---

// AppendWire serializes h (cuts included, so the receiver can verify the
// partial was accumulated over the cut points it expects).
func (h *LabelHist) AppendWire(b []byte) []byte {
	b = wire.AppendU8(b, wireLabelHist)
	b = wire.AppendF64s(b, h.cuts)
	b = wire.AppendF64s(b, h.pos)
	b = wire.AppendF64s(b, h.neg)
	b = wire.AppendF64(b, h.nanPos)
	b = wire.AppendF64(b, h.nanNeg)
	return b
}

// WireSize returns the exact number of bytes AppendWire appends for h.
func (h *LabelHist) WireSize() int {
	return 1 + 3*4 + 8*(len(h.cuts)+len(h.pos)+len(h.neg)) + 2*8
}

// DecodeLabelHist decodes a histogram serialized by AppendWire.
func DecodeLabelHist(b []byte) (*LabelHist, []byte, error) {
	const fam = "labelhist"
	r, err := open(b, wireLabelHist, fam)
	if err != nil {
		return nil, b, err
	}
	cuts, err := readCuts(&r, fam)
	if err != nil {
		return nil, b, err
	}
	h := NewLabelHist(cuts)
	fillCounted(&r, h.pos)
	fillCounted(&r, h.neg)
	h.nanPos, h.nanNeg = r.F64(), r.F64()
	if r.Failed() {
		return nil, b, decErr(fam, "truncated, or the bins do not number %d cuts + 1", len(cuts))
	}
	return h, r.Rest(), nil
}

// --- ClassHist ---

// AppendWire serializes h.
func (h *ClassHist) AppendWire(b []byte) []byte {
	b = wire.AppendU8(b, wireClassHist)
	b = wire.AppendU32(b, uint32(h.k))
	b = wire.AppendF64s(b, h.cuts)
	b = wire.AppendF64s(b, h.flat)
	b = wire.AppendF64s(b, h.nan)
	return b
}

// WireSize returns the exact number of bytes AppendWire appends for h.
func (h *ClassHist) WireSize() int {
	return 1 + 4 + 3*4 + 8*(len(h.cuts)+len(h.flat)+len(h.nan))
}

// DecodeClassHist decodes a histogram serialized by AppendWire.
func DecodeClassHist(b []byte) (*ClassHist, []byte, error) {
	const fam = "classhist"
	r, err := open(b, wireClassHist, fam)
	if err != nil {
		return nil, b, err
	}
	k := r.U32()
	if r.Failed() || k == 0 || k > maxWireClasses {
		return nil, b, decErr(fam, "bad class count %d", k)
	}
	cuts, err := readCuts(&r, fam)
	if err != nil {
		return nil, b, err
	}
	// The counts the class count and the cuts size must all be there before
	// the histogram is built: k × (cuts + 1) bins and k NaN counts.
	if want := 2*4 + 8*uint64(k)*(uint64(len(cuts))+2); want > uint64(len(r.Rest())) {
		return nil, b, decErr(fam, "k=%d over %d cuts wants %d bytes of counts, %d remain", k, len(cuts), want, len(r.Rest()))
	}
	h := NewClassHist(cuts, int(k))
	fillCounted(&r, h.flat)
	fillCounted(&r, h.nan)
	if r.Failed() {
		return nil, b, decErr(fam, "the counts are not %d classes × (%d cuts + 1) and %d NaN counts", k, len(cuts), k)
	}
	return h, r.Rest(), nil
}

// DecodeCountHist decodes the criterion histogram partial of a count-valued
// task, binary or multiclass, whichever its tag says; any other tag is a
// *DecodeError.
func DecodeCountHist(b []byte) (CriterionHist, []byte, error) {
	if len(b) > 0 && b[0] == wireClassHist {
		h, rest, err := DecodeClassHist(b)
		if err != nil {
			return nil, b, err
		}
		return h, rest, nil
	}
	h, rest, err := DecodeLabelHist(b)
	if err != nil {
		return nil, b, err
	}
	return h, rest, nil
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

// AppendWire serializes a refiner's gather accumulators (not its brackets):
// the per-partition partial a worker sends back.
func (r *Refiner) AppendWire(b []byte) []byte {
	b = wire.AppendU8(b, wireRefGather)
	b = wire.AppendU32(b, uint32(len(r.ranks)))
	for t := 0; t <= len(r.ranks); t++ {
		b = wire.AppendI64(b, r.lowDelta[t])
	}
	for t := range r.ranks {
		b = wire.AppendI64(b, r.loEq[t])
		b = wire.AppendI64(b, r.hiEq[t])
		b = wire.AppendF64s(b, r.mid[t])
	}
	return b
}

// WireSize returns the exact number of bytes AppendWire appends for r.
func (r *Refiner) WireSize() int {
	nt := len(r.ranks)
	n := 1 + 4 + 8*(nt+1) + nt*(8+8+4)
	for _, m := range r.mid[:nt] {
		n += 8 * len(m)
	}
	return n
}

// DecodeRefinerGather decodes a partial serialized by Refiner.AppendWire into
// a refiner suitable only as a Merge argument: it has accumulators and through
// them a target count, but no ranks and no brackets.
func DecodeRefinerGather(b []byte) (*Refiner, []byte, error) {
	const fam = "refgather"
	rd, err := open(b, wireRefGather, fam)
	if err != nil {
		return nil, b, err
	}
	// Every target carries at least its lowDelta, loEq, hiEq and a gather length.
	nt := rd.Len(8 + 8 + 8 + 4)
	if rd.Failed() || nt > maxWireSketchSize {
		return nil, b, decErr(fam, "bad target count %d", nt)
	}
	r := &Refiner{
		lowDelta: make([]int64, nt+1),
		loEq:     make([]int64, nt),
		hiEq:     make([]int64, nt),
		mid:      make([][]float64, nt),
	}
	rd.FillI64s(r.lowDelta)
	for t, d := range r.lowDelta {
		if d < 0 {
			return nil, b, decErr(fam, "bad lowDelta %d", t)
		}
	}
	for t := range r.mid {
		r.loEq[t], r.hiEq[t] = rd.I64(), rd.I64()
		r.mid[t] = rd.F64s(nil)
		if rd.Failed() || r.loEq[t] < 0 || r.hiEq[t] < 0 {
			return nil, b, decErr(fam, "bad target %d", t)
		}
	}
	if rd.Failed() { // no targets: the one lowDelta
		return nil, b, errTruncated(fam)
	}
	return r, rd.Rest(), nil
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
	case wireLabelHist, wireClassHist:
		return DecodeCountHist(b)
	case wireGram:
		return DecodeGram(b)
	case wireRefGather:
		return DecodeRefinerGather(b)
	default:
		return nil, b, decErr("any", "unknown family tag %d", b[0])
	}
}
