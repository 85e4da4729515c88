// Package wire is the repository's one byte codec: little-endian appends for
// encoders and a bounds-checked Reader for decoders. The three binary formats
// built on it — sketch partials (internal/sketch), distributed-fit messages
// (internal/dist) and the column-file footer (internal/colstore) — own their
// layouts, their range and shape checks and their typed errors; this package
// owns the bytes: how an integer is laid out, and the single check that keeps
// a decoder inside its input and its allocations proportional to it.
//
// A sequence travels as a u32 element count followed by the elements. The
// float64 values travel as raw IEEE-754 bits, so a round trip is bit-exact.
package wire

import (
	"encoding/binary"
	"math"
)

var le = binary.LittleEndian

// AppendU8 appends one byte.
func AppendU8(b []byte, v uint8) []byte { return append(b, v) }

// AppendU32 appends v in 4 bytes.
func AppendU32(b []byte, v uint32) []byte { return le.AppendUint32(b, v) }

// AppendU64 appends v in 8 bytes.
func AppendU64(b []byte, v uint64) []byte { return le.AppendUint64(b, v) }

// AppendI64 appends v in 8 bytes, two's complement.
func AppendI64(b []byte, v int64) []byte { return AppendU64(b, uint64(v)) }

// AppendF64 appends v's IEEE-754 bits in 8 bytes.
func AppendF64(b []byte, v float64) []byte { return AppendU64(b, math.Float64bits(v)) }

// AppendUvarint appends v as an unsigned LEB128 varint — 1 byte below 128,
// at most 10 — for counts that are small far more often than not.
func AppendUvarint(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }

// UvarintSize is the length of AppendUvarint's encoding of v.
func UvarintSize(v uint64) int {
	n := 1
	for ; v >= 0x80; v >>= 7 {
		n++
	}
	return n
}

// PutU32 overwrites the first 4 bytes of b with v: a length written once what
// it counts has been appended behind it.
func PutU32(b []byte, v uint32) { le.PutUint32(b, v) }

// appendSeq appends a count and each element through one.
func appendSeq[T any](b []byte, vs []T, one func([]byte, T) []byte) []byte {
	b = AppendU32(b, uint32(len(vs)))
	for _, v := range vs {
		b = one(b, v)
	}
	return b
}

// AppendF64s appends a count and each value's bits.
func AppendF64s(b []byte, vs []float64) []byte { return appendSeq(b, vs, AppendF64) }

// AppendI64s appends a count and each value in 8 bytes.
func AppendI64s(b []byte, vs []int64) []byte { return appendSeq(b, vs, AppendI64) }

// AppendInts appends a count and each value in 8 bytes.
func AppendInts(b []byte, vs []int) []byte {
	return appendSeq(b, vs, func(b []byte, v int) []byte { return AppendI64(b, int64(v)) })
}

// AppendBools appends a count and one byte, 0 or 1, per value. A single flag
// is a list of one (Reader.Flag).
func AppendBools(b []byte, vs []bool) []byte {
	b = AppendU32(b, uint32(len(vs)))
	for _, v := range vs {
		if v {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
	}
	return b
}

// AppendBytes appends a length and the bytes.
func AppendBytes(b, v []byte) []byte {
	return append(AppendU32(b, uint32(len(v))), v...)
}

// AppendString appends a length and the string's bytes.
func AppendString(b []byte, s string) []byte {
	return append(AppendU32(b, uint32(len(s))), s...)
}

// AppendStrings appends a count and each string.
func AppendStrings(b []byte, ss []string) []byte { return appendSeq(b, ss, AppendString) }

// F64 decodes the float64 in the first 8 bytes of a span Take returned.
func F64(b []byte) float64 { return math.Float64frombits(le.Uint64(b)) }

// I64 decodes the int64 in the first 8 bytes of a span Take returned.
func I64(b []byte) int64 { return int64(le.Uint64(b)) }

// Reader consumes a buffer front to back. Its failure is sticky: the first
// read the remaining bytes cannot satisfy fails the reader, every read after
// it returns a zero value and consumes nothing, so a decoder reads a run of
// fields linearly and asks Failed once — at the latest before it allocates by
// or indexes with a value it read. Every read goes through Take, the one place
// a length is compared with what remains; Len is Take's check made ahead of
// time for a sequence, so that a count the remaining bytes cannot back fails
// before anything is allocated for it. A Reader is a small value meant to live
// on its decoder's stack: hold it in a local and pass its address down.
type Reader struct {
	b    []byte
	fail bool
}

// NewReader returns a reader over b.
func NewReader(b []byte) Reader { return Reader{b: b} }

// Failed reports whether some read asked for more than remained.
func (r *Reader) Failed() bool { return r.fail }

// Rest returns the bytes not yet consumed.
func (r *Reader) Rest() []byte { return r.b }

// Take consumes the next n bytes and returns them, a view of the input. It
// fails the reader, and returns nil, when fewer than n remain.
func (r *Reader) Take(n int) []byte {
	if r.fail || n < 0 || n > len(r.b) {
		r.fail = true
		return nil
	}
	span := r.b[:n:n]
	r.b = r.b[n:]
	return span
}

// Len consumes a sequence's element count, every element of which occupies at
// least elemBytes bytes of what follows. A count the remaining bytes cannot
// back fails the reader and comes back as 0, so what a decoder allocates for a
// sequence is bounded by the bytes it arrived in.
func (r *Reader) Len(elemBytes int) int {
	n := r.U32()
	if uint64(n)*uint64(elemBytes) > uint64(len(r.b)) {
		r.fail = true
	}
	if r.fail {
		return 0
	}
	return int(n)
}

// U8 consumes one byte.
func (r *Reader) U8() uint8 {
	if s := r.Take(1); s != nil {
		return s[0]
	}
	return 0
}

// U16 consumes 2 bytes.
func (r *Reader) U16() uint16 {
	if s := r.Take(2); s != nil {
		return le.Uint16(s)
	}
	return 0
}

// U32 consumes 4 bytes.
func (r *Reader) U32() uint32 {
	if s := r.Take(4); s != nil {
		return le.Uint32(s)
	}
	return 0
}

// U64 consumes 8 bytes.
func (r *Reader) U64() uint64 {
	if s := r.Take(8); s != nil {
		return le.Uint64(s)
	}
	return 0
}

// I64 consumes 8 bytes as a two's-complement integer.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// F64 consumes 8 bytes as IEEE-754 bits.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// Uvarint consumes one AppendUvarint varint. A truncated or overlong
// encoding fails the reader.
func (r *Reader) Uvarint() uint64 {
	if r.fail {
		return 0
	}
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.fail = true
		return 0
	}
	r.b = r.b[n:]
	return v
}

// Flag consumes a single boolean in its list-of-one form (AppendBools): the
// count must be exactly 1 — an empty or a longer list fails the reader instead
// of reading as false.
func (r *Reader) Flag() bool {
	if r.U32() != 1 {
		r.fail = true
	}
	return r.U8() != 0
}

// Fail fails the reader: a decoder that reads a count or a value out of shape
// poisons the rest of its reads with it and still reports once.
func (r *Reader) Fail() { r.fail = true }

// Resize returns dst at length n when its backing is large enough, else a
// fresh slice; the contents are unspecified. A nil dst always yields a fresh,
// non-nil slice: an empty sequence is still a sequence.
func Resize[T any](dst []T, n int) []T {
	if dst == nil || cap(dst) < n {
		return make([]T, n)
	}
	return dst[:n]
}

// fill decodes a Take span of len(dst) elements, size bytes each, into dst.
// The span of a failed Take is empty and leaves dst as it was. (Small enough
// to inline where get is named, so the loop calls nothing.)
func fill[T any](dst []T, span []byte, size int, get func([]byte) T) {
	for i := 0; len(span) >= size; i++ {
		dst[i], span = get(span), span[size:]
	}
}

// FillF64s consumes len(dst) float64 values, without a count, into dst. A
// failed reader leaves dst as it was.
func (r *Reader) FillF64s(dst []float64) { fill(dst, r.Take(8*len(dst)), 8, F64) }

// FillI64s is FillF64s for int64 values.
func (r *Reader) FillI64s(dst []int64) { fill(dst, r.Take(8*len(dst)), 8, I64) }

// F64s consumes a count and that many float64 values, into dst's backing when
// it is large enough.
func (r *Reader) F64s(dst []float64) []float64 {
	out := Resize(dst, r.Len(8))
	fill(out, r.Take(8*len(out)), 8, F64)
	return out
}

// Ints consumes a count and that many 8-byte integers.
func (r *Reader) Ints() []int {
	out := make([]int, r.Len(8))
	fill(out, r.Take(8*len(out)), 8, func(b []byte) int { return int(I64(b)) })
	return out
}

// Bools consumes a count and one byte per value; any non-zero byte is true.
func (r *Reader) Bools() []bool {
	out := make([]bool, r.Len(1))
	fill(out, r.Take(len(out)), 1, func(b []byte) bool { return b[0] != 0 })
	return out
}

// Bytes consumes a length and that many bytes, returned as a view of the
// input: copy them before the input is reused.
func (r *Reader) Bytes() []byte { return r.Take(r.Len(1)) }

// Str consumes a length and that many bytes as a string. (Not String: a
// reader must not satisfy fmt.Stringer with a method that consumes.)
func (r *Reader) Str() string { return string(r.Bytes()) }

// Strs consumes a count and that many strings.
func (r *Reader) Strs() []string {
	out := make([]string, r.Len(4)) // each string: a u32 length at least
	for i := range out {
		out[i] = r.Str()
	}
	return out
}
