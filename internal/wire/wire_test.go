package wire

import (
	"bytes"
	"math"
	"reflect"
	"runtime"
	"testing"
)

// I64s reads back what AppendI64s wrote: it consumes a count and that many int64 values.
func (r *Reader) I64s() []int64 {
	out := make([]int64, r.Len(8))
	fill(out, r.Take(8*len(out)), 8, I64)
	return out
}

// everything appends one value of every kind, in the order TestRoundTrip
// reads them back.
func everything(b []byte) []byte {
	b = AppendU8(b, 0xAB)
	b = AppendU32(b, 0xDEADBEEF)
	b = AppendU64(b, 1<<63|5)
	b = AppendI64(b, math.MinInt64)
	b = AppendF64(b, math.Copysign(0, -1))
	b = AppendF64s(b, []float64{1.5, math.Inf(-1)})
	b = AppendI64s(b, []int64{-1, 1 << 40})
	b = AppendInts(b, []int{-9, 1 << 33})
	b = AppendBools(b, []bool{true, false, true})
	b = AppendBools(b, []bool{true})
	b = AppendBytes(b, []byte{9, 8, 7})
	b = AppendString(b, "héllo")
	b = AppendStrings(b, []string{"", "a", "bc"})
	return b
}

func TestRoundTrip(t *testing.T) {
	enc := everything([]byte{0xFF}) // appends extend, never overwrite
	if enc[0] != 0xFF {
		t.Fatal("append overwrote its prefix")
	}
	r := NewReader(enc[1:])
	if v := r.U8(); v != 0xAB {
		t.Fatalf("U8 = %#x", v)
	}
	if v := r.U32(); v != 0xDEADBEEF {
		t.Fatalf("U32 = %#x", v)
	}
	if v := r.U64(); v != 1<<63|5 {
		t.Fatalf("U64 = %#x", v)
	}
	if v := r.I64(); v != math.MinInt64 {
		t.Fatalf("I64 = %d", v)
	}
	if v := r.F64(); math.Float64bits(v) != math.Float64bits(math.Copysign(0, -1)) {
		t.Fatalf("F64 = %v: the sign of zero did not survive", v)
	}
	if v := r.F64s(nil); !reflect.DeepEqual(v, []float64{1.5, math.Inf(-1)}) {
		t.Fatalf("F64s = %v", v)
	}
	if v := r.I64s(); !reflect.DeepEqual(v, []int64{-1, 1 << 40}) {
		t.Fatalf("I64s = %v", v)
	}
	if v := r.Ints(); !reflect.DeepEqual(v, []int{-9, 1 << 33}) {
		t.Fatalf("Ints = %v", v)
	}
	if v := r.Bools(); !reflect.DeepEqual(v, []bool{true, false, true}) {
		t.Fatalf("Bools = %v", v)
	}
	if !r.Flag() {
		t.Fatal("Flag = false")
	}
	if v := r.Bytes(); !bytes.Equal(v, []byte{9, 8, 7}) {
		t.Fatalf("Bytes = %v", v)
	}
	if v := r.Str(); v != "héllo" {
		t.Fatalf("Str = %q", v)
	}
	if v := r.Strs(); !reflect.DeepEqual(v, []string{"", "a", "bc"}) {
		t.Fatalf("Strs = %q", v)
	}
	if r.Failed() || len(r.Rest()) != 0 {
		t.Fatalf("after the last field: failed=%v, %d bytes left", r.Failed(), len(r.Rest()))
	}
}

// TestLayout pins the bytes: little-endian fixed widths, a u32 count in front
// of every sequence, one byte per bool, raw IEEE-754 bits per float.
func TestLayout(t *testing.T) {
	for _, tc := range []struct {
		name string
		got  []byte
		want []byte
	}{
		{"U32", AppendU32(nil, 0x04030201), []byte{1, 2, 3, 4}},
		{"U64", AppendU64(nil, 0x0807060504030201), []byte{1, 2, 3, 4, 5, 6, 7, 8}},
		{"I64", AppendI64(nil, -2), []byte{0xFE, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}},
		{"F64", AppendF64(nil, 1), []byte{0, 0, 0, 0, 0, 0, 0xF0, 0x3F}},
		{"F64s", AppendF64s(nil, []float64{1}), []byte{1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0xF0, 0x3F}},
		{"F64s-nil", AppendF64s(nil, nil), []byte{0, 0, 0, 0}},
		{"I64s", AppendI64s(nil, []int64{3}), []byte{1, 0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0}},
		{"Ints", AppendInts(nil, []int{3}), []byte{1, 0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0}},
		{"Bools", AppendBools(nil, []bool{false, true}), []byte{2, 0, 0, 0, 0, 1}},
		{"Bytes", AppendBytes(nil, []byte{7}), []byte{1, 0, 0, 0, 7}},
		{"String", AppendString(nil, "ab"), []byte{2, 0, 0, 0, 'a', 'b'}},
		{"Strings", AppendStrings(nil, []string{"a", ""}), []byte{2, 0, 0, 0, 1, 0, 0, 0, 'a', 0, 0, 0, 0}},
	} {
		if !bytes.Equal(tc.got, tc.want) {
			t.Fatalf("%s lays out as % x, want % x", tc.name, tc.got, tc.want)
		}
	}
	b := []byte{0, 0, 0, 0, 9}
	PutU32(b, 0x04030201)
	if !bytes.Equal(b, []byte{1, 2, 3, 4, 9}) {
		t.Fatalf("PutU32 wrote % x", b)
	}
	r := NewReader([]byte{1, 2})
	if v := r.U16(); v != 0x0201 || r.Failed() {
		t.Fatalf("U16 = %#x, failed=%v", v, r.Failed())
	}
}

// TestStickyFailure pins the reader's one rule: the first read the input
// cannot satisfy fails it, and from then on every read returns its zero value
// and consumes nothing.
func TestStickyFailure(t *testing.T) {
	r := NewReader([]byte{1, 2, 3, 4, 5, 6})
	if r.U32() != 0x04030201 || r.Failed() {
		t.Fatal("a backed read failed")
	}
	if v := r.U32(); v != 0 || !r.Failed() {
		t.Fatalf("a 4-byte read of 2 bytes returned %d, failed=%v", v, r.Failed())
	}
	rest := r.Rest()
	if len(rest) != 2 {
		t.Fatalf("the failing read consumed: %d bytes left, want 2", len(rest))
	}
	// Two bytes remain, and a failed reader must not hand them out.
	if r.U8() != 0 || r.U16() != 0 || r.U64() != 0 || r.I64() != 0 || r.F64() != 0 || r.Flag() ||
		r.Take(1) != nil || r.Take(0) != nil || r.Len(1) != 0 || r.Bytes() != nil || r.Str() != "" ||
		len(r.F64s(nil)) != 0 || len(r.I64s()) != 0 || len(r.Ints()) != 0 ||
		len(r.Bools()) != 0 || len(r.Strs()) != 0 {
		t.Fatal("a failed reader returned a non-zero value")
	}
	dst := []float64{7, 7}
	r.FillF64s(dst[:0])
	ints := []int64{7}
	r.FillI64s(ints[:0])
	if len(r.Rest()) != 2 || !r.Failed() {
		t.Fatal("a failed reader consumed input or recovered")
	}
	// A fill the input cannot back leaves its destination alone.
	short := NewReader(make([]byte, 15))
	short.FillF64s(dst)
	if !short.Failed() || dst[0] != 7 || dst[1] != 7 || len(short.Rest()) != 15 {
		t.Fatalf("an unbacked fill wrote %v, failed=%v, %d left", dst, short.Failed(), len(short.Rest()))
	}
	neg := NewReader([]byte{1})
	if neg.Take(-1) != nil || !neg.Failed() {
		t.Fatal("a negative Take did not fail the reader")
	}
}

// TestLenBudget pins the allocation bound: a count is checked against the
// bytes that remain, at the smallest size its elements can have, before
// anything is sized by it.
func TestLenBudget(t *testing.T) {
	huge := AppendU32(nil, 0xFFFFFFFF)
	huge = append(huge, make([]byte, 64)...)
	for name, read := range map[string]func(r *Reader) int{
		"F64s":  func(r *Reader) int { return len(r.F64s(nil)) },
		"I64s":  func(r *Reader) int { return len(r.I64s()) },
		"Ints":  func(r *Reader) int { return len(r.Ints()) },
		"Bools": func(r *Reader) int { return len(r.Bools()) },
		"Bytes": func(r *Reader) int { return len(r.Bytes()) },
		"Strs":  func(r *Reader) int { return len(r.Strs()) },
	} {
		r := NewReader(huge) // on the heap here: its address goes to a func value
		allocs := testing.AllocsPerRun(10, func() {
			r = NewReader(huge)
			if n := read(&r); n != 0 || !r.Failed() {
				t.Fatalf("%s of a 4G count over 64 bytes: %d elements, failed=%v", name, n, r.Failed())
			}
		})
		if allocs != 0 {
			t.Fatalf("%s of a 4G count over 64 bytes allocated %v times", name, allocs)
		}
	}
	// Exactly backed is fine; one element more is not.
	r := NewReader(append(AppendU32(nil, 2), make([]byte, 16)...))
	if r.Len(8) != 2 || r.Failed() {
		t.Fatal("a count its bytes back exactly was refused")
	}
	r = NewReader(append(AppendU32(nil, 3), make([]byte, 16)...))
	if r.Len(8) != 0 || !r.Failed() {
		t.Fatal("a count one element beyond its bytes was accepted")
	}
	r = NewReader([]byte{1, 0})
	if r.Len(0) != 0 || !r.Failed() {
		t.Fatal("a truncated count was accepted")
	}
}

// TestFlag pins the strict single flag: the count must be 1. An empty list
// and a longer one fail the reader — neither reads as false.
func TestFlag(t *testing.T) {
	for _, tc := range []struct {
		in     []byte
		want   bool
		failed bool
	}{
		{AppendBools(nil, []bool{true}), true, false},
		{AppendBools(nil, []bool{false}), false, false},
		{[]byte{1, 0, 0, 0, 7}, true, false}, // any non-zero byte, as Bools reads it
		{AppendBools(nil, nil), false, true},
		{AppendBools(nil, []bool{true, true}), false, true},
		{[]byte{1, 0, 0, 0}, false, true}, // the count without its byte
		{[]byte{1, 0}, false, true},
	} {
		r := NewReader(tc.in)
		if got := r.Flag(); r.Failed() != tc.failed || (!tc.failed && got != tc.want) {
			t.Fatalf("Flag(% x) = %v, failed=%v; want %v, failed=%v", tc.in, got, r.Failed(), tc.want, tc.failed)
		}
		if tc.failed && r.U8() != 0 {
			t.Fatalf("Flag(% x) failed but the reader went on", tc.in)
		}
	}
}

// TestSliceReuse pins the dst contract of F64s and I32s: the backing is reused
// when it is large enough, a nil dst yields a fresh slice that is never nil.
func TestSliceReuse(t *testing.T) {
	enc := AppendF64s(nil, []float64{1, 2, 3})
	backing := make([]float64, 8)
	r := NewReader(enc)
	got := r.F64s(backing[:0])
	if &got[0] != &backing[0] || !reflect.DeepEqual(got, []float64{1, 2, 3}) {
		t.Fatalf("F64s did not decode into the backing it was given: %v", got)
	}
	r = NewReader(enc)
	if grown := r.F64s(make([]float64, 0, 2)); !reflect.DeepEqual(grown, []float64{1, 2, 3}) {
		t.Fatalf("F64s into a short backing: %v", grown)
	}
	r = NewReader(AppendF64s(AppendInts(nil, nil), nil))
	if r.Ints() == nil || r.F64s(nil) == nil || r.Failed() {
		t.Fatal("an empty sequence decoded to nil: it is still a sequence")
	}
}

// decodeSome is a decoder in the shape the three formats have: a reader in a
// local, its address passed down.
func decodeSome(b []byte, dst []float64) (uint32, int64, bool) {
	r := NewReader(b)
	tag := r.U32()
	n := readInner(&r)
	r.FillF64s(dst)
	return tag, n, r.Failed()
}

func readInner(r *Reader) int64 { return r.I64() + int64(r.Len(8)) }

// TestReaderStaysOnTheStack pins what the distributed fit's allocation budget
// relies on: decoding through a Reader allocates nothing of its own.
func TestReaderStaysOnTheStack(t *testing.T) {
	enc := AppendF64s(AppendI64(AppendU32(nil, 9), 4), []float64{1, 2})
	dst := make([]float64, 2)
	allocs := testing.AllocsPerRun(100, func() {
		if tag, n, failed := decodeSome(enc, dst); tag != 9 || n != 6 || failed {
			t.Fatalf("decodeSome = %d, %d, %v", tag, n, failed)
		}
	})
	if allocs != 0 || dst[1] != 2 {
		t.Fatalf("a decode through a Reader allocates %v times", allocs)
	}
}

// FuzzReader drives a reader over arbitrary bytes with an arbitrary script of
// reads. Whatever the two say: no panic; a read never consumes more than was
// there nor un-consumes; a sequence never comes back with more elements than
// the bytes that were left could hold; once the reader has failed it stays
// failed, returns nothing and consumes nothing; and the whole script allocates
// no more than a small multiple of the input.
func FuzzReader(f *testing.F) {
	f.Add(everything(nil), []byte{0, 2, 3, 2, 3, 3, 6, 7, 8, 9, 10, 11, 12, 13, 14})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 1, 2, 3}, []byte{6, 7, 8, 9, 10, 12, 14})
	f.Add(AppendStrings(nil, []string{"ab", "c"}), []byte{14, 4, 5})
	f.Add([]byte{2, 0, 0, 0, 1, 1}, []byte{11, 0})
	f.Add([]byte{}, []byte{1, 4, 15})
	f.Fuzz(func(t *testing.T, data, script []byte) {
		if len(script) > 64 {
			script = script[:64]
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		r := NewReader(data)
		for _, op := range script {
			left, wasFailed := len(r.Rest()), r.Failed()
			elems, elemBytes := 0, 1 // what a sequence read returned, at its smallest element size
			zero := true             // whether the read returned its zero value
			switch op % 16 {
			case 0:
				zero = r.U8() == 0
			case 1:
				zero = r.U16() == 0
			case 2:
				zero = r.U32() == 0
			case 3:
				zero = r.U64() == 0
			case 4:
				zero = r.F64() == 0
			case 5:
				n := int(op / 16)
				span := r.Take(n)
				zero = span == nil
				if span != nil && len(span) != n {
					t.Fatalf("Take(%d) returned %d bytes", n, len(span))
				}
			case 6:
				elems, elemBytes = len(r.F64s(nil)), 8
			case 7:
				elems, elemBytes = len(r.I64s()), 8
			case 8:
				zero = r.Uvarint() == 0
			case 9:
				elems, elemBytes = len(r.Ints()), 8
			case 10:
				elems = len(r.Bools())
			case 11:
				zero = !r.Flag()
			case 12:
				elems = len(r.Bytes())
			case 13:
				elems = len(r.Str())
			case 14:
				elems, elemBytes = len(r.Strs()), 4
			case 15:
				elems, elemBytes = r.Len(int(op/16)), int(op/16)
			}
			now := len(r.Rest())
			if now > left {
				t.Fatalf("op %d un-consumed: %d bytes left, then %d", op, left, now)
			}
			if elems*elemBytes > left {
				t.Fatalf("op %d returned %d elements of >= %d bytes with %d bytes left", op, elems, elemBytes, left)
			}
			if wasFailed && (!r.Failed() || now != left || elems != 0 || !zero) {
				t.Fatalf("op %d on a failed reader: failed=%v, consumed %d, %d elements, zero=%v", op, r.Failed(), left-now, elems, zero)
			}
		}
		runtime.ReadMemStats(&after)
		// Strs is the widest: a 16-byte header for an element of at least 4.
		if spent, limit := after.TotalAlloc-before.TotalAlloc, 8*uint64(len(data))+8<<10; spent > limit {
			t.Fatalf("a script over %d bytes allocated %d (limit %d)", len(data), spent, limit)
		}
	})
}

// TestUvarint pins the varint: encoding/binary's LEB128 bytes, UvarintSize
// equal to what AppendUvarint wrote, and a truncated or overlong encoding
// failing the reader like any other short read.
func TestUvarint(t *testing.T) {
	for _, v := range []uint64{0, 1, 127, 128, 300, 1 << 32, math.MaxUint64} {
		b := AppendUvarint([]byte{0xEE}, v)[1:]
		if len(b) != UvarintSize(v) {
			t.Fatalf("%d: %d bytes written, UvarintSize says %d", v, len(b), UvarintSize(v))
		}
		r := NewReader(b)
		if got := r.Uvarint(); got != v || r.Failed() || len(r.Rest()) != 0 {
			t.Fatalf("%d read back as %d (failed=%v, %d left)", v, got, r.Failed(), len(r.Rest()))
		}
		if len(b) > 1 {
			short := NewReader(b[:len(b)-1])
			if short.Uvarint(); !short.Failed() {
				t.Fatalf("%d truncated to %d bytes read without failing", v, len(b)-1)
			}
		}
	}
	if !bytes.Equal(AppendUvarint(nil, 300), []byte{0xAC, 0x02}) {
		t.Fatal("300 is not laid out as LEB128")
	}
	over := NewReader(bytes.Repeat([]byte{0xFF}, 11))
	if over.Uvarint(); !over.Failed() {
		t.Fatal("an 11-byte varint read without failing")
	}
	if over.Uvarint() != 0 {
		t.Fatal("a failed reader read a varint")
	}
}
