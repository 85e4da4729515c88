package sketch

import "sync"

// Arena recycles the transient objects the sharded fit's streaming passes
// churn through: float/int/code scratch columns and Gram partials — computed
// by a local kernel or, on a distributed fit's coordinator, decoded off the
// wire (Arena.DecodeGram in wire.go). Everything handed out is logically
// fresh — accumulators zeroed, overwrite-only buffers handed out as-is — so
// reuse never changes any computed statistic; it only removes the allocation
// churn of the per-chunk passes.
//
// A nil *Arena pools no Gram — Gram allocates, PutGram drops — which is how
// DecodeGram serves a caller that has none.
//
// An Arena is safe for concurrent use: partition workers take objects while
// the ordered fold returns them from a different goroutine. Operations are
// O(free-list length) under one mutex, which is uncontended next to the
// per-chunk work they bracket.
type Arena struct {
	mu     sync.Mutex
	floats [][]float64
	int32s [][]int32
	int64s [][]int64
	bytes  [][]uint8
	grams  []*Gram
}

// maxArenaSlices bounds each retained slice pool.
const maxArenaSlices = 64

// NewArena creates an empty arena.
func NewArena() *Arena { return &Arena{} }

// takeSlice pops a pooled slice with capacity for n elements, or allocates
// one with capacity c (at least n); the contents are unspecified.
func takeSlice[T any](a *Arena, pool *[][]T, n, c int) []T {
	a.mu.Lock()
	for i, s := range *pool {
		if cap(s) >= n {
			last := len(*pool) - 1
			(*pool)[i] = (*pool)[last]
			(*pool)[last] = nil
			*pool = (*pool)[:last]
			a.mu.Unlock()
			return s[:n]
		}
	}
	a.mu.Unlock()
	return make([]T, n, c)
}

// putSlice returns a slice to its pool, up to maxArenaSlices retained.
func putSlice[T any](a *Arena, pool *[][]T, s []T) {
	if cap(s) == 0 {
		return
	}
	a.mu.Lock()
	if len(*pool) < maxArenaSlices {
		*pool = append(*pool, s[:0])
	}
	a.mu.Unlock()
}

// Floats returns a []float64 of length n with unspecified contents — for
// buffers the caller fully overwrites (transform outputs). Zeroing the big
// per-chunk scratch columns showed up as measurable memclr time.
func (a *Arena) Floats(n int) []float64 { return takeSlice(a, &a.floats, n, n) }

// PutFloats returns a slice taken with Floats.
func (a *Arena) PutFloats(s []float64) { putSlice(a, &a.floats, s) }

// Int32s returns a []int32 of length n with unspecified contents — for id
// slabs the caller fully overwrites.
func (a *Arena) Int32s(n int) []int32 { return takeSlice(a, &a.int32s, n, n) }

// FloatsRoom, Int32sRoom and Int64sRoom are for slabs whose size drifts from
// one use to the next, such as the values a partition gathers: a fresh slab
// has an eighth more capacity than n, so that a slightly larger next request
// still finds it in the pool. The contents are unspecified.
func (a *Arena) FloatsRoom(n int) []float64 { return takeSlice(a, &a.floats, n, n+n/8) }

// Int32sRoom: see FloatsRoom.
func (a *Arena) Int32sRoom(n int) []int32 { return takeSlice(a, &a.int32s, n, n+n/8) }

// PutInt32s returns a slice taken with Int32s or Int32sRoom.
func (a *Arena) PutInt32s(s []int32) { putSlice(a, &a.int32s, s) }

// Int64sRoom: see FloatsRoom.
func (a *Arena) Int64sRoom(n int) []int64 { return takeSlice(a, &a.int64s, n, n+n/8) }

// PutInt64s returns a slice taken with Int64sRoom.
func (a *Arena) PutInt64s(s []int64) { putSlice(a, &a.int64s, s) }

// Bytes returns a []uint8 of length n with unspecified contents — for the
// per-chunk code columns a pass fully overwrites.
func (a *Arena) Bytes(n int) []uint8 { return takeSlice(a, &a.bytes, n, n) }

// PutBytes returns a slice taken with Bytes.
func (a *Arena) PutBytes(s []uint8) { putSlice(a, &a.bytes, s) }

// Gram returns a zeroed co-moment accumulator over k columns.
func (a *Arena) Gram(k int) *Gram {
	if a == nil {
		return NewGram(k)
	}
	a.mu.Lock()
	for i, g := range a.grams {
		if g.k == k {
			last := len(a.grams) - 1
			a.grams[i] = a.grams[last]
			a.grams[last] = nil
			a.grams = a.grams[:last]
			a.mu.Unlock()
			return g
		}
	}
	a.mu.Unlock()
	return NewGram(k)
}

// PutGram zeroes an accumulator and returns it to the pool.
func (a *Arena) PutGram(g *Gram) {
	if a == nil || g == nil {
		return
	}
	g.Reset()
	a.mu.Lock()
	if len(a.grams) < maxArenaSlices {
		a.grams = append(a.grams, g)
	}
	a.mu.Unlock()
}
