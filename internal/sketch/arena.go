package sketch

import "sync"

// Arena recycles the transient objects the sharded fit's streaming passes
// churn through: per-partition quantile sketch partials, float/int/code scratch
// columns, and Gram partials — computed by a local kernel or, on a
// distributed fit's coordinator, decoded off the wire (DecodeQuantile and
// DecodeGram in wire.go). Everything handed out is logically fresh —
// sketches are Reset, accumulators zeroed, overwrite-only buffers handed
// out as-is — so reuse never changes any computed statistic; it only
// removes the allocation churn that dominated the sharded engine's profile
// (partial sketches alone were ~80% of allocs).
//
// A nil *Arena pools nothing — Quantile and Gram allocate, PutQuantile and
// PutGram drop — which is how the wire decoders serve a caller that has none.
//
// An Arena is safe for concurrent use: partition workers take objects while
// the ordered fold returns them from a different goroutine. Operations are
// O(free-list length) under one mutex, which is uncontended next to the
// per-chunk work they bracket.
type Arena struct {
	mu     sync.Mutex
	quants map[int][]*Quantile
	floats [][]float64
	int32s [][]int32
	bytes  [][]uint8
	grams  []*Gram
}

// maxArenaSlices bounds each retained slice pool.
const maxArenaSlices = 64

// maxArenaQuants bounds the retained quantile pool per size. A sketch pass
// holds one partial per sketched column simultaneously — hundreds for wide
// inputs — so this is far above maxArenaSlices: a pooled partial retains only
// compacted backings (see AddSortedScratch), and letting the pool cover every
// column is what makes the pass allocation-free in steady state.
const maxArenaQuants = 1024

// NewArena creates an empty arena.
func NewArena() *Arena {
	return &Arena{quants: make(map[int][]*Quantile)}
}

// Quantile returns a fresh (reset) sketch of the given per-level size.
func (a *Arena) Quantile(size int) *Quantile {
	if size <= 0 {
		size = DefaultSize
	}
	if a == nil {
		return NewQuantile(size)
	}
	a.mu.Lock()
	pool := a.quants[size]
	if n := len(pool); n > 0 {
		q := pool[n-1]
		pool[n-1] = nil
		a.quants[size] = pool[:n-1]
		a.mu.Unlock()
		return q
	}
	a.mu.Unlock()
	return NewQuantile(size)
}

// PutQuantile resets a sketch and returns it to the pool.
func (a *Arena) PutQuantile(q *Quantile) {
	if a == nil || q == nil {
		return
	}
	q.Reset()
	a.mu.Lock()
	if len(a.quants[q.size]) < maxArenaQuants {
		a.quants[q.size] = append(a.quants[q.size], q)
	}
	a.mu.Unlock()
}

// takeSlice pops a pooled slice with capacity for n elements, or allocates
// one; the contents are unspecified.
func takeSlice[T any](a *Arena, pool *[][]T, n int) []T {
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
	return make([]T, n)
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
func (a *Arena) Floats(n int) []float64 { return takeSlice(a, &a.floats, n) }

// PutFloats returns a slice taken with Floats.
func (a *Arena) PutFloats(s []float64) { putSlice(a, &a.floats, s) }

// Int32s returns a []int32 of length n with unspecified contents — for id
// slabs the caller fully overwrites.
func (a *Arena) Int32s(n int) []int32 { return takeSlice(a, &a.int32s, n) }

// PutInt32s returns a slice taken with Int32s.
func (a *Arena) PutInt32s(s []int32) { putSlice(a, &a.int32s, s) }

// Bytes returns a []uint8 of length n with unspecified contents — for the
// per-chunk code columns a pass fully overwrites.
func (a *Arena) Bytes(n int) []uint8 { return takeSlice(a, &a.bytes, n) }

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
