package operators

// Arena is a free list of equal-length float64 column buffers. The SAFE
// generation loop evaluates thousands of candidate features per round and
// immediately discards most of them at the IV filter; recycling their
// columns through an arena turns that churn into O(live features) steady
// allocations instead of O(candidates).
//
// An Arena is not safe for concurrent use: the fit hot path owns one per
// engineer and gets/puts only from the coordinating goroutine.
type Arena struct {
	rows int
	free [][]float64
}

// NewArena creates an arena handing out buffers of the given row count.
func NewArena(rows int) *Arena {
	return &Arena{rows: rows}
}

// Rows returns the buffer length this arena serves.
func (a *Arena) Rows() int { return a.rows }

// Get returns a buffer of length Rows. Contents are unspecified — every
// element is about to be overwritten by an Applier's TransformInto.
func (a *Arena) Get() []float64 {
	if n := len(a.free); n > 0 {
		buf := a.free[n-1]
		a.free = a.free[:n-1]
		return buf
	}
	return make([]float64, a.rows)
}

// Put returns a buffer to the arena. Buffers of the wrong length (or nil)
// are dropped, so callers can Put unconditionally.
func (a *Arena) Put(buf []float64) {
	if len(buf) != a.rows {
		return
	}
	a.free = append(a.free, buf)
}
