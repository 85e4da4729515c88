package frame

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"testing"
	"time"
)

// prefetchFrame builds a small labelled frame with distinct per-row values
// so delivery-order and copy bugs surface as value mismatches.
func prefetchFrame(rows, cols int) *Frame {
	f := NewWithShape(rows, cols)
	for j := 0; j < cols; j++ {
		for i := 0; i < rows; i++ {
			f.Columns[j].Values[i] = float64(j*rows + i)
		}
	}
	for i := 0; i < rows; i++ {
		f.Label[i] = float64(i % 2)
	}
	return f
}

// unstableChunks deliberately reuses one value buffer across Next calls —
// the worst-case ChunkSource contract (CSVChunks behaves this way) — and
// can be armed to fail at a given chunk ordinal.
type unstableChunks struct {
	src    *FrameChunks
	buf    [][]float64
	label  []float64
	calls  int
	failAt int   // fail on this 0-based Next ordinal; -1 disables
	err    error // the error to return at failAt
}

func newUnstableChunks(f *Frame, chunkRows int) *unstableChunks {
	return &unstableChunks{src: NewFrameChunks(f, chunkRows), failAt: -1}
}

func (u *unstableChunks) Names() []string { return u.src.Names() }
func (u *unstableChunks) NumCols() int    { return u.src.NumCols() }
func (u *unstableChunks) Reset() error    { u.calls = 0; return u.src.Reset() }

func (u *unstableChunks) Next() (*Chunk, error) {
	if u.failAt >= 0 && u.calls == u.failAt {
		return nil, u.err
	}
	u.calls++
	c, err := u.src.Next()
	if err != nil {
		return nil, err
	}
	// Copy into the shared buffer: the next Next call overwrites it.
	if u.buf == nil {
		u.buf = make([][]float64, len(c.Cols))
	}
	out := &Chunk{Index: c.Index, Start: c.Start, Cols: u.buf}
	for j, col := range c.Cols {
		u.buf[j] = append(u.buf[j][:0], col...)
	}
	u.label = append(u.label[:0], c.Label...)
	out.Label = u.label
	return out, nil
}

// drain reads the stream to EOF, checking indices arrive in order and every
// value matches the backing frame.
func drain(t *testing.T, p *Prefetch, f *Frame, recycle bool) int {
	t.Helper()
	want := 0
	for {
		c, err := p.Next()
		if errors.Is(err, io.EOF) {
			return want
		}
		if err != nil {
			t.Fatalf("chunk %d: %v", want, err)
		}
		if c.Index != want {
			t.Fatalf("chunk arrived out of order: got index %d want %d", c.Index, want)
		}
		for j, col := range c.Cols {
			for i, v := range col {
				if exp := f.Columns[j].Values[c.Start+i]; v != exp {
					t.Fatalf("chunk %d col %d row %d: got %v want %v", c.Index, j, i, v, exp)
				}
			}
		}
		for i, v := range c.Label {
			if exp := f.Label[c.Start+i]; v != exp {
				t.Fatalf("chunk %d label row %d: got %v want %v", c.Index, i, v, exp)
			}
		}
		if recycle {
			p.Recycle(c)
		}
		want++
	}
}

// TestPrefetchDeliveryOrder pins that read-ahead never reorders the stream:
// chunks arrive in partition index order with exact values, for both a
// stable (zero-copy) and an unstable (buffer-reusing) source, across
// repeated Reset passes and every read-ahead depth.
func TestPrefetchDeliveryOrder(t *testing.T) {
	f := prefetchFrame(100, 3)
	for _, depth := range []int{1, 2, 7, 100} {
		for _, stable := range []bool{true, false} {
			name := fmt.Sprintf("depth=%d/stable=%v", depth, stable)
			t.Run(name, func(t *testing.T) {
				var src ChunkSource = NewFrameChunks(f, 9) // 12 chunks
				if !stable {
					src = newUnstableChunks(f, 9)
				}
				p := NewPrefetch(src, depth, 2)
				defer p.Close()
				for pass := 0; pass < 3; pass++ {
					if pass > 0 {
						if err := p.Reset(); err != nil {
							t.Fatal(err)
						}
					}
					if got := drain(t, p, f, pass%2 == 0); got != 12 {
						t.Fatalf("pass %d delivered %d chunks, want 12", pass, got)
					}
					// The stream stays at EOF until the next Reset.
					if _, err := p.Next(); !errors.Is(err, io.EOF) {
						t.Fatalf("post-EOF Next: %v", err)
					}
				}
			})
		}
	}
}

// TestPrefetchHoldsLeasesAcrossNext pins the lease contract the parallel
// shard workers rely on: with an unstable source, a chunk stays valid after
// later Next and even Reset calls, until it is recycled.
func TestPrefetchHoldsLeasesAcrossNext(t *testing.T) {
	f := prefetchFrame(60, 2)
	p := NewPrefetch(newUnstableChunks(f, 10), 2, 6) // 6 chunks
	defer p.Close()

	var held []*Chunk
	for {
		c, err := p.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		held = append(held, c)
	}
	if err := p.Reset(); err != nil { // must not invalidate outstanding leases
		t.Fatal(err)
	}
	for _, c := range held {
		for j, col := range c.Cols {
			for i, v := range col {
				if exp := f.Columns[j].Values[c.Start+i]; v != exp {
					t.Fatalf("lease %d col %d row %d corrupted after Reset: got %v want %v", c.Index, j, i, v, exp)
				}
			}
		}
		p.Recycle(c)
	}
	if got := drain(t, p, f, true); got != 6 {
		t.Fatalf("post-Reset pass delivered %d chunks, want 6", got)
	}
}

// TestPrefetchLeaseRecycling pins that recycled leases are actually reused:
// after a warmup pass has populated the pool, further passes over an
// unstable source deliver chunks through the same lease structs instead of
// allocating fresh ones.
func TestPrefetchLeaseRecycling(t *testing.T) {
	f := prefetchFrame(40, 2)
	p := NewPrefetch(newUnstableChunks(f, 10), 1, 1) // 4 chunks per pass
	defer p.Close()
	seen := make(map[*Chunk]bool)
	for pass := 0; pass < 4; pass++ {
		for {
			c, err := p.Next()
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			seen[c] = true
			p.Recycle(c)
		}
		if err := p.Reset(); err != nil {
			t.Fatal(err)
		}
	}
	// 16 chunk deliveries; with recycling the distinct lease structs stay
	// bounded by the pool capacity (depth + leases + 2), not the delivery
	// count.
	if len(seen) > 4 {
		t.Fatalf("leases not recycled: %d distinct chunk structs across 16 deliveries", len(seen))
	}
}

// turningStable reads through buffer-reusing chunks for its first pass and
// serves views of the resident frame from the first Reset after it — the
// shape of a source that spills its first pass and maps the result.
type turningStable struct {
	*unstableChunks
	views  *FrameChunks
	passes int
}

func (s *turningStable) Reset() error {
	s.passes++
	if s.passes > 1 {
		return s.views.Reset()
	}
	return s.unstableChunks.Reset()
}

func (s *turningStable) Next() (*Chunk, error) {
	if s.passes > 1 {
		return s.views.Next()
	}
	return s.unstableChunks.Next()
}

func (s *turningStable) StableChunks() bool { return s.passes > 1 }

// TestPrefetchSourceTurnsStable pins that stability is read at every Reset,
// not once at construction: the first pass over an unstable source is copied
// into leases, and once the source reports itself stable the same recycled
// leases carry views — no value is copied, and none is written through a
// view when a lease is reused.
func TestPrefetchSourceTurnsStable(t *testing.T) {
	f := prefetchFrame(60, 3)
	want := prefetchFrame(60, 3)
	src := &turningStable{unstableChunks: newUnstableChunks(f, 10), views: NewFrameChunks(f, 10)}
	p := NewPrefetch(src, 2, 1)
	defer p.Close()
	isView := func(c *Chunk) bool {
		return &c.Cols[0][0] == &f.Columns[0].Values[c.Start] && &c.Label[0] == &f.Label[c.Start]
	}
	for pass := 0; pass < 4; pass++ {
		if err := p.Reset(); err != nil {
			t.Fatal(err)
		}
		n := 0
		for {
			c, err := p.Next()
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			if got := isView(c); got != (pass > 0) {
				t.Fatalf("pass %d chunk %d: lease is a view = %v, want %v", pass, c.Index, got, pass > 0)
			}
			for j, col := range c.Cols {
				for i, v := range col {
					if exp := want.Columns[j].Values[c.Start+i]; v != exp {
						t.Fatalf("pass %d chunk %d col %d row %d: got %v want %v", pass, c.Index, j, i, v, exp)
					}
				}
			}
			p.Recycle(c)
			n++
		}
		if n != 6 {
			t.Fatalf("pass %d delivered %d chunks, want 6", pass, n)
		}
	}
	// Reusing a lease must never have copied one chunk's rows over another's.
	for j := range want.Columns {
		for i, exp := range want.Columns[j].Values {
			if f.Columns[j].Values[i] != exp {
				t.Fatalf("resident col %d row %d overwritten through a recycled view: got %v want %v", j, i, f.Columns[j].Values[i], exp)
			}
		}
	}
}

// TestPrefetchStickyError pins error delivery: a mid-stream read error
// arrives in stream order (after the preceding good chunks), sticks across
// subsequent Next calls, and clears on Reset.
func TestPrefetchStickyError(t *testing.T) {
	f := prefetchFrame(50, 2)
	boom := errors.New("disk on fire")
	src := newUnstableChunks(f, 10) // 5 chunks
	src.failAt, src.err = 3, boom

	p := NewPrefetch(src, 2, 2)
	defer p.Close()
	for i := 0; i < 3; i++ {
		c, err := p.Next()
		if err != nil {
			t.Fatalf("chunk %d: %v", i, err)
		}
		p.Recycle(c)
	}
	if _, err := p.Next(); !errors.Is(err, boom) {
		t.Fatalf("expected the read error, got %v", err)
	}
	// The error sticks: the consumer cannot accidentally read past it.
	for i := 0; i < 3; i++ {
		if _, err := p.Next(); !errors.Is(err, boom) {
			t.Fatalf("sticky error lost on retry %d: %v", i, err)
		}
	}
	// Reset clears the sticky error; with the fault removed the stream
	// completes.
	src.failAt = -1
	if err := p.Reset(); err != nil {
		t.Fatal(err)
	}
	if got := drain(t, p, f, true); got != 5 {
		t.Fatalf("post-Reset pass delivered %d chunks, want 5", got)
	}
}

// TestPrefetchResetErrorSticks: when the wrapped source fails to rewind,
// the Reset error is returned and sticks through Next.
func TestPrefetchResetErrorSticks(t *testing.T) {
	boom := errors.New("rewind failed")
	p := NewPrefetch(&failingReset{err: boom}, 1, 1)
	defer p.Close()
	if err := p.Reset(); !errors.Is(err, boom) {
		t.Fatalf("Reset: got %v want %v", err, boom)
	}
	if _, err := p.Next(); !errors.Is(err, boom) {
		t.Fatalf("Next after failed Reset: got %v want %v", err, boom)
	}
}

// failingReset is a ChunkSource whose Reset always errors.
type failingReset struct{ err error }

func (s *failingReset) Names() []string       { return []string{"x"} }
func (s *failingReset) NumCols() int          { return 1 }
func (s *failingReset) Reset() error          { return s.err }
func (s *failingReset) Next() (*Chunk, error) { return nil, io.EOF }

// goroutineLeakCheck snapshots the goroutine count and asserts the process
// returns to it before the test ends (same pattern as the top-level fit
// cancellation tests).
func goroutineLeakCheck(t *testing.T) func() {
	t.Helper()
	base := runtime.NumGoroutine()
	return func() {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for {
			if n := runtime.NumGoroutine(); n <= base {
				return
			}
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<20)
				n := runtime.Stack(buf, true)
				t.Fatalf("goroutine leak: %d > baseline %d\n%s", runtime.NumGoroutine(), base, buf[:n])
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
}

// TestPrefetchCloseMidStream pins the shutdown path: closing (or resetting)
// with the reader mid-stream and the channel full must stop the background
// goroutine promptly, and Close must be idempotent and restartable.
func TestPrefetchCloseMidStream(t *testing.T) {
	f := prefetchFrame(200, 2)
	check := goroutineLeakCheck(t)
	p := NewPrefetch(NewFrameChunks(f, 10), 3, 2) // 20 chunks, read-ahead 3
	// Pull one chunk so the reader is certainly running and blocked on a
	// full channel, then abandon the stream.
	c, err := p.Next()
	if err != nil {
		t.Fatal(err)
	}
	p.Recycle(c)
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	check()

	// The prefetcher restarts cleanly after Close.
	if err := p.Reset(); err != nil {
		t.Fatal(err)
	}
	if got := drain(t, p, f, true); got != 20 {
		t.Fatalf("post-Close pass delivered %d chunks, want 20", got)
	}
	p.Close()
	check()
}
