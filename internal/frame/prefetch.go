package frame

import (
	"io"
	"sync"
)

// StableSource marks a ChunkSource whose chunk value slices stay valid
// across Next and Reset calls — only the Chunk struct and its Cols header
// slice may be reused. FrameChunks is stable (its chunks are views of a
// resident frame); CSVChunks is not (it reuses column buffers). Prefetch
// skips copying values for stable sources. A source may turn stable in a
// Reset (colstore.Spill does, when it swaps to its mapped file) but never
// the reverse: a lease holding stable views must not become a copy buffer.
type StableSource interface {
	StableChunks() bool
}

// Prefetch wraps a ChunkSource with a bounded background reader: while the
// consumer processes one chunk, the next depth chunks are already being read
// and decoded. Each chunk Next returns is an independent lease — valid until
// Recycle, regardless of later Next or Reset calls — so the reader can refill
// a buffer-reusing source while the consumer still computes on the previous
// chunk, and a consumer may hold several chunks at once.
//
// For unstable sources values are copied into recycled lease buffers; for
// StableSource sources only the chunk header is copied, from the first Reset
// at which the source reports itself stable. Reset restarts the stream;
// Close stops the background reader and must be called when done
// (Reset and Close both return only after the reader goroutine has exited,
// so Prefetch never leaks goroutines). Errors from the wrapped source,
// including io.EOF, are delivered in stream order through Next and stick
// until the following Reset.
//
// Next, Recycle, Reset and Close may be called from different goroutines
// but not concurrently with each other, except Recycle, which is safe to
// call concurrently with everything (workers return leases while the
// coordinator reads ahead).
type Prefetch struct {
	src    ChunkSource
	depth  int
	stable bool

	ch     chan prefetched
	quit   chan struct{}
	wg     sync.WaitGroup
	sticky error

	free chan *Chunk
}

type prefetched struct {
	c   *Chunk
	err error
}

// NewPrefetch wraps src with a read-ahead of depth chunks (minimum 1) and a
// lease pool sized for leases chunks concurrently held by the consumer.
// The reader starts on the first Next or Reset.
func NewPrefetch(src ChunkSource, depth, leases int) *Prefetch {
	if depth < 1 {
		depth = 1
	}
	if leases < 1 {
		leases = 1
	}
	return &Prefetch{
		src:   src,
		depth: depth,
		free:  make(chan *Chunk, depth+leases+2),
	}
}

// Names implements ChunkSource.
func (p *Prefetch) Names() []string { return p.src.Names() }

// NumCols implements ChunkSource.
func (p *Prefetch) NumCols() int { return p.src.NumCols() }

// Reset implements ChunkSource: it stops the current reader, rewinds the
// wrapped source and starts reading ahead again.
func (p *Prefetch) Reset() error {
	p.stop()
	if err := p.src.Reset(); err != nil {
		p.sticky = err
		return err
	}
	// Read here, with the reader stopped and the source just rewound: a
	// source that became stable in its Reset stops being copied.
	if ss, ok := p.src.(StableSource); ok && !p.stable {
		p.stable = ss.StableChunks()
	}
	p.start()
	return nil
}

// Next implements ChunkSource. The returned chunk stays valid until it is
// passed to Recycle.
func (p *Prefetch) Next() (*Chunk, error) {
	if p.sticky != nil {
		return nil, p.sticky
	}
	if p.ch == nil {
		if err := p.Reset(); err != nil {
			return nil, err
		}
	}
	pf := <-p.ch
	if pf.err != nil {
		p.sticky = pf.err
		return nil, pf.err
	}
	return pf.c, nil
}

// Recycle returns a chunk obtained from Next to the lease pool. Chunks that
// are never recycled are simply collected by the GC; recycling is what keeps
// steady-state reads allocation-free. Safe for concurrent use.
func (p *Prefetch) Recycle(c *Chunk) {
	if c == nil {
		return
	}
	select {
	case p.free <- c:
	default:
	}
}

// Close stops the background reader and waits for it to exit. The wrapped
// source is not closed. Close is idempotent, and the Prefetch can be
// restarted afterwards with Reset.
func (p *Prefetch) Close() error {
	p.stop()
	return nil
}

func (p *Prefetch) start() {
	p.sticky = nil
	p.ch = make(chan prefetched, p.depth)
	p.quit = make(chan struct{})
	p.wg.Add(1)
	go p.read(p.ch, p.quit)
}

// stop shuts down the reader (if running) and drains undelivered chunks
// back into the lease pool.
func (p *Prefetch) stop() {
	if p.quit == nil {
		return
	}
	close(p.quit)
	p.wg.Wait()
	for {
		select {
		case pf := <-p.ch:
			p.Recycle(pf.c)
		default:
			p.ch, p.quit = nil, nil
			return
		}
	}
}

// read is the background reader: it pulls chunks from the wrapped source,
// leases them, and sends them (or the terminal error) down ch until the
// stream ends or quit closes.
func (p *Prefetch) read(ch chan prefetched, quit chan struct{}) {
	defer p.wg.Done()
	for {
		select {
		case <-quit:
			return
		default:
		}
		c, err := p.src.Next()
		out := prefetched{err: err}
		if err == nil {
			out = prefetched{c: p.lease(c)}
		}
		select {
		case ch <- out:
			if err != nil {
				return // io.EOF or a read error ends the pass
			}
		case <-quit:
			p.Recycle(out.c)
			return
		}
	}
}

// lease turns a source-owned chunk into an independently valid one, reusing
// a recycled lease when available.
func (p *Prefetch) lease(c *Chunk) *Chunk {
	var l *Chunk
	select {
	case l = <-p.free:
	default:
		l = &Chunk{}
	}
	l.Index, l.Start = c.Index, c.Start
	if cap(l.Cols) < len(c.Cols) {
		l.Cols = make([][]float64, len(c.Cols))
	} else {
		l.Cols = l.Cols[:len(c.Cols)]
	}
	if p.stable {
		// Values are stable; only the header slices need copying. A lease
		// only ever goes from copies to views, so overwriting its slots drops
		// copy buffers that are no longer needed and nothing else.
		copy(l.Cols, c.Cols)
		l.Label = c.Label
		return l
	}
	for j, col := range c.Cols {
		l.Cols[j] = append(l.Cols[j][:0], col...)
	}
	if c.Label != nil {
		l.Label = append(l.Label[:0], c.Label...)
	} else {
		l.Label = nil
	}
	return l
}

var _ ChunkSource = (*Prefetch)(nil)
var _ io.Closer = (*Prefetch)(nil)
