package colstore

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"

	"repro/internal/frame"
)

// Spill makes a multi-pass consumer pay for a source's decode once. During
// the first pass it hands every chunk of the wrapped source through
// unchanged and appends it to a colstore file in os.TempDir(), one row group
// per chunk, so partition Index, Start and row counts are the source's own.
// The first Reset after a pass that reached io.EOF finishes the file, maps it
// and serves every later pass from the mapping — bit-identical values,
// nothing decoded again — at 8 bytes × rows × (columns + label) of temp
// space. A pass that stops early (cancellation, a read error) keeps nothing:
// the next Reset discards the partial file and tees again.
//
// The temp file is never required. If it cannot be created or written, or
// the source's chunks are not equal-sized row groups in order, the spill
// reports the reason once on standard error and reads the wrapped source on
// every pass from then on. The file is unlinked as soon as it is mapped where
// the OS allows, and by Close otherwise.
//
// Spill deliberately does not implement frame.SkippableSource: the file's
// block statistics are not offered to pass planning, so a spilled fit
// streams exactly the rows a fit over the wrapped source streams.
//
// Like the sources it wraps, a Spill is used from one goroutine at a time.
type Spill struct {
	src frame.ChunkSource

	// The tee of the pass in flight; f is nil until its first chunk.
	f         *os.File
	w         *Writer
	path      string // temp file still on disk, "" once removed
	groupRows int
	complete  bool // the pass reached io.EOF with every chunk teed

	mapped Source // serves every pass after the swap
	off    bool   // spilling was abandoned; src is read on every pass
	report func(error)
}

// NewSpill wraps src. Nothing touches the temp directory until the first
// chunk is read. Close closes src too when it is an io.Closer.
func NewSpill(src frame.ChunkSource) *Spill {
	return &Spill{src: src, report: func(err error) {
		fmt.Fprintf(os.Stderr, "colstore: not spilling, the source is re-read on every pass: %v\n", err)
	}}
}

// OpenCSV opens a CSV file as a chunk source that is parsed once: a Spill
// over frame.OpenCSVChunks, with that function's arguments.
func OpenCSV(path, labelCol string, chunkRows int) (*Spill, error) {
	src, err := frame.OpenCSVChunks(path, labelCol, chunkRows)
	if err != nil {
		return nil, err
	}
	return NewSpill(src), nil
}

// Names implements frame.ChunkSource.
func (s *Spill) Names() []string { return s.src.Names() }

// NumCols implements frame.ChunkSource.
func (s *Spill) NumCols() int { return s.src.NumCols() }

// StableChunks implements frame.StableSource: false while the wrapped source
// is being read, the mapped reader's answer after the swap.
func (s *Spill) StableChunks() bool {
	ss, ok := s.mapped.(frame.StableSource)
	return ok && ss.StableChunks()
}

// Reset implements frame.ChunkSource. It is where the swap happens.
func (s *Spill) Reset() error {
	if s.mapped != nil {
		return s.mapped.Reset()
	}
	if s.complete {
		err := s.swap()
		if err == nil {
			return nil
		}
		s.abandon(err)
	}
	s.discard() // an unfinished pass keeps nothing
	return s.src.Reset()
}

// Next implements frame.ChunkSource.
func (s *Spill) Next() (*frame.Chunk, error) {
	if s.mapped != nil {
		return s.mapped.Next()
	}
	c, err := s.src.Next()
	if s.off {
		return c, err
	}
	if err == nil {
		s.tee(c)
	} else if errors.Is(err, io.EOF) {
		s.complete = s.f != nil
	}
	return c, err
}

// tee appends one chunk of the first pass to the temp file, creating it on
// the first chunk.
func (s *Spill) tee(c *frame.Chunk) {
	rows := c.NumRows()
	if s.f == nil {
		if err := s.create(c.Label != nil, rows); err != nil {
			s.abandon(err)
			return
		}
	}
	// Row groups reproduce the partitions only for chunks that arrive in
	// order, all of one size but the last: each starts where the file ends,
	// on its own multiple of the group size (which no chunk after a short one
	// can do).
	if c.Start != s.w.Rows() || c.Start != c.Index*s.groupRows || rows > s.groupRows {
		s.abandon(fmt.Errorf("chunk %d (%d rows from row %d) does not continue %d-row groups", c.Index, rows, c.Start, s.groupRows))
		return
	}
	if err := s.w.AppendChunk(c); err != nil {
		s.abandon(err)
	}
}

// create starts the temp file. It is a scratch file: owner-only, and never
// synced, because nothing reads it after a crash.
func (s *Spill) create(withLabel bool, groupRows int) error {
	f, err := os.CreateTemp("", "safe-spill-*.col")
	if err != nil {
		return err
	}
	s.f, s.path, s.groupRows = f, f.Name(), groupRows
	s.w, err = NewWriter(bufio.NewWriterSize(f, 1<<20), FrameSchema(s.src.Names(), withLabel), WriterOptions{GroupRows: groupRows})
	return err
}

// swap finishes the teed file and opens it as the source of every later
// pass.
func (s *Spill) swap() error {
	err := s.w.Close()
	if cerr := s.f.Close(); err == nil {
		err = cerr
	}
	s.f, s.w = nil, nil
	if err != nil {
		return err
	}
	m, err := OpenSource(s.path)
	if err != nil {
		return err
	}
	s.mapped = m
	// An open mapping or descriptor keeps the bytes alive on unix, so a fit
	// that is killed leaves nothing behind; elsewhere Close removes the file.
	if os.Remove(s.path) == nil {
		s.path = ""
	}
	return nil
}

// discard drops the tee of an unfinished pass, and whatever file is left.
func (s *Spill) discard() {
	if s.f != nil {
		s.f.Close()
		s.f, s.w = nil, nil
	}
	if s.path != "" {
		os.Remove(s.path)
		s.path = ""
	}
	s.complete = false
}

// abandon gives up spilling for good and says why, once.
func (s *Spill) abandon(err error) {
	s.discard()
	s.off = true
	s.report(err)
}

// Close releases the mapping, removes the temp file if it still exists, and
// closes the wrapped source when it is an io.Closer. The Spill can be
// restarted afterwards with Reset, which reads the wrapped source again.
func (s *Spill) Close() error {
	var err error
	if s.mapped != nil {
		err = s.mapped.Close()
		s.mapped = nil
	}
	s.discard()
	if c, ok := s.src.(io.Closer); ok {
		if cerr := c.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

var _ frame.ChunkSource = (*Spill)(nil)
var _ frame.StableSource = (*Spill)(nil)
var _ io.Closer = (*Spill)(nil)
