package colstore

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/frame"
)

// countedChunks is the wrapped source of the spill tests: testFrame rows
// (NaNs included) served through one reused buffer per column, the way
// CSVChunks serves them, with every call counted.
type countedChunks struct {
	src    *frame.FrameChunks
	cols   [][]float64
	label  []float64
	nexts  int
	resets int
	closed int
}

func newCountedChunks(f *frame.Frame, chunkRows int) *countedChunks {
	return &countedChunks{src: frame.NewFrameChunks(f, chunkRows), cols: make([][]float64, f.NumCols())}
}

func (c *countedChunks) Names() []string { return c.src.Names() }
func (c *countedChunks) NumCols() int    { return c.src.NumCols() }
func (c *countedChunks) Reset() error    { c.resets++; return c.src.Reset() }
func (c *countedChunks) Close() error    { c.closed++; return nil }

func (c *countedChunks) Next() (*frame.Chunk, error) {
	c.nexts++
	v, err := c.src.Next()
	if err != nil {
		return nil, err
	}
	out := &frame.Chunk{Index: v.Index, Start: v.Start, Cols: c.cols}
	for j, col := range v.Cols {
		c.cols[j] = append(c.cols[j][:0], col...)
	}
	if v.Label != nil {
		c.label = append(c.label[:0], v.Label...)
		out.Label = c.label
	}
	return out, nil
}

// spillDir points TMPDIR at an empty directory for the test and returns a
// check that it is empty again.
func spillDir(t *testing.T) (dir string, empty func()) {
	t.Helper()
	dir = t.TempDir()
	t.Setenv("TMPDIR", dir)
	return dir, func() {
		t.Helper()
		left, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range left {
			t.Errorf("temp directory still holds %s", e.Name())
		}
	}
}

// quietSpill wraps src with the fallback report counted instead of printed.
func quietSpill(src frame.ChunkSource) (*Spill, *[]error) {
	s := NewSpill(src)
	var reports []error
	s.report = func(err error) { reports = append(reports, err) }
	return s, &reports
}

// checkPass reads one pass to io.EOF and requires every chunk to carry f's
// rows bit for bit in chunkRows-row partitions.
func checkPass(t *testing.T, pass int, src frame.ChunkSource, f *frame.Frame, chunkRows int, recycle func(*frame.Chunk)) {
	t.Helper()
	rows := 0
	for idx := 0; ; idx++ {
		c, err := src.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatalf("pass %d chunk %d: %v", pass, idx, err)
		}
		if c.Index != idx || c.Start != idx*chunkRows {
			t.Fatalf("pass %d: chunk %d arrived as index %d start %d", pass, idx, c.Index, c.Start)
		}
		if len(c.Cols) != f.NumCols() || (c.Label == nil) != (f.Label == nil) {
			t.Fatalf("pass %d chunk %d: %d columns, label %v", pass, idx, len(c.Cols), c.Label != nil)
		}
		for j, col := range c.Cols {
			for i, v := range col {
				if !bitsEqual(v, f.Columns[j].Values[c.Start+i]) {
					t.Fatalf("pass %d chunk %d col %d row %d: got %v want %v", pass, idx, j, i, v, f.Columns[j].Values[c.Start+i])
				}
			}
		}
		for i, v := range c.Label {
			if !bitsEqual(v, f.Label[c.Start+i]) {
				t.Fatalf("pass %d chunk %d label row %d: got %v want %v", pass, idx, i, v, f.Label[c.Start+i])
			}
		}
		rows += c.NumRows()
		if recycle != nil {
			recycle(c)
		}
	}
	if rows != f.NumRows() {
		t.Fatalf("pass %d delivered %d rows, want %d", pass, rows, f.NumRows())
	}
}

// TestSpillReadsSourceOnce is the parse-once pin: over eight passes the
// wrapped source is read for exactly one, every later pass serves the same
// bits from the mapping (NaNs, a ragged last chunk, with and without a
// label), directly and under the prefetcher's reader goroutine, and nothing
// is left in the temp directory.
func TestSpillReadsSourceOnce(t *testing.T) {
	const rows, chunkRows, chunks = 103, 25, 5
	for _, tc := range []struct {
		name               string
		labelled, prefetch bool
	}{
		{"labelled", true, false},
		{"unlabelled", false, false},
		{"labelled/prefetch", true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, empty := spillDir(t)
			leaks := leakCheck(t)
			f := testFrame(rows, 3)
			if !tc.labelled {
				f.Label = nil
			}
			inner := newCountedChunks(f, chunkRows)
			s, reports := quietSpill(inner)
			var src frame.ChunkSource = s
			var recycle func(*frame.Chunk)
			if tc.prefetch {
				pf := frame.NewPrefetch(s, 2, 1)
				defer pf.Close()
				src, recycle = pf, pf.Recycle
			}
			for pass := 1; pass <= 8; pass++ {
				if err := src.Reset(); err != nil {
					t.Fatal(err)
				}
				if got := s.StableChunks(); got != (pass > 1) {
					t.Fatalf("pass %d: StableChunks = %v", pass, got)
				}
				checkPass(t, pass, src, f, chunkRows, recycle)
			}
			if inner.nexts != chunks+1 || inner.resets != 1 {
				t.Fatalf("wrapped source saw %d Next and %d Reset calls over 8 passes, want %d and 1", inner.nexts, inner.resets, chunks+1)
			}
			if len(*reports) != 0 {
				t.Fatalf("unexpected fallback: %v", *reports)
			}
			if tc.prefetch {
				src.(*frame.Prefetch).Close()
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			if inner.closed != 1 {
				t.Fatalf("wrapped source closed %d times, want 1", inner.closed)
			}
			empty()
			leaks()
		})
	}
}

// TestSpillAbandonedPasses pins the lifecycle around passes that stop early:
// a first pass cut short keeps nothing and the next one tees from the top; a
// consumer that walks away in the middle of the first or of the third pass
// leaves no file behind once the spill is closed.
func TestSpillAbandonedPasses(t *testing.T) {
	const rows, chunkRows = 100, 25
	f := testFrame(rows, 2)
	readSome := func(t *testing.T, src frame.ChunkSource, n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if _, err := src.Next(); err != nil {
				t.Fatal(err)
			}
		}
	}
	t.Run("pass 1 restarts", func(t *testing.T) {
		_, empty := spillDir(t)
		inner := newCountedChunks(f, chunkRows)
		s, _ := quietSpill(inner)
		readSome(t, s, 2)
		for pass := 1; pass <= 3; pass++ {
			if err := s.Reset(); err != nil {
				t.Fatal(err)
			}
			checkPass(t, pass, s, f, chunkRows, nil)
		}
		if want := 2 + 5; inner.nexts != want {
			t.Fatalf("wrapped source saw %d Next calls, want %d (the cut pass, then one full pass)", inner.nexts, want)
		}
		s.Close()
		empty()
	})
	t.Run("closed mid pass 1", func(t *testing.T) {
		dir, empty := spillDir(t)
		s, _ := quietSpill(newCountedChunks(f, chunkRows))
		readSome(t, s, 2)
		// The tee is a real file here, private to its owner, until Close.
		held, err := os.ReadDir(dir)
		if err != nil || len(held) != 1 {
			t.Fatalf("mid pass 1 the temp directory holds %d files (%v), want the one spill", len(held), err)
		}
		if info, err := held[0].Info(); err != nil || info.Mode().Perm() != 0o600 {
			t.Fatalf("spill file mode %v (%v), want 0600", info.Mode(), err)
		}
		s.Close()
		empty()
	})
	t.Run("closed mid pass 3", func(t *testing.T) {
		_, empty := spillDir(t)
		leaks := leakCheck(t)
		s, _ := quietSpill(newCountedChunks(f, chunkRows))
		pf := frame.NewPrefetch(s, 2, 1)
		for pass := 1; pass <= 2; pass++ {
			if err := pf.Reset(); err != nil {
				t.Fatal(err)
			}
			checkPass(t, pass, pf, f, chunkRows, pf.Recycle)
		}
		if err := pf.Reset(); err != nil {
			t.Fatal(err)
		}
		readSome(t, pf, 2)
		pf.Close()
		s.Close()
		empty()
		leaks()
	})
}

// TestSpillFallsBack pins that the temp file is an optimisation only: when
// it cannot be created the wrapped source is read on every pass with the
// same chunks, and the reason is reported exactly once.
func TestSpillFallsBack(t *testing.T) {
	const rows, chunkRows, chunks = 103, 25, 5
	t.Setenv("TMPDIR", filepath.Join(t.TempDir(), "missing"))
	f := testFrame(rows, 3)
	inner := newCountedChunks(f, chunkRows)
	s, reports := quietSpill(inner)
	for pass := 1; pass <= 8; pass++ {
		if err := s.Reset(); err != nil {
			t.Fatal(err)
		}
		checkPass(t, pass, s, f, chunkRows, nil)
		if s.StableChunks() {
			t.Fatalf("pass %d: a re-read source reported stable chunks", pass)
		}
	}
	if want := 8 * (chunks + 1); inner.nexts != want {
		t.Fatalf("wrapped source saw %d Next calls over 8 passes, want %d", inner.nexts, want)
	}
	if len(*reports) != 1 {
		t.Fatalf("fallback reported %d times, want once: %v", len(*reports), *reports)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// unevenChunks serves a frame in partitions of the given sizes — a shape row
// groups of one size cannot reproduce.
type unevenChunks struct {
	f     *frame.Frame
	sizes []int
	i, at int
}

func (u *unevenChunks) Names() []string { return u.f.Names() }
func (u *unevenChunks) NumCols() int    { return u.f.NumCols() }
func (u *unevenChunks) Reset() error    { u.i, u.at = 0, 0; return nil }

func (u *unevenChunks) Next() (*frame.Chunk, error) {
	if u.i == len(u.sizes) {
		return nil, io.EOF
	}
	lo, hi := u.at, u.at+u.sizes[u.i]
	c := &frame.Chunk{Index: u.i, Start: lo, Label: u.f.Label[lo:hi]}
	for j := range u.f.Columns {
		c.Cols = append(c.Cols, u.f.Columns[j].Values[lo:hi])
	}
	u.i, u.at = u.i+1, hi
	return c, nil
}

// TestSpillRefusesUnevenChunks pins the guard behind "partitions are the
// source's own": chunks that equal-sized row groups cannot reproduce are not
// spilled at all — the partial file is dropped on the spot, the reason is
// reported once, and every pass reads the source's own partitions.
func TestSpillRefusesUnevenChunks(t *testing.T) {
	_, empty := spillDir(t)
	f := testFrame(103, 2)
	s, reports := quietSpill(&unevenChunks{f: f, sizes: []int{10, 25, 25, 25, 18}})
	for pass := 1; pass <= 3; pass++ {
		got, err := frame.ReadAll(s)
		if err != nil {
			t.Fatalf("pass %d: %v", pass, err)
		}
		checkFrameEqual(t, got, f)
		empty()
	}
	if len(*reports) != 1 {
		t.Fatalf("reported %d times, want once: %v", len(*reports), *reports)
	}
}

// TestSpillCSVErrorKeepsPosition pins that the tee changes nothing about a
// failing parse: a ragged row in the middle of the file surfaces frame's
// line-positioned error through OpenCSV, on the retry as on the first try,
// and the partial temp file is gone after Close.
func TestSpillCSVErrorKeepsPosition(t *testing.T) {
	_, empty := spillDir(t)
	var b strings.Builder
	b.WriteString("a,b,label\n")
	for i := 0; i < 10; i++ {
		if i == 6 {
			b.WriteString("1,2\n") // line 8
			continue
		}
		b.WriteString("1,2,0\n")
	}
	path := filepath.Join(t.TempDir(), "ragged.csv")
	if err := writeFileForTest(path, b.String()); err != nil {
		t.Fatal(err)
	}
	s, err := OpenCSV(path, "label", 4)
	if err != nil {
		t.Fatal(err)
	}
	for try := 0; try < 2; try++ {
		if err := s.Reset(); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Next(); err != nil {
			t.Fatalf("first chunk: %v", err)
		}
		_, err := s.Next()
		if err == nil || !strings.Contains(err.Error(), "line 8: row has 2 fields, want 3") {
			t.Fatalf("try %d: got %v, want frame's positioned ragged-row error", try, err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	empty()
}
