package colstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"repro/internal/wire"
)

// Format constants of colstore version 1. All multi-byte integers and float
// bit patterns in the file are little-endian; every data block is padded to
// an 8-byte boundary so float payloads stay alignable under mmap.
const (
	// FormatVersion is the on-disk format version this package writes.
	FormatVersion = 1

	// DefaultGroupRows is the row-group size used when none is given.
	DefaultGroupRows = 8192

	headerSize  = 8  // magic + version + flags
	trailerSize = 32 // footer offset/length/CRC + reserved + tail magic
	blockAlign  = 8
)

var (
	headerMagic = [4]byte{'S', 'C', 'O', 'L'}
	tailMagic   = [8]byte{'S', 'A', 'F', 'E', 'C', 'O', 'L', '1'}
)

// castagnoli is the CRC-32C table every checksum in the format uses.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Type is a column's physical type.
type Type uint8

// Column types of format version 1.
const (
	// Float64 blocks store rows raw little-endian IEEE-754 values — decoding
	// is bit-exact, NaN payloads included.
	Float64 Type = 0
	// String blocks store a null bitmap followed by uint32 codes into the
	// column's file-global dictionary (held in the footer).
	String Type = 1
)

// String implements fmt.Stringer.
func (t Type) String() string {
	switch t {
	case Float64:
		return "float64"
	case String:
		return "string"
	default:
		return fmt.Sprintf("type(%d)", uint8(t))
	}
}

const colFlagLabel = 1 // ColumnSpec.Label bit in the footer's column flags

// ColumnSpec declares one column of a colstore file.
type ColumnSpec struct {
	Name string
	Type Type
	// Label marks the file's label column (at most one, Float64 only);
	// readers serve it as the chunk label rather than a feature column.
	Label bool
}

// Schema is the ordered column declaration of a colstore file.
type Schema []ColumnSpec

// Validate checks the schema invariants the format requires: at least one
// column, non-empty unique names, known types, and at most one label column,
// which must be Float64.
func (s Schema) Validate() error {
	if len(s) == 0 {
		return errors.New("colstore: schema has no columns")
	}
	seen := make(map[string]bool, len(s))
	label := false
	for i, c := range s {
		if c.Name == "" {
			return fmt.Errorf("colstore: column %d has an empty name", i)
		}
		if seen[c.Name] {
			return fmt.Errorf("colstore: duplicate column name %q", c.Name)
		}
		seen[c.Name] = true
		if c.Type != Float64 && c.Type != String {
			return fmt.Errorf("colstore: column %q has unknown type %d", c.Name, uint8(c.Type))
		}
		if c.Label {
			if label {
				return fmt.Errorf("colstore: second label column %q", c.Name)
			}
			if c.Type != Float64 {
				return fmt.Errorf("colstore: label column %q must be float64, is %s", c.Name, c.Type)
			}
			label = true
		}
	}
	return nil
}

// LabelIndex returns the schema index of the label column, or -1.
func (s Schema) LabelIndex() int {
	for i, c := range s {
		if c.Label {
			return i
		}
	}
	return -1
}

// FeatureNames returns the non-label column names in schema order.
func (s Schema) FeatureNames() []string {
	names := make([]string, 0, len(s))
	for _, c := range s {
		if !c.Label {
			names = append(names, c.Name)
		}
	}
	return names
}

// FrameSchema builds the all-float schema of a labelled frame: the feature
// names in order, plus a trailing label column when withLabel is set.
func FrameSchema(names []string, withLabel bool) Schema {
	s := make(Schema, 0, len(names)+1)
	for _, name := range names {
		s = append(s, ColumnSpec{Name: name, Type: Float64})
	}
	if withLabel {
		s = append(s, ColumnSpec{Name: "label", Type: Float64, Label: true})
	}
	return s
}

// Sentinel error conditions, wrapped inside FormatError with position
// context. Test with errors.Is.
var (
	// ErrTruncated marks a file that ends before the structure it declares
	// (short reads, missing trailer, out-of-range block extents).
	ErrTruncated = errors.New("file truncated")
	// ErrBadMagic marks a file that is not a colstore file at all.
	ErrBadMagic = errors.New("bad magic (not a colstore file)")
	// ErrVersion marks a colstore file of an unsupported format version.
	ErrVersion = errors.New("unsupported format version")
)

// FormatError is a structural decode failure positioned the way
// frame.CSVChunks positions CSV errors: the file path, the section that
// failed, and — when the failure is inside the block index or a data block —
// the row-group ordinal and column name. Block is -1 when no group applies.
type FormatError struct {
	Path    string
	Section string // "header", "trailer", "footer", "block"
	Block   int
	Column  string
	Err     error
}

// Error implements error.
func (e *FormatError) Error() string {
	msg := fmt.Sprintf("colstore: %s: %s", e.Path, e.Section)
	if e.Block >= 0 {
		msg += fmt.Sprintf(" (group %d", e.Block)
		if e.Column != "" {
			msg += fmt.Sprintf(", column %q", e.Column)
		}
		msg += ")"
	} else if e.Column != "" {
		msg += fmt.Sprintf(" (column %q)", e.Column)
	}
	return msg + ": " + e.Err.Error()
}

// Unwrap implements errors.Unwrap.
func (e *FormatError) Unwrap() error { return e.Err }

// ChecksumError reports a CRC-32C mismatch: a data block's (with its
// row-group ordinal and column name) or the footer's (Block -1).
type ChecksumError struct {
	Path      string
	Block     int
	Column    string
	Want, Got uint32
}

// Error implements error.
func (e *ChecksumError) Error() string {
	where := "footer"
	if e.Block >= 0 {
		where = fmt.Sprintf("group %d, column %q", e.Block, e.Column)
	}
	return fmt.Sprintf("colstore: %s: checksum mismatch at %s: want %08x, got %08x",
		e.Path, where, e.Want, e.Got)
}

// blockMeta is one data block's footer entry: its extent in the file plus
// the statistics pass planning reads (min/max over non-missing values,
// missing count) and the payload CRC.
type blockMeta struct {
	off, length uint64 // unpadded payload extent
	min, max    float64
	nan         uint32
	crc         uint32
}

// groupMeta is one row group's footer entry.
type groupMeta struct {
	start  uint64
	rows   uint32
	blocks []blockMeta // one per schema column
}

// fileMeta is the decoded footer: everything a reader needs to seek.
type fileMeta struct {
	schema    Schema
	dicts     [][]string // per schema column; nil for float columns
	groups    []groupMeta
	rows      uint64
	groupRows uint32
	dataEnd   uint64 // first byte past the block region (== footer offset)
}

// pad8 rounds n up to the block alignment.
func pad8(n uint64) uint64 { return (n + blockAlign - 1) &^ uint64(blockAlign-1) }

// bitmapLen is the byte length of a rows-bit null bitmap.
func bitmapLen(rows int) int { return (rows + 7) / 8 }

// floatBlockLen / stringBlockLen are the unpadded payload sizes.
func floatBlockLen(rows int) uint64  { return uint64(rows) * 8 }
func stringBlockLen(rows int) uint64 { return uint64(bitmapLen(rows)) + uint64(rows)*4 }

// encodeFooter serialises the footer (schema, dictionaries, block index).
func encodeFooter(m *fileMeta) []byte {
	var b []byte
	b = binary.LittleEndian.AppendUint32(b, uint32(len(m.schema)))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(m.groups)))
	b = binary.LittleEndian.AppendUint64(b, m.rows)
	b = binary.LittleEndian.AppendUint32(b, m.groupRows)
	b = binary.LittleEndian.AppendUint32(b, 0) // reserved
	for j, col := range m.schema {
		b = append(b, byte(col.Type))
		var flags byte
		if col.Label {
			flags |= colFlagLabel
		}
		b = append(b, flags)
		b = binary.LittleEndian.AppendUint16(b, uint16(len(col.Name)))
		b = append(b, col.Name...)
		if col.Type == String {
			b = wire.AppendStrings(b, m.dicts[j])
		}
	}
	for _, g := range m.groups {
		b = binary.LittleEndian.AppendUint64(b, g.start)
		b = binary.LittleEndian.AppendUint32(b, g.rows)
		b = binary.LittleEndian.AppendUint32(b, 0) // reserved
		for _, blk := range g.blocks {
			b = binary.LittleEndian.AppendUint64(b, blk.off)
			b = binary.LittleEndian.AppendUint64(b, blk.length)
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(blk.min))
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(blk.max))
			b = binary.LittleEndian.AppendUint32(b, blk.nan)
			b = binary.LittleEndian.AppendUint32(b, blk.crc)
		}
	}
	return b
}

// decodeFooter parses and validates footer bytes against the block region
// [headerSize, dataEnd). It never panics on malformed input — every
// structural violation comes back as a positioned FormatError.
func decodeFooter(path string, b []byte, dataEnd uint64) (*fileMeta, error) {
	ferr := func(block int, column string, err error) error {
		return &FormatError{Path: path, Section: "footer", Block: block, Column: column, Err: err}
	}
	// A read past the end fails the reader instead of panicking, which is what
	// makes this parser safe to fuzz against arbitrary bytes; each section asks
	// Failed once.
	c := wire.NewReader(b)
	nCols := int(c.U32())
	nGroups := int(c.U32())
	rows := c.U64()
	groupRows := c.U32()
	c.U32() // reserved
	if c.Failed() {
		return nil, ferr(-1, "", ErrTruncated)
	}
	// Each column costs at least 4 bytes, each group at least 12: anything
	// declaring more than the remaining bytes could hold is corrupt, and the
	// caps keep allocations proportional to the actual footer size.
	if nCols <= 0 || nCols > len(c.Rest())/4 {
		return nil, ferr(-1, "", fmt.Errorf("implausible column count %d", nCols))
	}
	if nGroups < 0 || nGroups > (len(c.Rest())+11)/12 {
		return nil, ferr(-1, "", fmt.Errorf("implausible group count %d", nGroups))
	}
	m := &fileMeta{
		schema:    make(Schema, nCols),
		dicts:     make([][]string, nCols),
		rows:      rows,
		groupRows: groupRows,
		dataEnd:   dataEnd,
	}
	for j := 0; j < nCols; j++ {
		typ := Type(c.U8())
		flags := c.U8()
		name := string(c.Take(int(c.U16())))
		if c.Failed() {
			return nil, ferr(-1, "", ErrTruncated)
		}
		m.schema[j] = ColumnSpec{Name: name, Type: typ, Label: flags&colFlagLabel != 0}
		if typ == String {
			// A dictionary size the remaining bytes cannot back, at 4 bytes a
			// string, fails the reader before anything is allocated for it.
			if m.dicts[j] = c.Strs(); c.Failed() {
				return nil, ferr(-1, name, ErrTruncated)
			}
		}
	}
	if err := m.schema.Validate(); err != nil {
		return nil, ferr(-1, "", err)
	}
	m.groups = make([]groupMeta, nGroups)
	var total uint64
	for gi := range m.groups {
		g := &m.groups[gi]
		g.start = c.U64()
		g.rows = c.U32()
		c.U32() // reserved
		if c.Failed() {
			return nil, ferr(gi, "", ErrTruncated)
		}
		if g.start != total {
			return nil, ferr(gi, "", fmt.Errorf("group starts at row %d, want %d", g.start, total))
		}
		total += uint64(g.rows)
		g.blocks = make([]blockMeta, nCols)
		for j := range g.blocks {
			blk := &g.blocks[j]
			blk.off = c.U64()
			blk.length = c.U64()
			blk.min = c.F64()
			blk.max = c.F64()
			blk.nan = c.U32()
			blk.crc = c.U32()
			if c.Failed() {
				return nil, ferr(gi, m.schema[j].Name, ErrTruncated)
			}
			if err := validateBlock(m, gi, j); err != nil {
				return nil, ferr(gi, m.schema[j].Name, err)
			}
		}
	}
	if n := len(c.Rest()); n != 0 {
		return nil, ferr(-1, "", fmt.Errorf("%d trailing footer bytes", n))
	}
	if total != rows {
		return nil, ferr(-1, "", fmt.Errorf("groups cover %d rows, footer declares %d", total, rows))
	}
	return m, nil
}

// validateBlock checks one block-index entry: the payload length matches the
// type and row count, the extent lies inside the block region, and float
// payloads keep the format's 8-byte alignment (what makes mmap views sound).
func validateBlock(m *fileMeta, gi, j int) error {
	g := &m.groups[gi]
	blk := &g.blocks[j]
	rows := int(g.rows)
	var want uint64
	switch m.schema[j].Type {
	case Float64:
		want = floatBlockLen(rows)
		if blk.off%blockAlign != 0 {
			return fmt.Errorf("float block misaligned at offset %d", blk.off)
		}
	case String:
		want = stringBlockLen(rows)
	}
	if blk.length != want {
		return fmt.Errorf("block length %d, want %d for %d rows", blk.length, want, rows)
	}
	if blk.nan > g.rows {
		return fmt.Errorf("block declares %d missing of %d rows", blk.nan, g.rows)
	}
	end := blk.off + pad8(blk.length)
	if blk.off < headerSize || end < blk.off || end > m.dataEnd {
		return fmt.Errorf("block extent [%d, %d) outside data region [%d, %d): %w",
			blk.off, end, headerSize, m.dataEnd, ErrTruncated)
	}
	return nil
}

// readMeta opens a colstore image (file or mapped bytes) structurally:
// header, trailer, and the CRC-verified footer in between.
func readMeta(path string, r io.ReaderAt, size int64) (*fileMeta, error) {
	ferr := func(section string, err error) error {
		return &FormatError{Path: path, Section: section, Block: -1, Err: err}
	}
	if size < headerSize+trailerSize {
		return nil, ferr("header", ErrTruncated)
	}
	var head [headerSize]byte
	if _, err := r.ReadAt(head[:], 0); err != nil {
		return nil, ferr("header", err)
	}
	if [4]byte(head[:4]) != headerMagic {
		return nil, ferr("header", ErrBadMagic)
	}
	if v := binary.LittleEndian.Uint16(head[4:6]); v != FormatVersion {
		return nil, ferr("header", fmt.Errorf("%w %d (reader supports %d)", ErrVersion, v, FormatVersion))
	}
	var tail [trailerSize]byte
	if _, err := r.ReadAt(tail[:], size-trailerSize); err != nil {
		return nil, ferr("trailer", err)
	}
	if [8]byte(tail[24:32]) != tailMagic {
		return nil, ferr("trailer", ErrTruncated)
	}
	footerOff := binary.LittleEndian.Uint64(tail[0:8])
	footerLen := binary.LittleEndian.Uint64(tail[8:16])
	footerCRC := binary.LittleEndian.Uint32(tail[16:20])
	if footerOff < headerSize || footerLen > uint64(size) || footerOff+footerLen != uint64(size-trailerSize) {
		return nil, ferr("trailer", fmt.Errorf("footer extent [%d, +%d) inconsistent with file size %d: %w",
			footerOff, footerLen, size, ErrTruncated))
	}
	footer := make([]byte, footerLen)
	if _, err := r.ReadAt(footer, int64(footerOff)); err != nil {
		return nil, ferr("footer", err)
	}
	if got := crc32.Checksum(footer, castagnoli); got != footerCRC {
		return nil, &ChecksumError{Path: path, Block: -1, Want: footerCRC, Got: got}
	}
	return decodeFooter(path, footer, footerOff)
}
