package colstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"flag"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/wire/wiretest"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata golden fixtures")

// goldenFile builds the canonical fixture content: every column type, a
// NaN, a null, a negative zero, an interned duplicate string, and a row
// count (5) that does not divide the group size (2) evenly.
func goldenFile(t *testing.T, path string) {
	t.Helper()
	schema := Schema{
		{Name: "x", Type: Float64},
		{Name: "cat", Type: String},
		{Name: "label", Type: Float64, Label: true},
	}
	w, err := Create(path, schema, WriterOptions{GroupRows: 2})
	if err != nil {
		t.Fatal(err)
	}
	err = w.Append([]Col{
		{Floats: []float64{1.5, math.NaN(), math.Copysign(0, -1), 3.25, -7}},
		{Strs: []string{"red", "blue", "", "red", ""}, Nulls: []bool{false, false, true, false, false}},
		{Floats: []float64{0, 1, 1, 0, 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestGoldenV1 pins the version-1 byte layout against a checked-in fixture.
// If this test fails after an intentional format change, bump FormatVersion
// and add a new fixture — do not regenerate this one silently.
// Regenerate (only alongside a version bump) with:
//
//	go test ./internal/colstore/ -run TestGoldenV1 -update
func TestGoldenV1(t *testing.T) {
	golden := filepath.Join("testdata", "golden_v1.col")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		goldenFile(t, golden)
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing fixture (run with -update to create): %v", err)
	}

	// The writer must still produce byte-identical output for this content.
	fresh := filepath.Join(t.TempDir(), "fresh.col")
	goldenFile(t, fresh)
	got, err := os.ReadFile(fresh)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("writer output diverged from golden v1 fixture (len %d vs %d)", len(got), len(want))
	}

	// Fixed-offset assertions: the structural anchors of the v1 layout.
	le := binary.LittleEndian
	if string(want[0:4]) != "SCOL" {
		t.Fatalf("header magic = %q", want[0:4])
	}
	if v := le.Uint16(want[4:6]); v != 1 {
		t.Fatalf("version = %d", v)
	}
	if string(want[len(want)-8:]) != "SAFECOL1" {
		t.Fatalf("tail magic = %q", want[len(want)-8:])
	}
	trailer := want[len(want)-trailerSize:]
	footerOff := le.Uint64(trailer[0:8])
	footerLen := le.Uint64(trailer[8:16])
	if footerOff+footerLen != uint64(len(want)-trailerSize) {
		t.Fatalf("footer extent [%d,+%d) does not abut trailer at %d",
			footerOff, footerLen, len(want)-trailerSize)
	}
	// First data block starts right after the 8-byte header, 8-aligned, and
	// holds group 0 of column "x": floats 1.5 and NaN, little-endian.
	if bits := le.Uint64(want[8:16]); bits != math.Float64bits(1.5) {
		t.Fatalf("first float bits = %#x, want %#x", bits, math.Float64bits(1.5))
	}
	if bits := le.Uint64(want[16:24]); !math.IsNaN(math.Float64frombits(bits)) {
		t.Fatalf("second float bits = %#x, want a NaN", bits)
	}
	// Footer leads with colCount=3, groupCount=3 (ceil(5/2)), rowCount=5,
	// groupRows=2.
	foot := want[footerOff : footerOff+footerLen]
	if n := le.Uint32(foot[0:4]); n != 3 {
		t.Fatalf("footer colCount = %d", n)
	}
	if n := le.Uint32(foot[4:8]); n != 3 {
		t.Fatalf("footer groupCount = %d", n)
	}
	if n := le.Uint64(foot[8:16]); n != 5 {
		t.Fatalf("footer rowCount = %d", n)
	}
	if n := le.Uint32(foot[16:20]); n != 2 {
		t.Fatalf("footer groupRows = %d", n)
	}

	// Both readers must decode the fixture to the expected typed values —
	// this is what actually freezes v1: files written by this commit stay
	// readable forever.
	tab, err := ReadTable(golden)
	if err != nil {
		t.Fatal(err)
	}
	wantF := []float64{1.5, math.NaN(), math.Copysign(0, -1), 3.25, -7}
	for i, v := range wantF {
		if math.Float64bits(tab.Floats[0][i]) != math.Float64bits(v) {
			t.Fatalf("fixture float row %d: %x want %x", i,
				math.Float64bits(tab.Floats[0][i]), math.Float64bits(v))
		}
	}
	wantS := []string{"red", "blue", "", "red", ""}
	wantN := []bool{false, false, true, false, false}
	for i := range wantS {
		if tab.Nulls[1][i] != wantN[i] || (!wantN[i] && tab.Strs[1][i] != wantS[i]) {
			t.Fatalf("fixture string row %d: %q null=%v", i, tab.Strs[1][i], tab.Nulls[1][i])
		}
	}
	wantL := []float64{0, 1, 1, 0, 1}
	for i, v := range wantL {
		if tab.Floats[2][i] != v {
			t.Fatalf("fixture label row %d: %v want %v", i, tab.Floats[2][i], v)
		}
	}
}

// TestFooterRejectsTruncationAndTrailing sweeps every prefix of the golden
// fixture's footer through the footer decoder: cut anywhere it must fail as a
// positioned *FormatError (never panic, never half-parse), and so must a
// footer with a byte to spare — the decoder owns the whole extent the trailer
// declares.
func TestFooterRejectsTruncationAndTrailing(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "golden_v1.col"))
	if err != nil {
		t.Fatal(err)
	}
	trailer := raw[len(raw)-trailerSize:]
	footerOff := binary.LittleEndian.Uint64(trailer[0:8])
	footer := raw[footerOff : footerOff+binary.LittleEndian.Uint64(trailer[8:16])]
	wiretest.Sweep(t, map[string][]byte{"golden_v1": footer}, true, func(b []byte) ([]byte, error) {
		_, err := decodeFooter("golden_v1.col", b, footerOff)
		return nil, err
	}, func(err error) bool {
		var fe *FormatError
		return errors.As(err, &fe) && fe.Section == "footer"
	})
}
