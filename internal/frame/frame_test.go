package frame

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"
)

func sample() *Frame {
	return &Frame{
		Columns: []Column{
			{Name: "a", Values: []float64{1, 2, 3, 4}},
			{Name: "b", Values: []float64{10, 20, 30, 40}},
		},
		Label: []float64{0, 1, 0, 1},
	}
}

func TestShapeAndValidate(t *testing.T) {
	f := sample()
	if f.NumRows() != 4 || f.NumCols() != 2 {
		t.Fatalf("shape = (%d,%d), want (4,2)", f.NumRows(), f.NumCols())
	}
	if err := f.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	f.Columns[1].Values = f.Columns[1].Values[:3]
	if err := f.Validate(); err == nil {
		t.Error("Validate accepted ragged columns")
	}
}

func TestValidateDuplicateNames(t *testing.T) {
	f := &Frame{Columns: []Column{
		{Name: "a", Values: []float64{1}},
		{Name: "a", Values: []float64{2}},
	}}
	if err := f.Validate(); err == nil {
		t.Error("Validate accepted duplicate column names")
	}
}

func TestValidateEmptyName(t *testing.T) {
	f := &Frame{Columns: []Column{{Name: "", Values: []float64{1}}}}
	if err := f.Validate(); err == nil {
		t.Error("Validate accepted empty column name")
	}
}

func TestColAccess(t *testing.T) {
	f := sample()
	if v, ok := f.ColByName("b"); !ok || v[2] != 30 {
		t.Errorf("ColByName(b) = %v, %v", v, ok)
	}
	if _, ok := f.ColByName("zzz"); ok {
		t.Error("ColByName(zzz) found a column")
	}
	if f.ColIndex("a") != 0 || f.ColIndex("zzz") != -1 {
		t.Error("ColIndex wrong")
	}
	row := f.Row(1, nil)
	if row[0] != 2 || row[1] != 20 {
		t.Errorf("Row(1) = %v", row)
	}
}

func TestMatrix(t *testing.T) {
	f := sample()
	m := f.Matrix()
	if len(m) != 4 || m[3][1] != 40 {
		t.Errorf("Matrix = %v", m)
	}
}

func TestCloneIndependence(t *testing.T) {
	f := sample()
	c := f.Clone()
	c.Columns[0].Values[0] = 999
	c.Label[0] = 999
	if f.Columns[0].Values[0] == 999 || f.Label[0] == 999 {
		t.Error("Clone shares storage with the original")
	}
}

func TestSelect(t *testing.T) {
	f := sample()
	s, err := f.Select([]string{"b"})
	if err != nil {
		t.Fatal(err)
	}
	if s.NumCols() != 1 || s.Columns[0].Name != "b" {
		t.Errorf("Select = %v", s.Names())
	}
	if _, err := f.Select([]string{"nope"}); err == nil {
		t.Error("Select accepted unknown column")
	}
}

func TestSubset(t *testing.T) {
	f := sample()
	s := f.Subset([]int{3, 0})
	if s.NumRows() != 2 || s.Columns[0].Values[0] != 4 || s.Label[0] != 1 {
		t.Errorf("Subset wrong: %+v", s)
	}
}

func TestSplit(t *testing.T) {
	f := sample()
	a, b, c, err := f.Split(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if a.NumRows() != 2 || b.NumRows() != 1 || c.NumRows() != 1 {
		t.Errorf("split sizes = %d,%d,%d", a.NumRows(), b.NumRows(), c.NumRows())
	}
	if _, _, _, err := f.Split(3, 3); err == nil {
		t.Error("Split accepted oversize partition")
	}
}

func TestShuffleDeterministicAndAligned(t *testing.T) {
	f := sample()
	// Track (a, label) pairing: a=1,3 have label 0; a=2,4 have label 1.
	f.Shuffle(rand.New(rand.NewSource(42)))
	for i := 0; i < f.NumRows(); i++ {
		a := f.Columns[0].Values[i]
		want := 0.0
		if a == 2 || a == 4 {
			want = 1
		}
		if f.Label[i] != want {
			t.Fatalf("row %d: label misaligned after shuffle (a=%v label=%v)", i, a, f.Label[i])
		}
	}
}

func TestPositiveRate(t *testing.T) {
	f := sample()
	if got := f.PositiveRate(); got != 0.5 {
		t.Errorf("PositiveRate = %v, want 0.5", got)
	}
	empty := &Frame{}
	if got := empty.PositiveRate(); got != 0 {
		t.Errorf("empty PositiveRate = %v, want 0", got)
	}
}

func TestStats(t *testing.T) {
	f := &Frame{Columns: []Column{{Name: "a", Values: []float64{1, 2, 3, math.NaN()}}}}
	st := f.Stats(0)
	if st.Min != 1 || st.Max != 3 || st.NaNCount != 1 {
		t.Errorf("Stats = %+v", st)
	}
	if math.Abs(st.Mean-2) > 1e-12 {
		t.Errorf("Mean = %v, want 2", st.Mean)
	}
}

func TestAppend(t *testing.T) {
	f := sample()
	g := sample()
	if err := f.Append(g); err != nil {
		t.Fatal(err)
	}
	if f.NumRows() != 8 || len(f.Label) != 8 {
		t.Errorf("after append rows = %d labels = %d", f.NumRows(), len(f.Label))
	}
	bad := &Frame{Columns: []Column{{Name: "x", Values: []float64{1}}}}
	if err := f.Append(bad); err == nil {
		t.Error("Append accepted mismatched columns")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	f := sample()
	var buf bytes.Buffer
	if err := f.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	g, err := ReadCSV(&buf, "label")
	if err != nil {
		t.Fatal(err)
	}
	if g.NumRows() != f.NumRows() || g.NumCols() != f.NumCols() {
		t.Fatalf("round-trip shape = (%d,%d)", g.NumRows(), g.NumCols())
	}
	for j := range f.Columns {
		for i := range f.Columns[j].Values {
			if g.Columns[j].Values[i] != f.Columns[j].Values[i] {
				t.Fatalf("round-trip cell (%d,%d) = %v, want %v",
					i, j, g.Columns[j].Values[i], f.Columns[j].Values[i])
			}
		}
	}
	for i := range f.Label {
		if g.Label[i] != f.Label[i] {
			t.Fatalf("round-trip label %d = %v, want %v", i, g.Label[i], f.Label[i])
		}
	}
}

func TestReadCSVNoLabel(t *testing.T) {
	in := "a,b\n1,2\n3,4\n"
	f, err := ReadCSV(strings.NewReader(in), "")
	if err != nil {
		t.Fatal(err)
	}
	if f.Label != nil {
		t.Error("unlabelled read produced a label")
	}
	if f.NumRows() != 2 || f.NumCols() != 2 {
		t.Errorf("shape = (%d,%d)", f.NumRows(), f.NumCols())
	}
}

func TestReadCSVNonNumericBecomesNaN(t *testing.T) {
	in := "a,y\nfoo,1\n2,0\n"
	f, err := ReadCSV(strings.NewReader(in), "y")
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(f.Columns[0].Values[0]) {
		t.Errorf("non-numeric cell = %v, want NaN", f.Columns[0].Values[0])
	}
	if f.Columns[0].Values[1] != 2 {
		t.Errorf("numeric cell = %v, want 2", f.Columns[0].Values[1])
	}
}

func TestReadCSVMissingLabelColumn(t *testing.T) {
	in := "a,b\n1,2\n"
	if _, err := ReadCSV(strings.NewReader(in), "zzz"); err == nil {
		t.Error("ReadCSV accepted a missing label column")
	}
}

func TestNewWithShape(t *testing.T) {
	f := NewWithShape(3, 2)
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
	if f.NumRows() != 3 || f.NumCols() != 2 {
		t.Errorf("shape = (%d,%d)", f.NumRows(), f.NumCols())
	}
	if f.Columns[1].Name != "x1" {
		t.Errorf("column name = %q, want x1", f.Columns[1].Name)
	}
}
