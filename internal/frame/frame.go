// Package frame provides the columnar dataset substrate used throughout the
// SAFE reproduction. A Frame is a set of named float64 columns plus an
// optional binary label column. It is deliberately minimal: SAFE and every
// classifier in this repository consume dense numeric matrices, so the frame
// stores columns contiguously and exposes cheap column-level views.
package frame

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/stats"
)

// Column is a single named feature column. Values are dense float64; NaN
// marks a missing value.
type Column struct {
	Name   string
	Values []float64
}

// Frame is a columnar dataset: len(Columns) features over NumRows rows, plus
// an optional Label vector (binary targets in {0,1}). All columns must have
// equal length.
type Frame struct {
	Columns []Column
	Label   []float64
}

// NewWithShape creates a frame with cols zero-filled columns of rows rows,
// named x0..x{cols-1}, and a zero label vector.
func NewWithShape(rows, cols int) *Frame {
	f := &Frame{
		Columns: make([]Column, cols),
		Label:   make([]float64, rows),
	}
	for j := range f.Columns {
		f.Columns[j] = Column{Name: fmt.Sprintf("x%d", j), Values: make([]float64, rows)}
	}
	return f
}

// NumRows returns the number of rows in the frame.
func (f *Frame) NumRows() int {
	if len(f.Columns) == 0 {
		return len(f.Label)
	}
	return len(f.Columns[0].Values)
}

// NumCols returns the number of feature columns.
func (f *Frame) NumCols() int { return len(f.Columns) }

// Validate checks the structural invariants: every column as long as the
// label when there is one, as the first column otherwise, so a column of
// another length is the one the error names.
func (f *Frame) Validate() error {
	n, want := f.NumRows(), "want"
	if f.Label != nil {
		n, want = len(f.Label), "the label has"
	}
	for i := range f.Columns {
		if len(f.Columns[i].Values) != n {
			return fmt.Errorf("frame: column %q has %d rows, %s %d",
				f.Columns[i].Name, len(f.Columns[i].Values), want, n)
		}
		if f.Columns[i].Name == "" {
			return fmt.Errorf("frame: column %d has empty name", i)
		}
	}
	seen := make(map[string]bool, len(f.Columns))
	for i := range f.Columns {
		if seen[f.Columns[i].Name] {
			return fmt.Errorf("frame: duplicate column name %q", f.Columns[i].Name)
		}
		seen[f.Columns[i].Name] = true
	}
	return nil
}

// AddColumn appends a column. The caller must keep lengths consistent; use
// Validate to check.
func (f *Frame) AddColumn(name string, values []float64) {
	f.Columns = append(f.Columns, Column{Name: name, Values: values})
}

// Col returns the values of column j. It panics if j is out of range, as
// does any slice access.
func (f *Frame) Col(j int) []float64 { return f.Columns[j].Values }

// ColByName returns the column values for the given name, or nil and false
// when absent.
func (f *Frame) ColByName(name string) ([]float64, bool) {
	for i := range f.Columns {
		if f.Columns[i].Name == name {
			return f.Columns[i].Values, true
		}
	}
	return nil, false
}

// ColIndex returns the index of the named column, or -1.
func (f *Frame) ColIndex(name string) int {
	for i := range f.Columns {
		if f.Columns[i].Name == name {
			return i
		}
	}
	return -1
}

// Names returns the column names in order.
func (f *Frame) Names() []string {
	out := make([]string, len(f.Columns))
	for i := range f.Columns {
		out[i] = f.Columns[i].Name
	}
	return out
}

// Row copies row i into dst (allocated when nil) and returns it.
func (f *Frame) Row(i int, dst []float64) []float64 {
	if dst == nil {
		dst = make([]float64, len(f.Columns))
	}
	for j := range f.Columns {
		dst[j] = f.Columns[j].Values[i]
	}
	return dst
}

// Matrix materialises the frame as a row-major [][]float64. Classifiers that
// are row-oriented (kNN, MLP, linear models) use this once up front.
func (f *Frame) Matrix() [][]float64 {
	n, m := f.NumRows(), f.NumCols()
	flat := make([]float64, n*m)
	rows := make([][]float64, n)
	for i := 0; i < n; i++ {
		rows[i] = flat[i*m : (i+1)*m]
	}
	for j := 0; j < m; j++ {
		col := f.Columns[j].Values
		for i := 0; i < n; i++ {
			rows[i][j] = col[i]
		}
	}
	return rows
}

// Clone deep-copies the frame.
func (f *Frame) Clone() *Frame {
	out := &Frame{Columns: make([]Column, len(f.Columns))}
	for i := range f.Columns {
		vals := make([]float64, len(f.Columns[i].Values))
		copy(vals, f.Columns[i].Values)
		out.Columns[i] = Column{Name: f.Columns[i].Name, Values: vals}
	}
	if f.Label != nil {
		out.Label = make([]float64, len(f.Label))
		copy(out.Label, f.Label)
	}
	return out
}

// Select returns a new frame containing only the named columns, in the given
// order, sharing the underlying value slices (no copy). The label is shared.
func (f *Frame) Select(names []string) (*Frame, error) {
	out := &Frame{Columns: make([]Column, 0, len(names)), Label: f.Label}
	for _, name := range names {
		idx := f.ColIndex(name)
		if idx < 0 {
			return nil, fmt.Errorf("frame: select: no column %q", name)
		}
		out.Columns = append(out.Columns, f.Columns[idx])
	}
	return out, nil
}

// Subset returns a new frame containing only the given rows (copied).
func (f *Frame) Subset(rows []int) *Frame {
	out := &Frame{Columns: make([]Column, len(f.Columns))}
	for j := range f.Columns {
		vals := make([]float64, len(rows))
		src := f.Columns[j].Values
		for i, r := range rows {
			vals[i] = src[r]
		}
		out.Columns[j] = Column{Name: f.Columns[j].Name, Values: vals}
	}
	if f.Label != nil {
		out.Label = make([]float64, len(rows))
		for i, r := range rows {
			out.Label[i] = f.Label[r]
		}
	}
	return out
}

// Split partitions the frame into three frames of n1, n2 and the remaining
// rows, in order. It is used to carve train/valid/test out of a generated
// dataset. n2 may be zero.
func (f *Frame) Split(n1, n2 int) (*Frame, *Frame, *Frame, error) {
	n := f.NumRows()
	if n1 < 0 || n2 < 0 || n1+n2 > n {
		return nil, nil, nil, fmt.Errorf("frame: split sizes %d+%d exceed %d rows", n1, n2, n)
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	a := f.Subset(idx[:n1])
	b := f.Subset(idx[n1 : n1+n2])
	c := f.Subset(idx[n1+n2:])
	return a, b, c, nil
}

// Shuffle permutes rows in place using the given RNG.
func (f *Frame) Shuffle(rng *rand.Rand) {
	n := f.NumRows()
	for i := n - 1; i > 0; i-- {
		k := rng.Intn(i + 1)
		for j := range f.Columns {
			v := f.Columns[j].Values
			v[i], v[k] = v[k], v[i]
		}
		if f.Label != nil {
			f.Label[i], f.Label[k] = f.Label[k], f.Label[i]
		}
	}
}

// PositiveRate returns the fraction of rows with label 1.
func (f *Frame) PositiveRate() float64 {
	if len(f.Label) == 0 {
		return 0
	}
	pos := 0.0
	for _, y := range f.Label {
		if y > 0.5 {
			pos++
		}
	}
	return pos / float64(len(f.Label))
}

// ColumnStats holds summary statistics of a column.
type ColumnStats struct {
	Min, Max, Mean, Std float64
	NaNCount            int
}

// Stats computes summary statistics for column j, ignoring NaNs; the mean
// and deviation are stats.MeanStd's. A column with no value reports NaN
// for all four.
func (f *Frame) Stats(j int) ColumnStats {
	vals := f.Columns[j].Values
	st := ColumnStats{Min: math.Inf(1), Max: math.Inf(-1)}
	for _, v := range vals {
		if math.IsNaN(v) {
			st.NaNCount++
			continue
		}
		if v < st.Min {
			st.Min = v
		}
		if v > st.Max {
			st.Max = v
		}
	}
	mean, std, n := stats.MeanStd(vals)
	if n == 0 {
		return ColumnStats{Min: math.NaN(), Max: math.NaN(), Mean: math.NaN(), Std: math.NaN(), NaNCount: st.NaNCount}
	}
	st.Mean, st.Std = mean, std
	return st
}

// Append concatenates other's rows onto f. Column sets must match by name
// and order.
func (f *Frame) Append(other *Frame) error {
	if f.NumCols() != other.NumCols() {
		return fmt.Errorf("frame: append: column count mismatch %d vs %d", f.NumCols(), other.NumCols())
	}
	for j := range f.Columns {
		if f.Columns[j].Name != other.Columns[j].Name {
			return fmt.Errorf("frame: append: column %d name mismatch %q vs %q",
				j, f.Columns[j].Name, other.Columns[j].Name)
		}
		f.Columns[j].Values = append(f.Columns[j].Values, other.Columns[j].Values...)
	}
	if f.Label != nil && other.Label != nil {
		f.Label = append(f.Label, other.Label...)
	}
	return nil
}
