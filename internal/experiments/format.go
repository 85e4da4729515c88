package experiments

import (
	"fmt"
	"io"
	"strings"
)

// table accumulates rows and renders a column-aligned ASCII table, matching
// the look of the paper's tables well enough for side-by-side comparison.
type table struct {
	header []string
	rows   [][]string
}

func newTable(header ...string) *table { return &table{header: header} }

func (t *table) addRow(cells ...string) { t.rows = append(t.rows, cells) }

func (t *table) render(w io.Writer, title string) {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) string {
		var b strings.Builder
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[min(i, len(widths)-1)], c)
		}
		return strings.TrimRight(b.String(), " ")
	}
	if title != "" {
		fmt.Fprintln(w, title)
	}
	fmt.Fprintln(w, line(t.header))
	total := 0
	for _, wd := range widths {
		total += wd + 2
	}
	fmt.Fprintln(w, strings.Repeat("-", total-2))
	for _, row := range t.rows {
		fmt.Fprintln(w, line(row))
	}
	fmt.Fprintln(w)
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
