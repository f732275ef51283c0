// Package bench is the experiment harness: one runner per table and
// figure of the paper's evaluation, each printing the regenerated
// result next to the paper's reference numbers. cmd/ckibench drives it;
// EXPERIMENTS.md records its output.
package bench

import (
	"fmt"
	"io"
	"strings"
)

// Table is a simple aligned text table.
type Table struct {
	Title   string
	Columns []string
	rows    [][]string
	notes   []string
}

// NewTable creates a table with the given header.
func NewTable(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns}
}

// Row appends a row (stringified cells).
func (t *Table) Row(cells ...string) { t.rows = append(t.rows, cells) }

// Rowf appends a row with a label and formatted float cells.
func (t *Table) Rowf(label string, format string, vals ...float64) {
	t.Row(cellsf(label, format, vals...)...)
}

// cellsf returns label followed by each value formatted with format.
func cellsf(label string, format string, vals ...float64) []string {
	cells := []string{label}
	for _, v := range vals {
		cells = append(cells, fmt.Sprintf(format, v))
	}
	return cells
}

// Note appends a footnote.
func (t *Table) Note(format string, args ...interface{}) {
	t.notes = append(t.notes, fmt.Sprintf(format, args...))
}

// WriteTo renders the table.
func (t *Table) WriteTo(w io.Writer) (int64, error) {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", t.Title)
	line := func(cells []string) {
		for i, c := range cells {
			if i == 0 {
				fmt.Fprintf(&b, "%-*s", widths[i]+2, c)
			} else {
				fmt.Fprintf(&b, "%*s", widths[i]+2, c)
			}
		}
		b.WriteString("\n")
	}
	line(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range t.rows {
		line(r)
	}
	for _, n := range t.notes {
		fmt.Fprintf(&b, "  note: %s\n", n)
	}
	b.WriteString("\n")
	n, err := io.WriteString(w, b.String())
	return int64(n), err
}

// String renders to a string.
func (t *Table) String() string {
	var b strings.Builder
	_, _ = t.WriteTo(&b)
	return b.String()
}
