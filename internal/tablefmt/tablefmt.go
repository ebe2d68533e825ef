// Package tablefmt renders the experiment results as aligned text
// tables (mirroring the paper's tables) and as CSV (for re-plotting the
// figures).
package tablefmt

import (
	"encoding/csv"
	"fmt"
	"io"
	"strings"
)

// Table is a simple rectangular table with a header row.
type Table struct {
	// Title is printed above the table.
	Title string
	// Header holds the column names.
	Header []string
	rows   [][]string
}

// New returns a table with the given title and columns.
func New(title string, header ...string) *Table {
	return &Table{Title: title, Header: header}
}

// AddRow appends a row; short rows are padded with empty cells and long
// rows are truncated to the header width.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.Header))
	for i := range row {
		if i < len(cells) {
			row[i] = cells[i]
		}
	}
	t.rows = append(t.rows, row)
}

// Num formats a float in the paper's table style (two decimals), with
// "-" for NaN (invalid entries, as in Table 3).
func Num(v float64) string {
	if v != v { // NaN
		return "-"
	}
	return fmt.Sprintf("%.2f", v)
}

// Render writes the aligned text table.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title)
		b.WriteByte('\n')
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			b.WriteString(strings.Repeat(" ", widths[i]-len(c)))
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	total := len(widths)*2 - 2
	for _, wd := range widths {
		total += wd
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteByte('\n')
	for _, row := range t.rows {
		writeRow(row)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// String renders to a string.
func (t *Table) String() string {
	var b strings.Builder
	_ = t.Render(&b)
	return b.String()
}

// WriteCSV writes the header and rows as CSV.
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Header); err != nil {
		return err
	}
	for _, row := range t.rows {
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
