package stats

import (
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Table is a simple column-oriented results table that renders to markdown
// or CSV. The experiment harness emits one Table per paper figure.
type Table struct {
	Title   string
	Columns []string
	rows    [][]string
}

// NewTable returns a table with the given title and column headers.
func NewTable(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns}
}

// AddRow appends a row. Cells beyond the column count are dropped; missing
// cells render empty.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.Columns))
	for i := range row {
		if i < len(cells) {
			row[i] = cells[i]
		}
	}
	t.rows = append(t.rows, row)
}

// AddRowValues appends a row where the first cell is a label and the rest
// are formatted by Cell, with AddRow's dropping and padding.
func (t *Table) AddRowValues(label string, values ...float64) {
	row := make([]string, len(t.Columns))
	if len(row) > 0 {
		row[0] = label
	}
	for i := 1; i < len(row) && i <= len(values); i++ {
		row[i] = Cell(values[i-1])
	}
	t.rows = append(t.rows, row)
}

// Cell formats one numeric table cell with four significant digits, the
// precision every results table prints: the bytes fmt's %.4g gives.
func Cell(v float64) string {
	return strconv.FormatFloat(v, 'g', 4, 64)
}

// NumRows returns the number of data rows.
func (t *Table) NumRows() int { return len(t.rows) }

// Row returns row i.
func (t *Table) Row(i int) []string { return t.rows[i] }

// WriteMarkdown renders the table as GitHub-flavored markdown, every
// column padded to its widest cell, in one Write.
func (t *Table) WriteMarkdown(w io.Writer) error {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.rows {
		for i, c := range row {
			widths[i] = max(widths[i], len(c))
		}
	}
	line := 2
	for _, n := range widths {
		line += n + 3
	}
	b := make([]byte, 0, len(t.Title)+6+line*(len(t.rows)+2)+1)
	if t.Title != "" {
		b = append(b, "### "...)
		b = append(b, t.Title...)
		b = append(b, "\n\n"...)
	}
	b = appendRow(b, t.Columns, widths, ' ')
	b = appendRow(b, nil, widths, '-')
	for _, row := range t.rows {
		b = appendRow(b, row, widths, ' ')
	}
	b = append(b, '\n')
	_, err := w.Write(b)
	return err
}

// appendRow appends one markdown table line: each cell (empty past the
// end of cells) followed by fill up to its column's width.
func appendRow(b []byte, cells []string, widths []int, fill byte) []byte {
	b = append(b, "| "...)
	for i, n := range widths {
		if i > 0 {
			b = append(b, " | "...)
		}
		if i < len(cells) {
			b = append(b, cells[i]...)
			n -= len(cells[i])
		}
		for ; n > 0; n-- {
			b = append(b, fill)
		}
	}
	return append(b, " |\n"...)
}

// WriteCSV renders the table as CSV with a header row. Cells containing
// commas or quotes are quoted.
func (t *Table) WriteCSV(w io.Writer) error {
	esc := func(s string) string {
		if strings.ContainsAny(s, ",\"\n") {
			return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
		}
		return s
	}
	hdr := make([]string, len(t.Columns))
	for i, c := range t.Columns {
		hdr[i] = esc(c)
	}
	if _, err := fmt.Fprintln(w, strings.Join(hdr, ",")); err != nil {
		return err
	}
	for _, row := range t.rows {
		cells := make([]string, len(row))
		for i, c := range row {
			cells[i] = esc(c)
		}
		if _, err := fmt.Fprintln(w, strings.Join(cells, ",")); err != nil {
			return err
		}
	}
	return nil
}

// Markdown returns the markdown rendering as a string.
func (t *Table) Markdown() string {
	var sb strings.Builder
	_ = t.WriteMarkdown(&sb)
	return sb.String()
}
