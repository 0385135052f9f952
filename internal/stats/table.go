package stats

import (
	"fmt"
	"io"
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
// are formatted by Cell.
func (t *Table) AddRowValues(label string, values ...float64) {
	cells := make([]string, 0, len(values)+1)
	cells = append(cells, label)
	for _, v := range values {
		cells = append(cells, Cell(v))
	}
	t.AddRow(cells...)
}

// Cell formats one numeric table cell with %.4g, the precision every
// results table prints.
func Cell(v float64) string {
	return fmt.Sprintf("%.4g", v)
}

// NumRows returns the number of data rows.
func (t *Table) NumRows() int { return len(t.rows) }

// Row returns row i.
func (t *Table) Row(i int) []string { return t.rows[i] }

// WriteMarkdown renders the table as GitHub-flavored markdown.
func (t *Table) WriteMarkdown(w io.Writer) error {
	if t.Title != "" {
		if _, err := fmt.Fprintf(w, "### %s\n\n", t.Title); err != nil {
			return err
		}
	}
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	pad := func(s string, n int) string { return s + strings.Repeat(" ", n-len(s)) }
	cells := make([]string, len(t.Columns))
	for i, c := range t.Columns {
		cells[i] = pad(c, widths[i])
	}
	if _, err := fmt.Fprintf(w, "| %s |\n", strings.Join(cells, " | ")); err != nil {
		return err
	}
	for i := range cells {
		cells[i] = strings.Repeat("-", widths[i])
	}
	if _, err := fmt.Fprintf(w, "| %s |\n", strings.Join(cells, " | ")); err != nil {
		return err
	}
	for _, row := range t.rows {
		for i, c := range row {
			cells[i] = pad(c, widths[i])
		}
		if _, err := fmt.Fprintf(w, "| %s |\n", strings.Join(cells, " | ")); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
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
