// Package report renders experiment results as aligned ASCII tables, the
// form EXPERIMENTS.md and the experiments package's callers — heterodmr,
// simd (through internal/simd), the root benchmarks and the bench
// harness — use to present the reproduction of the paper's tables and
// figures.
package report

import (
	"fmt"
	"strings"
)

// Table is a titled grid of cells.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// New returns an empty table.
func New(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns}
}

// AddRow appends a row; cells beyond the column count panic early to
// catch driver bugs.
func (t *Table) AddRow(cells ...string) {
	if len(cells) != len(t.Columns) {
		panic(fmt.Sprintf("report: row with %d cells in a %d-column table (%s)",
			len(cells), len(t.Columns), t.Title))
	}
	t.Rows = append(t.Rows, cells)
}

// AddRowf appends a row of formatted values: each value is rendered with
// %v, floats with 3 decimals.
func (t *Table) AddRowf(values ...interface{}) {
	cells := make([]string, len(values))
	for i, v := range values {
		switch x := v.(type) {
		case float64:
			cells[i] = fmt.Sprintf("%.3f", x)
		case float32:
			cells[i] = fmt.Sprintf("%.3f", x)
		default:
			cells[i] = fmt.Sprint(v)
		}
	}
	t.AddRow(cells...)
}

// Note attaches a footnote printed under the table.
func (t *Table) Note(format string, args ...interface{}) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	line := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	line(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// mdEscape escapes the characters that would break a markdown table
// cell: a literal "|" ends the cell, and a trailing "\" would escape the
// closing delimiter.
func mdEscape(cell string) string {
	cell = strings.ReplaceAll(cell, `\`, `\\`)
	return strings.ReplaceAll(cell, "|", `\|`)
}

// Markdown renders the table as GitHub-flavored markdown. Cell content
// is escaped so literal pipes (e.g. "a|b" configuration labels) stay
// inside their cell instead of splitting the row.
func (t *Table) Markdown() string {
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "### %s\n\n", t.Title)
	}
	esc := func(cells []string) []string {
		out := make([]string, len(cells))
		for i, c := range cells {
			out[i] = mdEscape(c)
		}
		return out
	}
	b.WriteString("| " + strings.Join(esc(t.Columns), " | ") + " |\n")
	b.WriteString("|" + strings.Repeat("---|", len(t.Columns)) + "\n")
	for _, row := range t.Rows {
		b.WriteString("| " + strings.Join(esc(row), " | ") + " |\n")
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "\n*%s*\n", n)
	}
	return b.String()
}
