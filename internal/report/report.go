// Package report renders experiment results as aligned ASCII tables and
// CSV series, the way the harness binaries print the paper's figures and
// tables.
package report

import (
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"strings"
)

// WriteTo creates the file at path, streams fn's output into it and closes
// it, reporting the first error; "-" means stdout.
func WriteTo(path string, fn func(io.Writer) error) error {
	if path == "-" {
		return fn(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fn(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Table is a simple column-aligned table.
type Table struct {
	Title   string
	Headers []string
	rows    [][]string
}

// NewTable creates a table with the given headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRow appends a row; values are formatted with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		case float32:
			row[i] = fmt.Sprintf("%.2f", v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

// Rows returns the number of data rows.
func (t *Table) Rows() int { return len(t.rows) }

// Render writes the table.
func (t *Table) Render(w io.Writer) {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	if t.Title != "" {
		fmt.Fprintf(w, "%s\n", t.Title)
	}
	var b strings.Builder
	for i, h := range t.Headers {
		fmt.Fprintf(&b, "%-*s  ", widths[i], h)
	}
	header := strings.TrimRight(b.String(), " ")
	fmt.Fprintln(w, header)
	fmt.Fprintln(w, strings.Repeat("-", len(header)))
	for _, row := range t.rows {
		var rb strings.Builder
		for i, c := range row {
			width := 0
			if i < len(widths) {
				width = widths[i]
			}
			fmt.Fprintf(&rb, "%-*s  ", width, c)
		}
		fmt.Fprintln(w, strings.TrimRight(rb.String(), " "))
	}
}

// RenderCSV writes the table as CSV: the title as a comment line, then the
// header row and the data rows.
func (t *Table) RenderCSV(w io.Writer) error {
	if t.Title != "" {
		if _, err := fmt.Fprintf(w, "# %s\n", t.Title); err != nil {
			return err
		}
	}
	return csv.NewWriter(w).WriteAll(append([][]string{t.Headers}, t.rows...))
}

// BarChart renders labelled values as horizontal ASCII bars, scaled to the
// largest value — a terminal rendition of the paper's bar figures.
type BarChart struct {
	Title  string
	Unit   string
	Width  int // bar width in characters; default 50
	labels []string
	values []float64
}

// NewBarChart creates an empty chart.
func NewBarChart(title, unit string) *BarChart {
	return &BarChart{Title: title, Unit: unit, Width: 50}
}

// Add appends one bar.
func (c *BarChart) Add(label string, value float64) {
	c.labels = append(c.labels, label)
	c.values = append(c.values, value)
}

// Render writes the chart.
func (c *BarChart) Render(w io.Writer) {
	if c.Title != "" {
		fmt.Fprintln(w, c.Title)
	}
	width := c.Width
	if width <= 0 {
		width = 50
	}
	var max float64
	labelW := 0
	for i, v := range c.values {
		if v > max {
			max = v
		}
		if len(c.labels[i]) > labelW {
			labelW = len(c.labels[i])
		}
	}
	for i, v := range c.values {
		n := 0
		if max > 0 {
			n = int(v / max * float64(width))
		}
		if n == 0 && v > 0 {
			n = 1
		}
		fmt.Fprintf(w, "%-*s |%s %.2f %s\n", labelW, c.labels[i], strings.Repeat("#", n), v, c.Unit)
	}
}

// HumanBytes formats a byte count in binary units.
func HumanBytes(b int64) string {
	switch {
	case b >= 1<<40:
		return fmt.Sprintf("%.2f TiB", float64(b)/(1<<40))
	case b >= 1<<30:
		return fmt.Sprintf("%.2f GiB", float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.2f MiB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.2f KiB", float64(b)/(1<<10))
	default:
		return fmt.Sprintf("%d B", b)
	}
}

// SizeLabel formats a request size the way Figure 1's x-axis does.
func SizeLabel(b int64) string {
	switch {
	case b >= 1<<20:
		return fmt.Sprintf("%dMiB", b>>20)
	case b >= 1<<10:
		return fmt.Sprintf("%dKiB", b>>10)
	default:
		return fmt.Sprintf("%gKiB", float64(b)/1024)
	}
}
