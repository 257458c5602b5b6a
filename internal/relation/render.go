package relation

import (
	"fmt"
	"io"
	"strings"
)

// RenderTable writes an ASCII table in the style of the paper's figures:
// a header row of attribute names, a rule, then the rows. Rows are printed
// in the order given. Attribute names are shortened to their bare part
// when short is true.
func RenderTable(w io.Writer, title string, attrs []string, rows [][]string, short bool) {
	header := make([]string, len(attrs))
	for i, a := range attrs {
		if short {
			_, header[i] = SplitQualified(a)
		} else {
			header[i] = a
		}
	}
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, row := range rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	if title != "" {
		fmt.Fprintln(w, title)
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			// A row wider than the header (a malformed reply rendered
			// by a network client) prints its extra cells unpadded.
			if i < len(widths) {
				c += strings.Repeat(" ", widths[i]-len(c))
			}
			parts[i] = c
		}
		fmt.Fprintln(w, "| "+strings.Join(parts, " | ")+" |")
	}
	rule := make([]string, len(header))
	for i := range rule {
		rule[i] = strings.Repeat("-", widths[i])
	}
	line(header)
	line(rule)
	for _, row := range rows {
		line(row)
	}
}

// Render writes the relation as an ASCII table in canonical tuple order.
func (r *Relation) Render(w io.Writer, title string) {
	rows := make([][]string, 0, r.Len())
	for _, t := range r.Sorted() {
		row := make([]string, len(t))
		for i, v := range t {
			row[i] = v.String()
		}
		rows = append(rows, row)
	}
	RenderTable(w, title, r.Attrs, rows, true)
}

// String renders the relation as a table.
func (r *Relation) String() string {
	var b strings.Builder
	r.Render(&b, "")
	return b.String()
}
