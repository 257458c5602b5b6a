package relation

import (
	"io"
	"strings"
)

// RenderTable writes an ASCII table in the style of the paper's figures:
// a header row of attribute names, a rule, then the rows. Rows are printed
// in the order given. Attribute names are shortened to their bare part
// when short is true. The table is assembled in one buffer sized up
// front and written with a single Write.
func RenderTable(w io.Writer, title string, attrs []string, rows [][]string, short bool) {
	header := func(i int) string {
		if short {
			_, bare := SplitQualified(attrs[i])
			return bare
		}
		return attrs[i]
	}
	// Tables up to 16 columns keep their widths on the stack: the buffer
	// is then the only allocation.
	var small [16]int
	widths := small[:0]
	if len(attrs) > len(small) {
		widths = make([]int, 0, len(attrs))
	}
	for i := range attrs {
		widths = append(widths, len(header(i)))
	}
	size := 0
	for _, row := range rows {
		for i, c := range row {
			if i < len(widths) {
				widths[i] = max(widths[i], len(c))
			} else {
				size += len(c)
			}
		}
	}
	for _, row := range rows {
		size += lineSize(len(row), widths)
	}
	if title != "" {
		size += len(title) + 1
	}
	size += 2 * lineSize(len(attrs), widths)

	b := make([]byte, 0, size)
	if title != "" {
		b = append(append(b, title...), '\n')
	}
	// A row wider than the header (a malformed reply rendered by a
	// network client) prints its extra cells unpadded.
	cell := func(b []byte, i int, c string, pad byte) []byte {
		if i > 0 {
			b = append(b, " | "...)
		}
		b = append(b, c...)
		if i < len(widths) {
			for n := widths[i] - len(c); n > 0; n-- {
				b = append(b, pad)
			}
		}
		return b
	}
	b = append(b, "| "...)
	for i := range attrs {
		b = cell(b, i, header(i), ' ')
	}
	b = append(b, " |\n| "...)
	for i := range attrs {
		b = cell(b, i, "", '-')
	}
	b = append(b, " |\n"...)
	for _, row := range rows {
		b = append(b, "| "...)
		for i, c := range row {
			b = cell(b, i, c, ' ')
		}
		b = append(b, " |\n"...)
	}
	w.Write(b) //nolint:errcheck // like fmt.Fprint, the writer owns its errors
}

// lineSize is the length of a table line of n cells, not counting the
// text of cells beyond the header's width.
func lineSize(n int, widths []int) int {
	size := len("| ") + len(" |\n")
	if n > 0 {
		size += 3 * (n - 1)
	}
	for i := 0; i < n && i < len(widths); i++ {
		size += widths[i]
	}
	return size
}

// Render writes the relation as an ASCII table in canonical tuple order.
// The cell text of every row is carved from one slab.
func (r *Relation) Render(w io.Writer, title string) {
	tuples := r.Sorted()
	rows := make([][]string, len(tuples))
	cells := make([]string, len(tuples)*len(r.Attrs))
	for i, t := range tuples {
		row := cells[:len(t):len(t)]
		cells = cells[len(t):]
		for j, v := range t {
			row[j] = v.String()
		}
		rows[i] = row
	}
	RenderTable(w, title, r.Attrs, rows, true)
}

// String renders the relation as a table.
func (r *Relation) String() string {
	var b strings.Builder
	r.Render(&b, "")
	return b.String()
}
