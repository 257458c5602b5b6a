package relation

import (
	"io"
	"math"
	"strings"
)

// RenderTable writes an ASCII table in the style of the paper's figures:
// a header row of attribute names, a rule, then the rows. Rows are printed
// in the order given. Attribute names are shortened to their bare part
// when short is true.
//
// The widths, and from them one blank line, are computed once; a row
// with one cell per column is that line with its cells copied in at
// fixed offsets. A strings.Builder is grown once to the table's size and
// the lines go into it a few kilobytes at a time; any other writer gets
// the whole table in one Write.
func RenderTable(w io.Writer, title string, attrs []string, rows [][]string, short bool) {
	// Tables up to 16 columns keep their header, widths and offsets on
	// the stack.
	var smallHdr [16]string
	var small, smallAt [16]int
	hdr, widths, at := smallHdr[:0], small[:0], smallAt[:0]
	if len(attrs) > len(small) {
		hdr, widths, at = make([]string, 0, len(attrs)), make([]int, 0, len(attrs)), make([]int, 0, len(attrs))
	}
	for _, a := range attrs {
		if short {
			_, a = SplitQualified(a)
		}
		hdr, widths = append(hdr, a), append(widths, len(a))
	}
	size, ragged := 0, false
	for _, row := range rows {
		ragged = ragged || len(row) != len(widths)
		for i, c := range row {
			if i < len(widths) {
				widths[i] = max(widths[i], len(c))
			} else {
				size += len(c)
			}
		}
	}
	n := lineSize(len(attrs), widths)
	size += (2 + len(rows)) * n
	if ragged {
		for _, row := range rows {
			size += lineSize(len(row), widths) - n
		}
	}
	if title != "" {
		size += len(title) + 1
	}

	var blankBuf [256]byte
	l := tableLayout{blank: append(blankBuf[:0], "| "...), widths: widths}
	for i, wd := range widths {
		if i > 0 {
			l.blank = append(l.blank, " | "...)
		}
		at = append(at, len(l.blank))
		for ; wd > 0; wd-- {
			l.blank = append(l.blank, ' ')
		}
	}
	l.blank, l.at = append(l.blank, " |\n"...), at

	// The title, the header and the rule.
	var chunk [4096]byte
	head := chunk[:0]
	if title != "" {
		head = append(append(head, title...), '\n')
	}
	head, _ = l.appendRows(head, [][]string{hdr}, len(chunk))
	base := len(head)
	head = append(head, l.blank...)
	for i, wd := range widths {
		for j := base + at[i]; j < base+at[i]+wd; j++ {
			head[j] = '-'
		}
	}

	if sb, ok := w.(*strings.Builder); ok {
		sb.Grow(size)
		for b := head; ; b = chunk[:0] {
			var k int
			b, k = l.appendRows(b, rows, len(chunk))
			sb.Write(b)
			if rows = rows[k:]; len(rows) == 0 {
				return
			}
		}
	}
	b := append(make([]byte, 0, size), head...)
	b, _ = l.appendRows(b, rows, math.MaxInt)
	w.Write(b) //nolint:errcheck // like fmt.Fprint, the writer owns its errors
}

// tableLayout is what every line of a table is made from: blank is "| ",
// each column's width of spaces joined by " | ", then " |\n", and at[i]
// is where cell i starts in it.
type tableLayout struct {
	blank      []byte
	at, widths []int
}

// appendRows appends the lines of rows to b, stopping before a row that
// might take b past limit bytes unless it is the first. It returns b and
// the number of rows appended.
func (l *tableLayout) appendRows(b []byte, rows [][]string, limit int) ([]byte, int) {
	for k, row := range rows {
		if k > 0 && len(b) > limit-len(l.blank) {
			return b, k
		}
		if len(row) != len(l.widths) {
			b = raggedLine(b, row, l.widths)
			continue
		}
		base := len(b)
		b = append(b, l.blank...)
		for i, c := range row {
			copy(b[base+l.at[i]:], c)
		}
	}
	return b, len(rows)
}

// raggedLine appends a row that has not one cell per column, cell by
// cell: a row wider than the header (a malformed reply rendered by a
// network client) prints its extra cells unpadded.
func raggedLine(b []byte, row []string, widths []int) []byte {
	b = append(b, "| "...)
	for i, c := range row {
		if i > 0 {
			b = append(b, " | "...)
		}
		b = append(b, c...)
		if i < len(widths) {
			for n := widths[i] - len(c); n > 0; n-- {
				b = append(b, ' ')
			}
		}
	}
	return append(b, " |\n"...)
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
