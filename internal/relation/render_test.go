package relation

import (
	"bytes"
	"fmt"
	"io"
	"strconv"
	"strings"
	"testing"
)

// renderTableRef is the renderer RenderTable replaced, kept verbatim as
// the byte-for-byte oracle: one fmt.Fprintln per line, cells padded with
// strings.Repeat and joined with strings.Join.
func renderTableRef(w io.Writer, title string, attrs []string, rows [][]string, short bool) {
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

// splitTable decodes a fuzz input: attributes are header's tab-separated
// fields and rows are body's lines, each split on tabs; an empty header
// or line stands for zero cells.
func splitTable(header, body string) (attrs []string, rows [][]string) {
	fields := func(s string) []string {
		if s == "" {
			return []string{}
		}
		return strings.Split(s, "\t")
	}
	attrs = fields(header)
	if body != "" {
		for _, line := range strings.Split(body, "\n") {
			rows = append(rows, fields(line))
		}
	}
	return attrs, rows
}

// FuzzRenderTable checks RenderTable byte for byte against the renderer
// it replaced, ragged rows included, into a strings.Builder (written a
// chunk at a time) and into any other writer (written once).
func FuzzRenderTable(f *testing.F) {
	f.Add("", "", "", false)                                           // zero columns, no rows
	f.Add("", "A\tB", "", false)                                       // no rows
	f.Add("EMPLOYEE", "NAME\tSALARY", "Jones\t26000", true)            // a title
	f.Add("", "EMPLOYEE:1.NAME\tPROJECT.BUDGET", "x\t1\nyy\t22", true) // short, qualified
	f.Add("", "EMPLOYEE:1.NAME\tPROJECT.BUDGET", "x\t1", false)        // long, qualified
	f.Add("", "A", "1\t2\t3\nlonger-than-header", false)               // rows wider than the header
	f.Add("", "A\tB\tC", "1\n\nx\ty", false)                           // rows narrower, an empty row
	f.Add("t", "NAME\tCITY", "Müller\tZürich\n東京\t-", false)           // multibyte cells
	f.Add("", "A\tB", "-\t-\n-\tvalue", false)                         // withheld cells
	f.Fuzz(func(t *testing.T, title, header, body string, short bool) {
		attrs, rows := splitTable(header, body)
		sameAsReference(t, title, attrs, rows, short)
	})
}

// sameAsReference renders a table into a strings.Builder and into a
// bytes.Buffer and checks both against renderTableRef.
func sameAsReference(t *testing.T, title string, attrs []string, rows [][]string, short bool) {
	t.Helper()
	var want, buf bytes.Buffer
	var sb strings.Builder
	renderTableRef(&want, title, attrs, rows, short)
	RenderTable(&buf, title, attrs, rows, short)
	RenderTable(&sb, title, attrs, rows, short)
	if !bytes.Equal(buf.Bytes(), want.Bytes()) {
		t.Fatalf("RenderTable into a writer differs from the reference:\n got %q\nwant %q", buf.Bytes(), want.Bytes())
	}
	if sb.String() != want.String() {
		t.Fatalf("RenderTable into a strings.Builder differs from the reference:\n got %q\nwant %q", sb.String(), want.String())
	}
}

// TestRenderTableLarge checks tables larger than the fuzzer reaches: many
// lines, so a strings.Builder receives them in several chunks; lines
// longer than a chunk; and more columns than the widths kept on the
// stack, with ragged rows among them.
func TestRenderTableLarge(t *testing.T) {
	attrs, rows := example3Table()
	sameAsReference(t, "EXAMPLE 3", attrs, rows, false)
	wide := make([]string, 20)
	for i := range wide {
		wide[i] = fmt.Sprintf("REL.COLUMN%d", i)
	}
	var wideRows [][]string
	for i := 0; i < 50; i++ {
		row := make([]string, 20+i%3-1)
		for j := range row {
			row[j] = strings.Repeat(string(rune('a'+j%26)), (i*j)%300)
		}
		wideRows = append(wideRows, row)
	}
	sameAsReference(t, "", wide, wideRows, true)
}

// example3Table is the shape of the paper's Example 3 answer as the wire
// carries it: 3003 rows of six columns.
func example3Table() ([]string, [][]string) {
	attrs := []string{"NAME:1", "TITLE:1", "SALARY:1", "NAME:2", "TITLE:2", "SALARY:2"}
	rows := make([][]string, 3003)
	for i := range rows {
		rows[i] = []string{
			"employee-" + strconv.Itoa(i%77), "engineer", strconv.Itoa(20000 + 37*i),
			"employee-" + strconv.Itoa(i%39), "manager", strconv.Itoa(31000 + 11*i),
		}
	}
	return attrs, rows
}

// TestRenderTableAllocs: a table rendered into a strings.Builder grows
// it once and writes its lines from a stack buffer, so a 3003 × 6 table
// costs the builder's buffer, not objects per row or cell.
func TestRenderTableAllocs(t *testing.T) {
	attrs, rows := example3Table()
	allocs := testing.AllocsPerRun(20, func() {
		var b strings.Builder
		RenderTable(&b, "", attrs, rows, false)
	})
	if allocs > 3 {
		t.Fatalf("RenderTable allocated %.0f objects, want at most 3", allocs)
	}
}
