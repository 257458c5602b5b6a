package wire

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"authdb/internal/relation"
	"authdb/internal/value"
)

// raw is a run of frame bytes as they are; zz is a zigzag varint.
type (
	raw string
	zz  int64
)

// frameOf builds a payload from its parts: an int is a uvarint, a byte
// itself, a string a length-prefixed string.
func frameOf(parts ...any) []byte {
	var b []byte
	for _, p := range parts {
		switch p := p.(type) {
		case int:
			b = binary.AppendUvarint(b, uint64(p))
		case byte:
			b = append(b, p)
		case string:
			b = appendStr(b, p)
		case raw:
			b = append(b, p...)
		case zz:
			b = binary.AppendVarint(b, int64(p))
		default:
			panic(fmt.Sprintf("frameOf: %T", p))
		}
	}
	return b
}

// TestDecodeResponseGrammar pins which payloads the codec takes: every
// reply AppendResponse can write, arbitrary bytes in strings included,
// and nothing else. A count the bytes left cannot hold is refused
// before anything is sized by it.
func TestDecodeResponseGrammar(t *testing.T) {
	const maxID = raw("\xff\xff\xff\xff\xff\xff\xff\xff\xff\x01")
	for _, c := range []struct {
		name  string
		frame []byte
		ok    bool
	}{
		{"id 0", frameOf(0, byte(0)), true},
		{"largest id", frameOf(maxID, byte(0)), true},
		{"raw bytes in text", frameOf(1, byte(flagText), "\xff\xed\xa0\x80 \xc3\xa9 \x00 \u2028 <&> \"\\"), true},
		{"text and rendered", frameOf(1, byte(flagText|flagRendered), "t", "r"), true},
		{"partial table", frameOf(1, byte(flagTable|flagPermits), 2, "A", "B", 2, "a", "-", "", "x\xffy", 1, "p"), true},
		{"empty table", frameOf(1, byte(flagTable|flagDenied), 0, 0), true},
		{"table without rows", frameOf(1, byte(flagTable|flagFull), 1, "A", 0), true},
		{"both outcome flags", frameOf(1, byte(flagFull|flagDenied)), true},
		{"error", frameOf(1, byte(flagError), "X", "m", zz(-3), zz(math.MinInt64), "h:1", byte(1)), true},
		// Front-coded: 11 bytes of rows where plain takes 12.
		{"front-coded table", frameOf(1, byte(flagTable|flagFront), 2, "A", "B", 3, 0, "x", "1", 1, "2", 1, "3"), true},
		{"front-coded whole row", frameOf(1, byte(flagTable|flagFront), 2, "A", "B", 2, 0, "xxxxxxxx", "1", 2), true},
		// Plain, because front coding would save nothing: "x" takes 2
		// bytes and its k 1, and the first row's k 1 more.
		{"plain table, no gain", frameOf(1, byte(flagTable), 2, "A", "B", 2, "x", "1", "x", "2"), true},
		// Plain, because front-coded its rows would take 7 bytes for
		// 12 cells.
		{"plain table, more cells than front-coded bytes",
			frameOf(1, byte(flagTable), 4, "A", "B", "C", "D", 3, "", "", "", "", "", "", "", "", "", "", "", ""), true},

		{"empty", frameOf(), false},
		{"truncated varint", frameOf(raw("\x80")), false},
		{"non-minimal varint", frameOf(raw("\x80\x00"), byte(0)), false},
		{"non-minimal count", frameOf(1, byte(flagPermits), raw("\x81\x00"), "p"), false},
		{"varint past 64 bits", frameOf(raw("\xff\xff\xff\xff\xff\xff\xff\xff\xff\x02"), byte(0)), false},
		{"eleven-byte varint", frameOf(raw("\xff\xff\xff\xff\xff\xff\xff\xff\xff\x80\x01"), byte(0)), false},
		{"no flags", frameOf(1), false},
		{"front-coded flag without a table", frameOf(1, byte(flagFront)), false},
		{"front-coded, not shorter", frameOf(1, byte(flagTable|flagFront), 2, "A", "B", 2, 0, "x", "1", 1, "2"), false},
		{"plain, front coding shorter", frameOf(1, byte(flagTable), 2, "A", "B", 3, "x", "1", "x", "2", "x", "3"), false},
		{"front-coded, k on the first row", frameOf(1, byte(flagTable|flagFront), 2, "A", "B", 3, 1, "1", 1, "2", 1, "3"), false},
		{"front-coded, k not the largest",
			frameOf(1, byte(flagTable|flagFront), 2, "A", "B", 3, 0, "xxxxxxxx", "1", 1, "2", 0, "xxxxxxxx", "3"), false},
		{"front-coded, k past the columns", frameOf(1, byte(flagTable|flagFront), 2, "A", "B", 2, 0, "xxxxxxxx", "1", 3), false},
		{"front-coded, no rows", frameOf(1, byte(flagTable|flagFront), 1, "A", 0), false},
		{"front-coded, no columns", frameOf(1, byte(flagTable|flagFront), 0, 0), false},
		// The permit after the rows leaves room for the row count.
		{"front-coded, more cells than bytes",
			frameOf(1, byte(flagTable|flagFront|flagPermits), 4, "A", "B", "C", "D", 3, 0, "", "", "", "", 4, 4, 1, "xxxxxxxx"), false},
		{"front-coded, a million cells in 4 KB", denseFrontCoded(), false},
		{"present text empty", frameOf(1, byte(flagText), ""), false},
		{"present rendered empty", frameOf(1, byte(flagRendered), ""), false},
		{"present permits empty", frameOf(1, byte(flagPermits), 0), false},
		{"string past the end", frameOf(1, byte(flagText), raw("\x05abc")), false},
		{"cell past the end", frameOf(1, byte(flagTable), 1, "A", 1, raw("\x09x")), false},
		{"missing cell", frameOf(1, byte(flagTable), 2, "A", "B", 1, "a"), false},
		{"more permits than bytes", frameOf(1, byte(flagPermits), 1<<20), false},
		{"more columns than bytes", frameOf(1, byte(flagTable), 1<<20, "A"), false},
		{"more rows than bytes", frameOf(1, byte(flagTable), 1, "A", 1<<20), false},
		{"more cells than bytes", frameOf(1, byte(flagTable), 2, "A", "B", 3, "a", "b"), false},
		{"rows of no columns", frameOf(1, byte(flagTable), 0, 1), false},
		{"many rows of no columns", frameOf(1, byte(flagTable), 0, 1<<20), false},
		{"retryable byte 2", frameOf(1, byte(flagError), "X", "m", zz(0), zz(0), "", byte(2)), false},
		{"error cut short", frameOf(1, byte(flagError), "X", "m", zz(0), zz(0), ""), false},
		{"trailing byte", frameOf(0, byte(0), byte(0)), false},
	} {
		var got Response
		var err error
		grown := allocBytes(func() { err = DecodeResponse(c.frame, &got) })
		if (err == nil) != c.ok {
			t.Errorf("%s: DecodeResponse(%q) error = %v, want accepted %v", c.name, c.frame, err, c.ok)
			continue
		}
		if !c.ok && grown > 64<<10 {
			t.Errorf("%s: refusing a %d-byte frame allocated %d bytes", c.name, len(c.frame), grown)
		}
		checkDecode(t, c.frame)
	}
}

// denseFrontCoded is a front-coded table of 1024 empty columns and as
// many rows, each after the first a two-byte k that repeats the row
// above whole: about 4 KB that would decode to a million cells.
func denseFrontCoded() []byte {
	const n = 1024
	b := frameOf(1, byte(flagTable|flagFront), n)
	for j := 0; j < n; j++ {
		b = append(b, 0)
	}
	b = frameOf(raw(b), n, 0)
	for j := 0; j < n; j++ {
		b = append(b, 0)
	}
	for i := 1; i < n; i++ {
		b = frameOf(raw(b), n)
	}
	return b
}

// TestDenseTableIsPlain: a table whose rows repeat each other whole
// would front-code to far fewer bytes than it has cells, so it is
// written plain, and the front-coded frame is refused before its cells
// are allocated.
func TestDenseTableIsPlain(t *testing.T) {
	const n = 64
	tbl := &Table{Columns: make([]string, n), Rows: make([][]string, n)}
	for i := range tbl.Rows {
		tbl.Rows[i] = make([]string, n)
	}
	p, err := AppendResponse(nil, &Response{ID: 1, Table: tbl})
	if err != nil {
		t.Fatal(err)
	}
	if p[1]&flagFront != 0 {
		t.Fatalf("%d empty rows of %d cells were front-coded", n, n)
	}
	checkDecode(t, p)

	dense := denseFrontCoded()
	var r Response
	if b := allocBytes(func() {
		if DecodeResponse(dense, &r) == nil {
			t.Fatal("a dense front-coded table decoded")
		}
	}); b > 1<<16 {
		t.Errorf("refusing a %d-byte frame allocated %d bytes", len(dense), b)
	}
}

// allocBytes is the number of bytes f allocates on the heap.
func allocBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestResponseCodecRandom runs the fuzz target's encode arm over
// seeded random replies drawn from an alphabet of bytes a text codec
// would single out.
func TestResponseCodecRandom(t *testing.T) {
	alphabet := []string{"a", "Z", "0", " ", "-", "|", "\n", "\"", "\\", "/", "<", ">", "&", "\x00", "\x1f", "\x7f",
		"\b", "\t", "\xc3\xa9", "\xe2\x80\xa8", "\xe2\x80\xa9", "\xf0\x9f\x98\x80", "\xff", "\xed\xa0\x80", "\xc3"}
	rng := rand.New(rand.NewSource(1))
	str := func() string {
		b := make([]byte, 0, 16)
		for n := rng.Intn(12); n > 0; n-- {
			b = append(b, alphabet[rng.Intn(len(alphabet))]...)
		}
		return string(b)
	}
	for i := 0; i < 3000; i++ {
		r := fuzzResponse(str(), str()+"\n"+str()+"\n"+str(), str(), rng.Uint64()>>rng.Intn(64),
			uint16(rng.Intn(1<<11)), rng.Intn(200)-100, rng.Int())
		checkEncode(t, r)
	}
}

// randomValue draws a cell value whose text is easy to confuse with
// another's: null against the string "-", integers against their
// decimal strings, the extremes of int64, empty strings and NUL bytes.
func randomValue(rng *rand.Rand) value.Value {
	ints := []int64{0, 1, -1, 7, -42, 1 << 40, math.MaxInt64, math.MinInt64}
	// The strings include each side of a one-byte length (127 and 128).
	strs := []string{"", "-", "5", "-1", "\x00", "a\x00b", "x\xffy", "\u2028<&>", "Brown",
		strings.Repeat("s", 127), strings.Repeat("s", 128)}
	switch rng.Intn(5) {
	case 0:
		return value.Null()
	case 1:
		return value.Int(ints[rng.Intn(len(ints))])
	case 2:
		return value.Int(rng.Int63() - rng.Int63())
	case 3:
		return value.Int(rng.Int63n(2e8))
	default:
		return value.String(strs[rng.Intn(len(strs))])
	}
}

// TestTuplesFrameMatchesCellText is the writer differential on random
// tuples: a table written from its tuples, directly or as an encoded
// section, is byte for byte the table written from their cell text,
// value.Value.String(), front-coded or not.
func TestTuplesFrameMatchesCellText(t *testing.T) {
	fronted := 0
	same := func(cols []string, tuples []relation.Tuple, rows [][]string) {
		t.Helper()
		fromTuples, err := AppendResponse(nil, &Response{ID: 9, Table: &Table{Columns: cols, Tuples: tuples}})
		if err != nil {
			t.Fatal(err)
		}
		fromText, err := AppendResponse(nil, &Response{ID: 9, Table: &Table{Columns: cols, Rows: rows}})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(fromTuples, fromText) {
			t.Fatalf("tuples %v:\nfrom tuples %q\nfrom text   %q", tuples, fromTuples, fromText)
		}
		sec, err := AppendTableSection(nil, &Table{Columns: cols, Tuples: tuples})
		if err != nil {
			t.Fatal(err)
		}
		fromSection, err := AppendResponse(nil, &Response{ID: 9, Table: &Table{Section: sec}})
		if err != nil || !bytes.Equal(fromSection, fromText) {
			t.Fatalf("tuples %v:\nfrom section %q (%v)\nfrom text     %q", tuples, fromSection, err, fromText)
		}
		if fromText[1]&flagFront != 0 {
			fronted++
		}
	}
	// Integers on each side of a digit-count boundary, zero, negatives
	// and both ends of int64.
	var edges []relation.Tuple
	var edgeText [][]string
	for _, n := range []int64{0, 9, 10, 99, 100, 9999, 1e4, 1e8 - 1, 1e8, -1, -1e8, math.MaxInt64, math.MinInt64} {
		edges = append(edges, relation.Tuple{value.Int(n)})
		edgeText = append(edgeText, []string{strconv.FormatInt(n, 10)})
	}
	same([]string{"N"}, edges, edgeText)
	for i, tp := range edges {
		if got, want := cellSize(tp[0]), strSize(edgeText[i][0]); got != want {
			t.Errorf("cellSize(%s) = %d, want %d", edgeText[i][0], got, want)
		}
	}

	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		ncols := 1 + rng.Intn(5)
		cols := make([]string, ncols)
		for j := range cols {
			cols[j] = fmt.Sprintf("C%d", j)
		}
		var tuples []relation.Tuple
		var rows [][]string
		for n := rng.Intn(20); n > 0; n-- {
			tp := make(relation.Tuple, ncols)
			row := make([]string, ncols)
			for j := range tp {
				tp[j] = randomValue(rng)
				row[j] = tp[j].String()
			}
			tuples, rows = append(tuples, tp), append(rows, row)
		}
		same(cols, tuples, rows)
	}
	// Columns that mix kinds with equal text: each cell is one of two
	// pairs of values, each pair one text in two kinds (the integer 5
	// and the string "5", null and "-"), so rows often share a prefix
	// across kinds, and now and then a whole row.
	twins := [][2]value.Value{
		{value.Int(5), value.String("5")}, {value.Null(), value.String("-")},
		{value.Int(-1), value.String("-1")}, {value.Int(1e9), value.String("1000000000")},
	}
	fronted = 0
	for i := 0; i < 1000; i++ {
		ncols := 1 + rng.Intn(4)
		cols := make([]string, ncols)
		for j := range cols {
			cols[j] = fmt.Sprintf("C%d", j)
		}
		var tuples []relation.Tuple
		var rows [][]string
		for n := 1 + rng.Intn(20); n > 0; n-- {
			tp := make(relation.Tuple, ncols)
			row := make([]string, ncols)
			for j := range tp {
				tp[j] = twins[(j+rng.Intn(2))%len(twins)][rng.Intn(2)]
				row[j] = tp[j].String()
			}
			tuples, rows = append(tuples, tp), append(rows, row)
		}
		same(cols, tuples, rows)
	}
	if fronted == 0 {
		t.Fatal("no table of mixed kinds was front-coded")
	}

	// A tuple of another width than the columns is refused, as a row is.
	bad := &Response{Table: &Table{Columns: []string{"A", "B"}, Tuples: []relation.Tuple{{value.Int(1)}}}}
	if _, err := AppendResponseFrame(nil, bad); err != errShape {
		t.Fatalf("narrow tuple: error %v, want %v", err, errShape)
	}
}

// tableResponse is a partial answer of n rows by k columns of short
// cells, every fifth withheld: an acl_cold org_list reply is 400 × 3
// and Example 3's 3003 × 4.
func tableResponse(n, k int) *Response {
	r := &Response{ID: 7, Table: &Table{}, Permits: []string{"permit (R.C0, R.C1)"}}
	for j := 0; j < k; j++ {
		r.Table.Columns = append(r.Table.Columns, fmt.Sprintf("R.C%d", j))
	}
	for i := 0; i < n; i++ {
		row := make([]string, k)
		for j := range row {
			row[j] = fmt.Sprintf("v%d_%d", i, j)
			if (i+j)%5 == 0 {
				row[j] = "-"
			}
		}
		r.Table.Rows = append(r.Table.Rows, row)
	}
	return r
}

// TestDecodeResponseAllocs bounds a table reply's decoding by a
// constant: the payload copied to one string, the Table, one slice of
// columns, of cells, of rows and of permits. encoding/json took 2187
// allocations for these 400 × 3 and 26 462 for 3003 × 6.
func TestDecodeResponseAllocs(t *testing.T) {
	for _, c := range []struct{ rows, cols int }{{400, 3}, {3003, 6}} {
		in := tableResponse(c.rows, c.cols)
		frame, err := AppendResponse(nil, in)
		if err != nil {
			t.Fatal(err)
		}
		var out Response
		allocs := testing.AllocsPerRun(10, func() {
			if err := DecodeResponse(frame, &out); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%d × %d: %.0f allocations", c.rows, c.cols, allocs)
		if !reflect.DeepEqual(&out, in) {
			t.Fatalf("%d × %d: decoded reply differs from the encoded one", c.rows, c.cols)
		}
		if allocs > 12 {
			t.Errorf("decoding a %d × %d table took %.0f allocations, want at most 12", c.rows, c.cols, allocs)
		}
	}
}

// TestDecodedRowsAreDisjoint: rows share one array of cells, so each
// must end at its own last cell; an append to one row must not
// overwrite the next.
func TestDecodedRowsAreDisjoint(t *testing.T) {
	var r Response
	if err := DecodeResponse(frameOf(1, byte(flagTable), 1, "A", 2, "a", "b"), &r); err != nil {
		t.Fatal(err)
	}
	rows := r.Table.Rows
	_ = append(rows[0], "clobber")
	if rows[1][0] != "b" {
		t.Fatalf("appending to row 0 overwrote row 1: %q", rows[1])
	}
}

// TestAppendResponseAllocs: encoding into a buffer with room allocates
// nothing, from cell text or from tuples, and into nil allocates once.
func TestAppendResponseAllocs(t *testing.T) {
	r := tableResponse(400, 3)
	r.Error = &Error{Code: CodeExec, Message: "<&>", Line: 2, Col: 3, Leader: "h:1"}
	buf, err := AppendResponse(nil, r)
	if err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(10, func() { buf, _ = AppendResponse(buf[:0], r) }); allocs != 0 {
		t.Errorf("AppendResponse into a reused buffer took %.0f allocations, want 0", allocs)
	}
	tuples := &Response{ID: 7, Table: &Table{Columns: []string{"A", "B", "C"}}}
	for i := 0; i < 400; i++ {
		tuples.Table.Tuples = append(tuples.Table.Tuples,
			relation.Tuple{value.String("Brown"), value.Int(int64(i) * 997), value.Null()})
	}
	buf, _ = AppendResponse(buf[:0], tuples)
	if allocs := testing.AllocsPerRun(10, func() { buf, _ = AppendResponse(buf[:0], tuples) }); allocs != 0 {
		t.Errorf("AppendResponse of tuples into a reused buffer took %.0f allocations, want 0", allocs)
	}
	// Without a buffer, one allocation: the size hint covers every field
	// written from text.
	full := &Response{ID: math.MaxUint64, Text: "t", Rendered: "r", Table: &Table{Columns: []string{"A"}, Rows: [][]string{{"a"}}},
		Permits: []string{"p"}, FullyAuthorized: true, Denied: true,
		Error: &Error{Code: "c", Message: "m", Line: math.MinInt, Col: math.MinInt, Retryable: true, Leader: "l"}}
	if allocs := testing.AllocsPerRun(10, func() { _, _ = AppendResponse(nil, full) }); allocs != 1 {
		t.Errorf("AppendResponse into nil took %.0f allocations, want 1", allocs)
	}
}

// TestDecodeRequestAllocs: a Request decodes with one allocation, the
// copy of its payload that its statement text is cut from (an escaping
// decoder and walker took 2 more), and no decoded message keeps the
// caller's buffer: the server reads every request of a connection into
// one.
func TestDecodeRequestAllocs(t *testing.T) {
	in := Request{ID: 9, Stmt: `retrieve (EMPLOYEE.NAME) where EMPLOYEE.NAME = "Brown"`, TimeoutMS: 250}
	p := Append(nil, &in)
	var out Request
	allocs := testing.AllocsPerRun(100, func() {
		if err := Decode(p, &out); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 1 {
		t.Errorf("decoding a Request took %.0f allocations, want 1", allocs)
	}
	clear(p)
	if out != in {
		t.Fatalf("overwriting the buffer changed the decoded request: %+v", out)
	}

	for _, m := range []struct{ in, out Msg }{
		{&HelloReply{Server: "authdb/1", Error: &Error{Code: CodeProtocol, Message: "m", Leader: "h:1"}}, new(HelloReply)},
		{&Hello{Proto: ProtoVersion, User: "Brown", Token: "t"}, new(Hello)},
	} {
		p := Append(nil, m.in)
		if err := Decode(p, m.out); err != nil {
			t.Fatal(err)
		}
		clear(p)
		if !reflect.DeepEqual(m.out, m.in) {
			t.Errorf("overwriting the buffer changed the decoded %T: %+v, want %+v", m.in, m.out, m.in)
		}
	}
}
