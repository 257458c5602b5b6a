package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"math"
	"reflect"
	"strings"
	"testing"
)

// seedFrames builds the seed corpus: one well-formed frame per message
// type, plus malformed inputs a hostile or broken peer could send.
func seedFrames(tb testing.TB) [][]byte {
	tb.Helper()
	frame := func(v any) []byte {
		var buf bytes.Buffer
		if err := WriteMsg(&buf, v); err != nil {
			tb.Fatalf("seed frame: %v", err)
		}
		return buf.Bytes()
	}
	framed := func(payload []byte) []byte {
		return append(binary.LittleEndian.AppendUint32(nil, uint32(len(payload))), payload...)
	}
	return [][]byte{
		frame(&Hello{Proto: ProtoVersion, User: "Brown", Admin: true, Token: "t"}),
		frame(&HelloReply{Server: "authdb"}),
		frame(&Request{ID: 9, Stmt: "retrieve (EMPLOYEE.NAME) where EMPLOYEE.NAME = \"a\xffb\"", TimeoutMS: 100}),
		frame(&Response{ID: 9, Table: &Table{Columns: []string{"NAME"}, Rows: [][]string{{"Brown"}, {"-"}}},
			Permits: []string{"permit (NAME)"}, Error: &Error{Code: CodeExec, Message: "nope"}}),
		// The replication messages protocol 9 had, as their senders
		// wrote them: a REPL_HELLO, three REPL_HELLO_REPLYs (a snapshot,
		// a diverged follower's, a refusal), two REPL_BATCHes (a stream
		// batch and a snapshot batch, From zero), a REPL_ACK and a
		// REPL_FENCE. No message has their tags now, so every decoder
		// refuses them.
		framed(frameOf(byte(0xfb), zz(ProtoVersion), "t", 41, 3, "127.0.0.1:4100")),
		framed(frameOf(byte(0xfc), byte(1), 2, 41, 3, byte(0), 1, 0, byte(0), 0)),
		framed(frameOf(byte(0xfc), byte(1), 7, 50, 0, byte(0), 4, 2, 1, 0, 4, 41, byte(1), 41)),
		framed(frameOf(byte(0xfc), byte(0), 0, 0, 0, byte(1), CodeProtocol, "bad token", zz(-1), zz(0), "", byte(1), 0, 0, byte(0), 0)),
		framed(frameOf(byte(0xff), 42, 2, zz(0), 2, "insert into R values (x)", "permit V to U")),
		framed(frameOf(byte(0xff), 0, 4, zz(0), 2, "relation R (A)", `insert into R values ("5")`)),
		framed(frameOf(byte(0xfd), 43)),
		framed(frameOf(byte(0xfe), 5, "127.0.0.1:4100")),
		// An error reply whose leader str is not empty: the server always
		// sends it empty, but the frame layout still holds the field.
		frame(&Response{ID: 3, Error: &Error{Code: CodeExec,
			Message: "m", Leader: "127.0.0.1:4100"}}),
		// A table of one column and no rows, and one with a withheld cell.
		frame(&Response{ID: 4, Table: &Table{Columns: []string{"A"}}, FullyAuthorized: true}),
		frame(&Response{ID: 5, Table: &Table{Columns: []string{"A", "B"}, Rows: [][]string{{"x", "-"}}}, Denied: true}),
		// Two frames back to back.
		append(frame(&Request{ID: 1, Stmt: "a"}),
			frame(&Hello{Proto: ProtoVersion, User: "u"})...),
		// Malformed: truncated header, truncated payload, a payload
		// neither a control message nor a reply, oversize length word,
		// an unknown tag.
		{0x05, 0x00},
		{0x05, 0x00, 0x00, 0x00, byte(KindHello), 14},
		{0x03, 0x00, 0x00, 0x00, 'x', 'y', 'z'},
		{0xff, 0xff, 0xff, 0xff},
		framed(frameOf(byte(KindHello-1), 1, "u")),
		// A protocol-6 peer's JSON hello, a request with a non-minimal
		// varint, a hello with an admin byte of 2, and a hello reply with
		// a trailing byte.
		framed([]byte(`{"proto":6,"user":"u"}`)),
		framed(frameOf(byte(KindRequest), raw("\x81\x00"), "s", zz(0))),
		framed(frameOf(byte(KindHello), zz(7), "u", byte(2), "")),
		framed(frameOf(byte(KindHelloReply), "authdb", byte(0), byte(0))),
	}
}

// FuzzDecode feeds arbitrary bytes through the frame reader and decodes
// every frame both as each control message, the way a server does,
// and as a reply, the way a client does, checking nothing panics,
// limits hold, and an accepted frame re-encodes to its own bytes.
func FuzzDecode(f *testing.F) {
	for _, seed := range seedFrames(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		decodeStream(t, data)
	})
}

// TestDecodeCorpus runs the fuzz body over the seeds in ordinary test
// runs, and checks the well-formed ones round-trip.
func TestDecodeCorpus(t *testing.T) {
	for _, seed := range seedFrames(t) {
		decodeStream(t, seed)
	}

	var buf bytes.Buffer
	in := Request{ID: 7, Stmt: "insert into R values (\"a\xffb\", \"\x01<&>\")", TimeoutMS: -1}
	if err := WriteMsg(&buf, &in); err != nil {
		t.Fatal(err)
	}
	payload, err := ReadFrame(bufio.NewReader(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if got := kindOf(payload); got != KindRequest {
		t.Fatalf("tag %#x, want %#x", got, KindRequest)
	}
	var out Request
	if err := Decode(payload, &out); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out, in) {
		t.Fatalf("round trip = %+v, want %+v", out, in)
	}
}

// kindOf returns the kind a payload's tag byte names, zero for an empty
// payload.
func kindOf(p []byte) Kind {
	if len(p) == 0 {
		return 0
	}
	return Kind(p[0])
}

// kinds holds every control message kind, each with an empty message.
var kinds = []struct {
	kind Kind
	new  func() Msg
}{
	{KindHello, func() Msg { return new(Hello) }},
	{KindHelloReply, func() Msg { return new(HelloReply) }},
	{KindRequest, func() Msg { return new(Request) }},
}

// decodeStream is the shared fuzz body: read frames until the input
// runs out, decoding each as every control message and as a reply.
func decodeStream(t *testing.T, data []byte) {
	t.Helper()
	r := bufio.NewReader(bytes.NewReader(data))
	for i := 0; i < 16; i++ {
		payload, err := ReadFrame(r)
		if err != nil {
			return
		}
		for _, k := range kinds {
			checkMsg(t, payload, k.new(), k.kind)
		}
		checkDecode(t, payload)
	}
}

// checkMsg is the control codec's acceptance contract on one payload
// decoded as m, of kind k: only the message MsgKind names accepts it,
// an accepted payload re-encodes to the same bytes, and a refused one
// leaves m zero.
func checkMsg(t *testing.T, payload []byte, m Msg, k Kind) {
	t.Helper()
	if err := Decode(payload, m); err != nil {
		if !reflect.ValueOf(m).Elem().IsZero() {
			t.Fatalf("Decode refused %q as %T but left %+v", payload, m, m)
		}
		return
	}
	if kindOf(payload) != k {
		t.Fatalf("Decode accepted %q, of kind %#x, as %T", payload, kindOf(payload), m)
	}
	if again := Append(nil, m); !bytes.Equal(again, payload) {
		t.Fatalf("Decode accepted %q as %T, which re-encodes to %q", payload, m, again)
	}
}

// fuzzMsgs builds one message of every control kind from fuzzed
// fields. The bits of flags set the booleans and whether an error is
// carried.
func fuzzMsgs(a, b, c string, x, y int64, flags uint16) []Msg {
	bit := func(k int) bool { return flags&(1<<k) != 0 }
	var e *Error
	if bit(0) {
		e = &Error{Code: a, Message: b, Line: int(x), Col: int(y), Leader: c, Retryable: bit(1)}
	}
	return []Msg{
		&Hello{Proto: int(x), User: a, Admin: bit(2), Token: b},
		&HelloReply{Server: c, Error: e},
		&Request{ID: uint64(x), Stmt: a, TimeoutMS: y},
	}
}

// FuzzControlCodec holds every control message to the round trip: one
// built from fuzzed strings (any bytes, invalid UTF-8 included),
// integers and flags decodes from its encoding to itself, and only as
// its own kind.
func FuzzControlCodec(f *testing.F) {
	f.Add("Brown", "retrieve (R.A) where R.A = \"a\xffb\"", "127.0.0.1:4100", int64(7), int64(250), uint16(0))
	f.Add("\xed\xa0\x80\xc3", "a\xe2\x80\xa8b\n\x01\x00", "", int64(-1), int64(math.MinInt64), uint16(0xffff))
	f.Add("", "", "\"<&>\"", int64(math.MaxInt64), int64(0), uint16(1|1<<13))
	f.Fuzz(func(t *testing.T, a, b, c string, x, y int64, flags uint16) {
		for i, in := range fuzzMsgs(a, b, c, x, y, flags) {
			payload := Append(nil, in)
			if kindOf(payload) != kinds[i].kind {
				t.Fatalf("%T encodes to kind %#x, want %#x", in, kindOf(payload), kinds[i].kind)
			}
			for _, k := range kinds {
				out := k.new()
				err := Decode(payload, out)
				switch {
				case k.kind != kinds[i].kind:
					if err == nil {
						t.Fatalf("%T's payload decodes as %T", in, out)
					}
				case err != nil:
					t.Fatalf("Decode rejects Append's payload of %+v: %v", in, err)
				case !reflect.DeepEqual(out, in):
					t.Fatalf("round trip:\n got %+v\nwant %+v", out, in)
				}
			}
		}
	})
}

// checkDecode is the codec's acceptance contract on one payload:
// whatever DecodeResponse accepts re-encodes to the same bytes, and
// the result renders.
func checkDecode(t *testing.T, payload []byte) {
	t.Helper()
	var got Response
	if DecodeResponse(payload, &got) != nil {
		return
	}
	again, err := AppendResponse(nil, &got)
	if err != nil || !bytes.Equal(again, payload) {
		t.Fatalf("DecodeResponse accepted %q, which re-encodes to %q (%v)", payload, again, err)
	}
	_ = got.Render()
}

// checkEncode is the round trip: a reply of a shape the frame holds
// decodes to itself, but that an empty list comes back nil, and a
// table of another shape is refused.
func checkEncode(t *testing.T, r *Response) {
	t.Helper()
	frame, err := AppendResponse(nil, r)
	if !holdable(r.Table) {
		if err != errShape {
			t.Fatalf("AppendResponse(%#v) error = %v, want %v", r, err, errShape)
		}
		return
	}
	if err != nil {
		t.Fatalf("AppendResponse(%#v): %v", r, err)
	}
	var got Response
	if err := DecodeResponse(frame, &got); err != nil {
		t.Fatalf("DecodeResponse rejects AppendResponse's %q: %v", frame, err)
	}
	if want := canonical(r); !reflect.DeepEqual(&got, want) {
		t.Fatalf("round trip of %q:\n got %#v\nwant %#v", frame, &got, want)
	}
	checkDecode(t, frame)
	if r.Table != nil {
		// The same reply with its table sent as an encoded section.
		sec, err := AppendTableSection(nil, r.Table)
		if err != nil {
			t.Fatalf("AppendTableSection(%#v): %v", r.Table, err)
		}
		withSection := *r
		withSection.Table = &Table{Section: sec}
		if again, err := AppendResponse(nil, &withSection); err != nil || !bytes.Equal(again, frame) {
			t.Fatalf("the reply with its table section is %q, %v; want %q", again, err, frame)
		}
	}
}

// holdable reports whether a frame can hold t: every row one cell per
// column, and rows only under a column.
func holdable(t *Table) bool {
	if t == nil {
		return true
	}
	for _, row := range t.Rows {
		if len(row) != len(t.Columns) || len(row) == 0 {
			return false
		}
	}
	return true
}

// canonical is r as it decodes: empty lists nil.
func canonical(r *Response) *Response {
	c := *r
	c.Permits = nilIfEmpty(c.Permits)
	if r.Table != nil {
		c.Table = &Table{Columns: nilIfEmpty(r.Table.Columns)}
		if len(r.Table.Rows) > 0 {
			c.Table.Rows = r.Table.Rows
		}
	}
	return &c
}

func nilIfEmpty(ss []string) []string {
	if len(ss) == 0 {
		return nil
	}
	return ss
}

// fuzzResponse builds a Response from fuzzed parts. cells splits into
// rows at newlines and into cells at '|', its first line naming the
// columns; each row is cut or padded to the columns. The bits of flags
// choose the fields set, which slices are nil or empty, and whether a
// ragged row, which the frame refuses, is added.
func fuzzResponse(text, cells, permits string, id uint64, flags uint16, line, col int) *Response {
	bit := func(k int) bool { return flags&(1<<k) != 0 }
	r := &Response{ID: id, Text: text, FullyAuthorized: bit(0), Denied: bit(1)}
	if bit(2) {
		r.Rendered = cells
	}
	if bit(3) {
		t := &Table{}
		lines := strings.Split(cells, "\n")
		switch {
		case bit(4):
			t.Columns = []string{}
		case !bit(5):
			t.Columns = strings.Split(lines[0], "|")
		}
		if !bit(6) && len(t.Columns) > 0 {
			t.Rows = [][]string{}
			for _, l := range lines[1:] {
				row := append(strings.Split(l, "|"), make([]string, len(t.Columns))...)
				t.Rows = append(t.Rows, row[:len(t.Columns):len(t.Columns)])
			}
		}
		if bit(7) {
			t.Rows = append(t.Rows, make([]string, len(t.Columns)+1))
		}
		r.Table = t
	}
	switch {
	case permits != "":
		r.Permits = strings.Split(permits, "\n")
	case bit(8):
		r.Permits = []string{}
	}
	if bit(9) {
		r.Error = &Error{Code: text, Message: cells, Line: line, Col: col, Retryable: bit(10), Leader: permits}
	}
	return r
}

// FuzzResponseCodec holds the Response codec to its two properties:
// (a) arbitrary payload bytes are refused or decode to a reply that
// re-encodes to the same bytes, and (b) a Response built from fuzzed
// strings, flags, id and error fields decodes from its encoding to
// itself.
func FuzzResponseCodec(f *testing.F) {
	const (
		tricky  = "\" \\ < > & / \x00\x01\x1f\x7f\b\f\r\t x"
		seps    = "a\xe2\x80\xa8b\xe2\x80\xa9c \xc3\xa9 \xf0\x9f\x98\x80"
		invalid = "\xff\xfe \xed\xa0\x80 \xc3 \xef\xbf\xbd"
		all     = 0xffff
	)
	seeds := []struct {
		frame                []byte
		text, cells, permits string
		id                   uint64
		flags                uint16
		line, col            int
	}{
		{frameOf(raw("\xff\xff\xff\xff\xff\xff\xff\xff\xff\x01"), byte(0)), "", "", "", math.MaxUint64, 0, 0, 0},
		{frameOf(1, byte(flagTable|flagPermits), 2, "A", "B", 1, "x", tricky, 1, "permit (A)"),
			tricky, "A|B\nx|" + tricky, "permit (A)", 1, 1<<3 | 1<<7, 0, 0},
		{frameOf(1, byte(flagText|flagRendered), seps, invalid), seps, "C\n" + seps + "\n" + invalid, seps, 2, 1<<2 | 1<<3, 0, 0},
		{frameOf(1, byte(flagText), raw("\x05abc")), invalid, invalid, invalid, 3, 1<<2 | 1<<3 | 1<<9, -1, 1},
		{frameOf(1, byte(flagTable), 0, 0), "", "A|B\na\nb|c|d", "", 4, 1<<3 | 1<<4 | 1<<7, 0, 0},
		{frameOf(1, byte(flagTable), 0, 1), "", "", "", 5, 1<<3 | 1<<5 | 1<<6, 0, 0},
		{frameOf(1, byte(flagPermits), 0), "", "", "", 6, 1 << 8, 0, 0},
		{frameOf(1, byte(flagFull|flagDenied)), "", "", "", 7, 1 | 1<<3, 0, 0},
		{frameOf(0, byte(flagError), "EXEC", "m", zz(-3), zz(math.MaxInt64), "127.0.0.1:4100", byte(1)),
			"EXEC", "m", "127.0.0.1:4100", math.MaxUint64, 1<<9 | 1<<10, 3, 17},
		{frameOf(1, byte(flagError), "X", "m", zz(0), zz(math.MinInt64), "", byte(2)), "PARSE", "bad", "", 8, 1 << 9, math.MinInt, math.MaxInt},
		{frameOf(1, byte(flagFront)), "", "", "", 0, all, 0, 0},
		{frameOf(raw("\x80\x00"), byte(0)), "", "", "", 0, 0, 0, 0},
		{frameOf(0, byte(0), byte(0)), "", "", "", 0, 0, 0, 0},
		{frameOf(1, byte(flagPermits), 1<<20), "", "", "", 0, 0, 0, 0},
		// A row count written in more bytes than it needs, and a reply
		// with a table, withheld cells and a ragged row.
		{frameOf(1, byte(flagTable), 1, "A", raw("\x81\x00"), "x"), "", "A|B\n-|y\nz|-", "", 9, 1<<1 | 1<<3 | 1<<7, 0, 0},
		// Front-coded tables, and each frame the decoder refuses as not
		// the layout the encoder chooses: a front-coded table that is
		// not shorter, a plain one that front coding would shorten, a k
		// on the first row, a k that is not the largest, a k past the
		// columns, a front-coded table without rows or columns, and one
		// of more cells than bytes, beside the plain table it should
		// have been. The replies built beside them share prefixes of one
		// cell, of whole rows, and of none.
		{frameOf(1, byte(flagTable|flagFront), 2, "A", "B", 3, 0, "x", "1", 1, "2", 1, "3"), "", "A|B\nx|1\nx|2\nx|3", "", 10, 1 << 3, 0, 0},
		{frameOf(1, byte(flagTable|flagFront), 2, "A", "B", 2, 0, "x", "1", 1, "2"), "", "A|B\nx|1\nx|2", "", 11, 1 << 3, 0, 0},
		{frameOf(1, byte(flagTable), 2, "A", "B", 3, "x", "1", "x", "2", "x", "3"), "", "A|B\nxx|y\nxx|y\nxx|y", "", 12, 1 << 3, 0, 0},
		{frameOf(1, byte(flagTable|flagFront), 2, "A", "B", 3, 1, "1", 1, "2", 1, "3"), "", "A|B|C\n-|-|1\n-|-|2\n-|x|2", "", 13, 1 << 3, 0, 0},
		{frameOf(1, byte(flagTable|flagFront), 2, "A", "B", 3, 0, "xxxxxxxx", "1", 1, "2", 0, "xxxxxxxx", "3"), "", "", "", 14, 0, 0, 0},
		{frameOf(1, byte(flagTable|flagFront), 2, "A", "B", 2, 0, "xxxxxxxx", "1", 3), "", "", "", 15, 0, 0, 0},
		{frameOf(1, byte(flagTable|flagFront), 1, "A", 0), "", "", "", 16, 0, 0, 0},
		{frameOf(1, byte(flagTable|flagFront), 0, 0), "", "", "", 17, 0, 0, 0},
		{frameOf(1, byte(flagTable|flagFront|flagPermits), 4, "A", "B", "C", "D", 3, 0, "", "", "", "", 4, 4, 1, "xxxxxxxx"),
			"", "A|B|C|D\n|||\n|||\n|||", "", 18, 1 << 3, 0, 0},
		{frameOf(1, byte(flagTable), 4, "A", "B", "C", "D", 3, "", "", "", "", "", "", "", "", "", "", "", ""),
			"", "A|B|C|D\n|||\n|||\nx|||", "", 19, 1 << 3, 0, 0},
	}
	for _, s := range seeds {
		f.Add(s.frame, s.text, s.cells, s.permits, s.id, s.flags, s.line, s.col)
	}
	f.Fuzz(func(t *testing.T, frame []byte, text, cells, permits string, id uint64, flags uint16, line, col int) {
		checkDecode(t, frame)
		checkEncode(t, fuzzResponse(text, cells, permits, id, flags, line, col))
	})
}
