package wire

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"
)

// seedFrames builds the seed corpus: one well-formed frame per message
// type (replication kinds included), plus malformed inputs a hostile or
// broken peer could send.
func seedFrames(tb testing.TB) [][]byte {
	tb.Helper()
	frame := func(v any) []byte {
		var buf bytes.Buffer
		if err := WriteMsg(&buf, v); err != nil {
			tb.Fatalf("seed frame: %v", err)
		}
		return buf.Bytes()
	}
	return [][]byte{
		frame(Hello{Proto: ProtoVersion, User: "Brown", Admin: true, Token: "t"}),
		frame(HelloReply{OK: true, Server: "authdb"}),
		frame(Request{ID: 9, Stmt: "retrieve (EMPLOYEE.NAME)", TimeoutMS: 100}),
		frame(Response{ID: 9, Table: &Table{Columns: []string{"NAME"}, Rows: [][]string{{"Brown"}, {"-"}}},
			Permits: []string{"permit (NAME)"}, Error: &Error{Code: CodeExec, Message: "nope"}}),
		frame(ReplHello{Kind: KindReplHello, Proto: ProtoVersion, Token: "t", From: 41, Name: "r1",
			Epoch: 3, Leader: "127.0.0.1:4100"}),
		frame(ReplHelloReply{OK: true, Mode: ReplModeSnapshot, SnapshotStmts: 2, SnapshotLSN: 41, Gen: 3}),
		frame(ReplHelloReply{OK: true, Mode: ReplModeSnapshot, Epoch: 4,
			EpochHist: []EpochEntry{{Epoch: 1, StartLSN: 0}, {Epoch: 4, StartLSN: 41}},
			Diverged:  true, Fork: 41, SnapshotStmts: 7, SnapshotLSN: 50}),
		frame(ReplHelloReply{OK: false, Error: &Error{Code: CodeProtocol, Message: "bad token"}}),
		frame(ReplBatch{Kind: KindReplBatch, From: 42, Epoch: 2, Stmts: []string{"insert into R values (x)", "permit V to U"}}),
		// A snapshot batch: From zero, statements without LSNs.
		frame(ReplBatch{Kind: KindReplBatch, Epoch: 4, Stmts: []string{"relation R (A)", `insert into R values ("5")`}}),
		frame(ReplAck{Kind: KindReplAck, Applied: 43}),
		frame(ReplFence{Kind: KindReplFence, Epoch: 5, Leader: "127.0.0.1:4100"}),
		frame(Response{ID: 3, Error: &Error{Code: CodeStalePrimary,
			Message: "fenced at epoch 5", Leader: "127.0.0.1:4100"}}),
		// A table of one column and no rows, and one with a withheld cell.
		frame(Response{ID: 4, Table: &Table{Columns: []string{"A"}}, FullyAuthorized: true}),
		frame(Response{ID: 5, Table: &Table{Columns: []string{"A", "B"}, Rows: [][]string{{"x", "-"}}}, Denied: true}),
		// Two frames back to back.
		append(frame(ReplBatch{Kind: KindReplBatch, From: 1, Stmts: []string{"a"}}),
			frame(ReplAck{Kind: KindReplAck, Applied: 1})...),
		// Malformed: truncated header, truncated payload, neither JSON
		// nor a reply, oversize length word, unknown kind.
		{0x05, 0x00},
		{0x05, 0x00, 0x00, 0x00, '{', '"'},
		{0x03, 0x00, 0x00, 0x00, 'x', 'y', 'z'},
		{0xff, 0xff, 0xff, 0xff},
		frame(map[string]any{"kind": "mystery", "from": -1}),
	}
}

// FuzzDecode feeds arbitrary bytes through the frame reader and the
// kind-probed message decoding exactly the way a server connection
// does, and decodes every frame as a reply the way a client does,
// checking nothing panics, limits hold, and an accepted reply
// re-encodes to its own bytes.
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
	in := ReplBatch{Kind: KindReplBatch, From: 7, Stmts: []string{"insert into R values (x, y)"}}
	if err := WriteMsg(&buf, in); err != nil {
		t.Fatal(err)
	}
	payload, err := ReadFrame(bufio.NewReader(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if got := MsgKind(payload); got != KindReplBatch {
		t.Fatalf("MsgKind = %q, want %q", got, KindReplBatch)
	}
	var out ReplBatch
	if err := json.Unmarshal(payload, &out); err != nil {
		t.Fatal(err)
	}
	if out.From != in.From || len(out.Stmts) != 1 || out.Stmts[0] != in.Stmts[0] {
		t.Fatalf("round trip = %+v", out)
	}
}

// decodeStream is the shared fuzz body: read frames until the input
// runs out, probing each frame's kind and decoding it as its message
// type (and, kind-less, as each pre-replication type).
func decodeStream(t *testing.T, data []byte) {
	t.Helper()
	r := bufio.NewReader(bytes.NewReader(data))
	for i := 0; i < 16; i++ {
		payload, err := ReadFrame(r)
		if err != nil {
			return
		}
		switch MsgKind(payload) {
		case KindReplHello:
			var m ReplHello
			_ = json.Unmarshal(payload, &m)
		case KindReplBatch:
			var m ReplBatch
			_ = json.Unmarshal(payload, &m)
		case KindReplAck:
			var m ReplAck
			_ = json.Unmarshal(payload, &m)
		case KindReplFence:
			var m ReplFence
			_ = json.Unmarshal(payload, &m)
		default:
			var h Hello
			_ = json.Unmarshal(payload, &h)
			var req Request
			_ = json.Unmarshal(payload, &req)
			checkDecode(t, payload)
			var hr ReplHelloReply
			_ = json.Unmarshal(payload, &hr)
		}
	}
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
		{frameOf(0, byte(flagError), "READ_ONLY", "m", zz(-3), zz(math.MaxInt64), "127.0.0.1:4100", byte(1)),
			"READ_ONLY", "replica", "127.0.0.1:4100", math.MaxUint64, 1<<9 | 1<<10, 3, 17},
		{frameOf(1, byte(flagError), "X", "m", zz(0), zz(math.MinInt64), "", byte(2)), "PARSE", "bad", "", 8, 1 << 9, math.MinInt, math.MaxInt},
		{frameOf(1, byte(0x80)), "", "", "", 0, all, 0, 0},
		{frameOf(raw("\x80\x00"), byte(0)), "", "", "", 0, 0, 0, 0},
		{frameOf(0, byte(0), byte(0)), "", "", "", 0, 0, 0, 0},
		{frameOf(1, byte(flagPermits), 1<<20), "", "", "", 0, 0, 0, 0},
		// A row count written in more bytes than it needs, and a reply
		// with a table, withheld cells and a ragged row.
		{frameOf(1, byte(flagTable), 1, "A", raw("\x81\x00"), "x"), "", "A|B\n-|y\nz|-", "", 9, 1<<1 | 1<<3 | 1<<7, 0, 0},
	}
	for _, s := range seeds {
		f.Add(s.frame, s.text, s.cells, s.permits, s.id, s.flags, s.line, s.col)
	}
	f.Fuzz(func(t *testing.T, frame []byte, text, cells, permits string, id uint64, flags uint16, line, col int) {
		checkDecode(t, frame)
		checkEncode(t, fuzzResponse(text, cells, permits, id, flags, line, col))
	})
}
