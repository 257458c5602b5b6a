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
		frame(ReplHelloReply{OK: true, Mode: ReplModeSnapshot,
			Snapshot: map[string][]byte{"schema.authdb": []byte("relation R (A);\n")}, SnapshotLSN: 41, Gen: 3}),
		frame(ReplHelloReply{OK: true, Mode: ReplModeSnapshot, Epoch: 4,
			EpochHist: []EpochEntry{{Epoch: 1, StartLSN: 0}, {Epoch: 4, StartLSN: 41}},
			Diverged:  true, Fork: 41, SnapshotLSN: 50}),
		frame(ReplHelloReply{OK: false, Error: &Error{Code: CodeProtocol, Message: "bad token"}}),
		frame(ReplBatch{Kind: KindReplBatch, From: 42, Epoch: 2, Stmts: []string{"insert into R values (x)", "permit V to U"}}),
		frame(ReplAck{Kind: KindReplAck, Applied: 43}),
		frame(ReplFence{Kind: KindReplFence, Epoch: 5, Leader: "127.0.0.1:4100"}),
		frame(Response{ID: 3, Error: &Error{Code: CodeStalePrimary,
			Message: "fenced at epoch 5", Leader: "127.0.0.1:4100"}}),
		// A reply whose rows disagree with its columns still renders.
		frame(Response{ID: 4, Table: &Table{Columns: []string{"A"}, Rows: [][]string{{"x", "y"}, {}}}}),
		// Two frames back to back.
		append(frame(ReplBatch{Kind: KindReplBatch, From: 1, Stmts: []string{"a"}}),
			frame(ReplAck{Kind: KindReplAck, Applied: 1})...),
		// Malformed: truncated header, truncated payload, not-JSON,
		// oversize length word, unknown kind.
		{0x05, 0x00},
		{0x05, 0x00, 0x00, 0x00, '{', '"'},
		{0x03, 0x00, 0x00, 0x00, 'x', 'y', 'z'},
		{0xff, 0xff, 0xff, 0xff},
		frame(map[string]any{"kind": "mystery", "from": -1}),
	}
}

// FuzzDecode feeds arbitrary bytes through the frame reader and the
// kind-probed message decoding exactly the way a server connection
// does, and renders every reply the way a client does, checking nothing
// panics and limits hold.
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
// whatever DecodeResponse accepts, json.Unmarshal accepts too, with a
// DeepEqual result, and the result renders.
func checkDecode(t *testing.T, payload []byte) {
	t.Helper()
	var got, want Response
	if DecodeResponse(payload, &got) != nil {
		return
	}
	if err := json.Unmarshal(payload, &want); err != nil {
		t.Fatalf("DecodeResponse accepted %q, which encoding/json rejects: %v", payload, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("DecodeResponse(%q) = %#v, encoding/json decodes %#v", payload, got, want)
	}
	_ = got.Render()
}

// checkEncode holds AppendResponse to json.Marshal byte for byte and
// DecodeResponse of the frame to json.Unmarshal of it.
func checkEncode(t *testing.T, r *Response) {
	t.Helper()
	want, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	got := AppendResponse(nil, r)
	if !bytes.Equal(got, want) {
		t.Fatalf("AppendResponse(%#v)\n= %q\nencoding/json writes\n  %q", r, got, want)
	}
	if err := DecodeResponse(got, new(Response)); err != nil {
		t.Fatalf("DecodeResponse rejects encoding/json's %q: %v", got, err)
	}
	checkDecode(t, got)
}

// fuzzResponse builds a Response from fuzzed parts. cells splits into
// rows at newlines and into cells at '|', its first line naming the
// columns; the bits of flags choose the fields set and which slices
// are nil, empty or null.
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
		if !bit(6) {
			t.Rows = [][]string{}
			for _, l := range lines[1:] {
				t.Rows = append(t.Rows, strings.Split(l, "|"))
			}
		}
		if bit(7) {
			t.Rows = append(t.Rows, nil, []string{})
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

// FuzzResponseCodec holds the Response codec to encoding/json from two
// sides: (a) arbitrary payload bytes must decode as json.Unmarshal
// decodes them or be rejected, and (b) a Response built from fuzzed
// strings, flags, id and error fields must encode to json.Marshal's
// bytes and decode back as json.Unmarshal does.
func FuzzResponseCodec(f *testing.F) {
	const (
		tricky  = "\" \\ < > & / \x00\x01\x1f\x7f\b\f\r\t x"
		seps    = "a\xe2\x80\xa8b\xe2\x80\xa9c \xc3\xa9 \xf0\x9f\x98\x80"
		invalid = "\xff\xfe \xed\xa0\x80 \xc3 \xef\xbf\xbd"
		all     = 0xffff
	)
	seeds := []struct {
		frame                string
		text, cells, permits string
		id                   uint64
		flags                uint16
		line, col            int
	}{
		{`{"id":18446744073709551615}`, "", "", "", math.MaxUint64, 0, 0, 0},
		{`{"id":18446744073709551616}`, tricky, "A|B\nx|" + tricky, "permit (A)", 1, 1<<3 | 1<<7, 0, 0},
		{`{"id":1,"text":"\ud83d\ude00 \ud800 \udc00\ud800 \ud800\u0041 \uDBFF\uDFFF \/"}`,
			seps, "C\n" + seps + "\n" + invalid, seps, 2, 1<<2 | 1<<3, 0, 0},
		{`{"id":1,"text":"\ud800\u"}`, invalid, invalid, invalid, 3, 1<<2 | 1<<3 | 1<<9, -1, 1},
		{`{"id":1,"table":{"columns":[],"rows":[null,[],["a","b"],["c"]]}}`, "", "A|B\na\nb|c|d", "", 4, 1<<3 | 1<<4 | 1<<7, 0, 0},
		{`{"id":1,"table":{"columns":null,"rows":null}}`, "", "", "", 5, 1<<3 | 1<<5 | 1<<6, 0, 0},
		{`{"id":1,"permits":[]}`, "", "", "", 6, 1 << 8, 0, 0},
		{`{"id":1,"permits":null,"fully_authorized":false,"denied":true}`, "", "", "", 7, 1 | 1<<3, 0, 0},
		{`{"id":0,"error":{"code":"READ_ONLY","message":"m","line":-3,"col":9223372036854775807,"retryable":true,"leader":"127.0.0.1:4100"}}`,
			"READ_ONLY", "replica", "127.0.0.1:4100", math.MaxUint64, 1<<9 | 1<<10, 3, 17},
		{`{"id":1,"error":{"code":"X","message":"m","col":-9223372036854775808}}`, "PARSE", "bad", "", 8, 1 << 9, math.MinInt, math.MaxInt},
		{`{"id":1,"error":{"code":"X","message":"m","line":-0}}`, "", "", "", 0, all, 0, 0},
		{`{"id":01}`, "", "", "", 0, 0, 0, 0},
		{`{"id":1} `, "", "", "", 0, 0, 0, 0},
		{"{\"id\":1,\"text\":\"\xff\xed\xa0\x80\"}", "", "", "", 0, 0, 0, 0},
		{"{\"id\":1,\"text\":\"\x01\"}", "", "", "", 0, 0, 0, 0},
	}
	for _, s := range seeds {
		f.Add([]byte(s.frame), s.text, s.cells, s.permits, s.id, s.flags, s.line, s.col)
	}
	f.Fuzz(func(t *testing.T, frame []byte, text, cells, permits string, id uint64, flags uint16, line, col int) {
		checkDecode(t, frame)
		checkEncode(t, fuzzResponse(text, cells, permits, id, flags, line, col))
	})
}
