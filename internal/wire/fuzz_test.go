package wire

import (
	"bufio"
	"bytes"
	"encoding/json"
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
			var resp Response
			_ = json.Unmarshal(payload, &resp)
			_ = resp.Render()
			var hr ReplHelloReply
			_ = json.Unmarshal(payload, &hr)
		}
	}
}
