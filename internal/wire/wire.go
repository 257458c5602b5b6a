// Package wire defines the network protocol shared by the server
// (internal/server) and the Go client (pkg/client): length-prefixed
// frames carrying an authentication handshake followed by
// request/response pairs, plus the mapping from engine errors to stable
// machine-readable codes.
//
// Framing is deliberately dumb, mirroring the WAL's record format:
//
//	uint32le payload length | payload
//
// A Response payload is binary (AppendResponse, DecodeResponse; the
// layout is in codec.go): varint-prefixed strings, a table as its
// columns, a row count and every row's cell text. Hello, Request and
// the replication messages are JSON (encoding/json). WriteMsg and
// ReadMsg pick the codec by the message's type.
//
// A frame larger than the agreed maximum is a protocol error and closes
// the connection. Within one connection, requests execute strictly in
// order and every request produces exactly one response carrying the
// request's ID. A response carries a result once, in structured form;
// Response.Render, run by whoever prints it, is the only renderer.
package wire

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"authdb/internal/relation"
)

// ProtoVersion identifies the protocol; the handshake rejects mismatches
// so both sides fail loudly instead of mis-parsing frames. Replies are
// binary frames carrying the structured result only; the receiver
// renders it (Response.Render). Version 5 sends a replication snapshot
// as statements in ReplBatch frames; version 4 sent it as files inside
// the handshake reply.
const ProtoVersion = 5

// MaxFrame bounds one frame's payload (requests and responses): larger
// length words are treated as a protocol error rather than allocated.
const MaxFrame = 16 << 20

// WriteFrame writes one length-prefixed payload.
func WriteFrame(w io.Writer, payload []byte) error {
	if len(payload) > MaxFrame {
		return &FrameSizeError{Size: len(payload)}
	}
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// ReadFrame reads one length-prefixed payload, failing on frames larger
// than MaxFrame.
func ReadFrame(r *bufio.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n > MaxFrame {
		return nil, &FrameSizeError{Size: int(n)}
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, err
	}
	return payload, nil
}

// FrameSizeError reports a frame whose payload exceeds MaxFrame. A write
// fails with it before writing any byte, so the stream stays framed.
type FrameSizeError struct{ Size int }

func (e *FrameSizeError) Error() string {
	return fmt.Sprintf("wire: frame of %d bytes exceeds limit %d", e.Size, MaxFrame)
}

// WriteMsg encodes v and writes it as one frame: a Response or
// *Response through AppendResponseFrame in one Write, anything else
// through encoding/json.
func WriteMsg(w io.Writer, v any) error {
	var frame []byte
	var err error
	switch m := v.(type) {
	case *Response:
		frame, err = AppendResponseFrame(nil, m)
	case Response:
		frame, err = AppendResponseFrame(nil, &m)
	default:
		payload, err := json.Marshal(v)
		if err != nil {
			return err
		}
		return WriteFrame(w, payload)
	}
	if err != nil {
		return err
	}
	_, err = w.Write(frame)
	return err
}

// ReadMsg reads one frame and decodes it into v: a *Response with
// DecodeResponse, anything else with encoding/json.
func ReadMsg(r *bufio.Reader, v any) error {
	payload, err := ReadFrame(r)
	if err != nil {
		return err
	}
	if m, ok := v.(*Response); ok {
		return DecodeResponse(payload, m)
	}
	return json.Unmarshal(payload, v)
}

// Hello opens a connection: the client announces the protocol version
// and authenticates as a principal. Administrator sessions additionally
// present the server's admin token when one is configured.
type Hello struct {
	Proto int    `json:"proto"`
	User  string `json:"user"`
	Admin bool   `json:"admin,omitempty"`
	Token string `json:"token,omitempty"`
}

// HelloReply acknowledges (or rejects) the handshake.
type HelloReply struct {
	OK     bool   `json:"ok"`
	Server string `json:"server,omitempty"`
	Error  *Error `json:"error,omitempty"`
}

// Request is one statement (or shared meta-command, e.g. `\stats`) to
// execute under the connection's principal.
type Request struct {
	// ID is echoed in the response; the client uses it to pair them.
	ID uint64 `json:"id"`
	// Stmt is the statement text.
	Stmt string `json:"stmt"`
	// TimeoutMS, when positive, bounds this request's execution; the
	// server composes it with (never extends) its configured limits.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// Table is a delivered relation: display column names and cell values
// as text, withheld cells as "-" — the same cell text the REPL prints.
// Every row holds one cell per column.
type Table struct {
	Columns []string
	Rows    [][]string
	// Tuples, when set, is written instead of Rows: the sender hands
	// the delivered relation's tuples to the frame writer, which writes
	// each value's text in place. It is never decoded, and Render reads
	// only Rows.
	Tuples []relation.Tuple
}

// Response answers one request: the structured result — text, or a
// table with its permits and outcome flags — or a coded error. Render
// turns a result into what the REPL prints.
type Response struct {
	ID uint64
	// Text carries acknowledgements and show/meta-command output.
	Text string
	// Rendered is sent when set; only bench/trace.go's reply mirror
	// sets it.
	Rendered string
	// Table is the delivered relation of a retrieve.
	Table *Table
	// Permits are the inferred permit statements accompanying a
	// partially delivered answer.
	Permits []string
	// FullyAuthorized and Denied classify a retrieve's outcome.
	FullyAuthorized bool
	Denied          bool
	// Error is set instead of the result fields when execution failed.
	Error *Error
}

// Render renders a result exactly as the REPL prints it: the text, then
// the table followed by its authorization footer (the outcome line or
// the inferred permit statements). It is the only renderer of a
// statement's result: authdb.Result.Render and pkg/client both call it,
// so every front end shows identical output.
func (r Response) Render() string {
	var b strings.Builder
	if r.Text != "" {
		b.WriteString(r.Text)
		b.WriteByte('\n')
	}
	if r.Table != nil {
		relation.RenderTable(&b, "", r.Table.Columns, r.Table.Rows, false)
		switch {
		case r.FullyAuthorized:
			b.WriteString("(entire answer delivered)\n")
		case r.Denied:
			b.WriteString("(no portion of the answer is permitted)\n")
		default:
			for _, p := range r.Permits {
				b.WriteString(p)
				b.WriteByte('\n')
			}
		}
	}
	return b.String()
}

// Error is a structured statement failure. Code is stable and
// machine-readable; Retryable tells clients whether the same request
// could succeed later (canceled/timed out work, a draining server)
// as opposed to deterministic failures (parse errors, budget, denial).
type Error struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	// Line and Col locate parse errors (1-based; zero otherwise).
	Line int `json:"line,omitempty"`
	Col  int `json:"col,omitempty"`
	// Retryable reports the failure is transient.
	Retryable bool `json:"retryable,omitempty"`
	// Leader, set on READ_ONLY and STALE_PRIMARY failures when the node
	// knows (or believes it knows) the current leader's wire address,
	// lets clients redirect writes without re-polling every node.
	Leader string `json:"leader,omitempty"`
}

// Error implements the error interface.
func (e *Error) Error() string {
	return fmt.Sprintf("%s: %s", e.Code, e.Message)
}
