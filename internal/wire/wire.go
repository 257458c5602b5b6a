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
// Every payload is binary, written with one set of primitives
// (codec.go): varints and varint-prefixed strings, so a string travels
// byte for byte. A Response (AppendResponse, DecodeResponse) is known
// by its place after a Request. Every other message is a control
// message (Msg): its payload opens with a tag byte naming it (MsgKind),
// then its fields in the order its walk method visits them, one method
// serving as both its encoder (Append) and its decoder (Decode).
// WriteMsg and ReadMsg pick the codec by the message's type.
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
	"fmt"
	"io"
	"strings"

	"authdb/internal/relation"
)

// ProtoVersion identifies the protocol; the handshake rejects mismatches
// so both sides fail loudly instead of mis-parsing frames. DESIGN.md §11
// says what each earlier version did differently.
const ProtoVersion = 9

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
	return ReadFrameInto(r, nil)
}

// ReadFrameInto reads one length-prefixed payload into buf, reusing its
// capacity, and returns it: a reader that decodes each frame before it
// reads the next keeps one buffer for all of them (Decode copies what it
// keeps). It fails as ReadFrame does.
func ReadFrameInto(r *bufio.Reader, buf []byte) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n > MaxFrame {
		return nil, &FrameSizeError{Size: int(n)}
	}
	if uint32(cap(buf)) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// FrameSizeError reports a frame whose payload exceeds MaxFrame. A write
// fails with it before writing any byte, so the stream stays framed.
type FrameSizeError struct{ Size int }

func (e *FrameSizeError) Error() string {
	return fmt.Sprintf("wire: frame of %d bytes exceeds limit %d", e.Size, MaxFrame)
}

// WriteMsg encodes v, a *Response or a control message, and writes it
// as one frame: a reply through AppendResponseFrame in one Write.
func WriteMsg(w io.Writer, v any) error {
	switch m := v.(type) {
	case *Response:
		frame, err := AppendResponseFrame(nil, m)
		if err == nil {
			_, err = w.Write(frame)
		}
		return err
	case Msg:
		return WriteFrame(w, Append(nil, m))
	}
	return fmt.Errorf("wire: %T is not a message", v)
}

// ReadMsg reads one frame and decodes it into v: a *Response with
// DecodeResponse, a control message with Decode.
func ReadMsg(r *bufio.Reader, v any) error {
	payload, err := ReadFrame(r)
	if err != nil {
		return err
	}
	switch m := v.(type) {
	case *Response:
		return DecodeResponse(payload, m)
	case Msg:
		return Decode(payload, m)
	}
	return fmt.Errorf("wire: %T is not a message", v)
}

// Hello opens a connection: the client announces the protocol version
// and authenticates as a principal. Administrator sessions additionally
// present the server's admin token when one is configured.
type Hello struct {
	Proto int
	User  string
	Admin bool
	Token string
}

func (m *Hello) walk(w walker) walker {
	return w.fields(KindHello, &m.Proto, &m.User, &m.Admin, &m.Token)
}

// HelloReply accepts the handshake, or refuses it with Error.
type HelloReply struct {
	Server string
	Error  *Error
}

func (m *HelloReply) walk(w walker) walker { return w.fields(KindHelloReply, &m.Server, &m.Error) }

// Request is one statement (or shared meta-command, e.g. `\stats`) to
// execute under the connection's principal.
type Request struct {
	// ID is echoed in the response; the client uses it to pair them.
	ID uint64
	// Stmt is the statement text, carried byte for byte.
	Stmt string
	// TimeoutMS, when positive, bounds this request's execution; the
	// server composes it with (never extends) its configured limits.
	TimeoutMS int64
}

func (m *Request) walk(w walker) walker { return w.fields(KindRequest, &m.ID, &m.Stmt, &m.TimeoutMS) }

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
	// Section, when set, is written instead of all the above: the bytes
	// AppendTableSection wrote for the same table, copied into the frame
	// as they are. It is never decoded.
	Section []byte
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
	Code    string
	Message string
	// Line and Col locate parse errors (1-based; zero otherwise).
	Line int
	Col  int
	// Retryable reports the failure is transient.
	Retryable bool
	// Leader, set on READ_ONLY and STALE_PRIMARY failures when the node
	// knows (or believes it knows) the current leader's wire address,
	// lets clients redirect writes without re-polling every node.
	Leader string
}

// Error implements the error interface.
func (e *Error) Error() string {
	return fmt.Sprintf("%s: %s", e.Code, e.Message)
}

// body visits e's fields: the error of a Response, and of a refused
// handshake (fields.err).
func (e *Error) body(w walker) walker {
	return w.fields(&e.Code, &e.Message, &e.Line, &e.Col, &e.Leader, &e.Retryable)
}
