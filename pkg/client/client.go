// Package client is the Go client for the authdb network server: it
// dials the wire protocol (internal/wire), authenticates as a
// principal, and executes statements with per-call contexts. The
// server's own end-to-end tests drive it. Every frame is binary: a
// statement reaches the server byte for byte, and a reply carries the
// answer once, structured, with cells that are the exact bytes an
// in-process session's cells print as; Result.Rendered —
// the text the REPL would print — is produced here, by the renderer the
// REPL itself uses, so it is byte-identical to the REPL's.
//
// A Client owns one TCP connection and serializes calls on it (the
// protocol is strictly request/response). When the connection breaks —
// a server restart, an idle-timeout close, a network blip — the next
// Exec transparently reconnects, and read-only statements are retried
// once. Mutating statements are never auto-retried after the request
// may have reached the server: a duplicate apply would land in the
// statement WAL twice, so a mutation whose response was lost fails with
// ErrUnknownOutcome and the caller decides (re-check state, or resubmit
// knowing duplicate inserts are ignored by the engine).
package client

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"time"

	"authdb/internal/engine"
	"authdb/internal/parser"
	"authdb/internal/wire"
)

// ErrClosed reports an Exec on a Close()d client.
var ErrClosed = errors.New("client: closed")

// ErrUnknownOutcome reports that a mutating statement's request may
// have reached the server but the connection died before the response:
// the statement may or may not have been applied (and journaled). The
// client does not retry — the caller must re-check state or knowingly
// resubmit. Test with errors.Is.
var ErrUnknownOutcome = errors.New("client: outcome unknown (request sent, connection lost before the response)")

// ServerError is a structured statement failure from the server, the
// error a reply frame carries. Branch on Code (see internal/wire for the
// inventory: PARSE, CANCELED, BUDGET_EXCEEDED, NOT_AUTHORIZED,
// SHUTTING_DOWN, EXEC, …), never on message text; Retryable reports
// whether the same request could succeed later. Its Error method
// renders "CODE: message".
type ServerError = wire.Error

// Result is the outcome of one statement.
type Result struct {
	// Text carries acknowledgements and show/meta-command output.
	Text string
	// Rendered is the complete human-readable result, byte-identical to
	// what the REPL prints for the same statement; the client renders
	// it from the structured reply (wire.Response.Render).
	Rendered string
	// Columns and Rows carry the delivered relation of a retrieve
	// (rendered cell values, withheld cells as "-"); nil otherwise.
	// Every row has len(Columns) cells. The reply is decoded in one
	// pass (wire.DecodeResponse): all rows share one backing array, and
	// every cell is a substring of the one string the reply frame was
	// copied into, so retaining a cell retains the frame. Each row has
	// cap == len, so appending to a row copies it.
	Columns []string
	Rows    [][]string
	// Permits are the inferred permit statements of a partial answer.
	Permits []string
	// FullyAuthorized and Denied classify a retrieve's outcome.
	FullyAuthorized bool
	Denied          bool
}

// Option configures a Client.
type Option func(*Client)

// WithUser authenticates as the given (non-administrator) principal.
func WithUser(name string) Option {
	return func(c *Client) { c.user, c.admin = name, false }
}

// WithAdmin authenticates as an administrator named user, presenting
// token (required when the server is configured with one).
func WithAdmin(user, token string) Option {
	return func(c *Client) { c.user, c.admin, c.token = user, true, token }
}

// WithDialTimeout bounds connection establishment and the handshake
// (default 10s).
func WithDialTimeout(d time.Duration) Option {
	return func(c *Client) { c.dialTimeout = d }
}

// WithBackoff bounds the jittered exponential backoff between
// reconnect attempts (defaults 50ms and 2s). The backoff doubles per
// consecutive failure, is capped at max, and resets to min after any
// successful handshake.
func WithBackoff(min, max time.Duration) Option {
	return func(c *Client) { c.redial.min, c.redial.max = min, max }
}

// WithDialer overrides how connections are established (tests inject
// failing or partitioned connections). addr is the address Dial was
// given.
func WithDialer(dial func(ctx context.Context, addr string) (net.Conn, error)) Option {
	return func(c *Client) { c.dialFn = dial }
}

// Client is a connection to an authdb server on behalf of one
// principal. Methods are safe for concurrent use; calls are serialized
// on the single underlying connection — open one client per goroutine
// for parallelism, exactly like sessions.
type Client struct {
	user        string
	admin       bool
	token       string
	dialTimeout time.Duration
	dialFn      func(ctx context.Context, addr string) (net.Conn, error)
	addr        string

	mu     sync.Mutex
	nc     net.Conn
	br     *bufio.Reader
	bw     *bufio.Writer
	nextID uint64
	closed bool
	redial redial // the wait between reconnect attempts
}

// Dial connects to addr and authenticates. The default principal is the
// non-administrator "guest"; set one with WithUser or WithAdmin.
func Dial(addr string, opts ...Option) (*Client, error) {
	c := &Client{
		user:        "guest",
		dialTimeout: 10 * time.Second,
		addr:        addr,
		redial:      redial{min: 50 * time.Millisecond, max: 2 * time.Second},
	}
	for _, o := range opts {
		o(c)
	}
	if c.dialFn == nil {
		c.dialFn = func(ctx context.Context, addr string) (net.Conn, error) {
			d := net.Dialer{Timeout: c.dialTimeout}
			return d.DialContext(ctx, "tcp", addr)
		}
	}
	if err := c.connect(context.Background()); err != nil {
		return nil, err
	}
	return c, nil
}

// connect dials and runs the handshake; callers hold c.mu (or own c
// exclusively, as in Dial).
func (c *Client) connect(ctx context.Context) error {
	nc, err := c.dialFn(ctx, c.addr)
	if err != nil {
		return fmt.Errorf("client: dial %s: %w", c.addr, err)
	}
	nc.SetDeadline(time.Now().Add(c.dialTimeout))
	br, bw := bufio.NewReader(nc), bufio.NewWriterSize(nc, 4096)
	if err := wire.WriteMsg(bw, &wire.Hello{
		Proto: wire.ProtoVersion, User: c.user, Admin: c.admin, Token: c.token,
	}); err == nil {
		err = bw.Flush()
	}
	if err != nil {
		nc.Close()
		return fmt.Errorf("client: handshake: %w", err)
	}
	var reply wire.HelloReply
	if err := wire.ReadMsg(br, &reply); err != nil {
		nc.Close()
		return fmt.Errorf("client: handshake: %w", err)
	}
	if reply.Error != nil {
		nc.Close()
		return reply.Error
	}
	nc.SetDeadline(time.Time{})
	c.nc, c.br, c.bw = nc, br, bw
	c.redial.reset() // reset the reconnect backoff after any successful handshake
	return nil
}

// Exec executes one statement (or the `\stats` meta-command) under ctx:
// the context's deadline rides the request so the server cancels
// server-side too, and cancellation unblocks the network wait. On a
// broken connection Exec reconnects; read-only statements are retried
// once, while mutating statements whose request may already have
// reached the server fail with ErrUnknownOutcome instead of risking a
// duplicate apply. Server-answered failures return a *ServerError and
// are never retried.
func (c *Client) Exec(ctx context.Context, stmt string) (*Result, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, ErrClosed
	}
	// Three attempts: a connection found broken, a redial that fails,
	// and one more.
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		if ctx.Err() != nil {
			if lastErr != nil {
				return nil, lastErr
			}
			return nil, ctx.Err()
		}
		if c.nc == nil {
			if err := c.connect(ctx); err != nil {
				var se *ServerError
				if errors.As(err, &se) {
					return nil, err // rejected handshake: retry won't help
				}
				lastErr = err
				select {
				case <-ctx.Done():
					return nil, lastErr
				case <-time.After(c.redial.next()):
				}
				continue
			}
		}
		res, sent, err := c.roundTrip(ctx, stmt)
		if err == nil {
			return res, nil
		}
		var se *ServerError
		if errors.As(err, &se) {
			return nil, err // the server answered; the connection is fine
		}
		// Transport failure: drop the connection.
		c.nc.Close()
		c.nc = nil
		if sent && mutatingStmt(stmt) {
			// The request was (possibly partially) on the wire when the
			// connection died: the server may have executed and journaled
			// it. Retrying could apply it twice.
			return nil, fmt.Errorf("%w: %v", ErrUnknownOutcome, err)
		}
		lastErr = err
	}
	return nil, lastErr
}

// mutatingStmt reports whether stmt may change the database: whether
// any statement it parses to mutates (engine.Mutating). Input that does
// not parse counts as mutating, the conservative direction for the retry
// decision (the server answers it with a parse error, so the only cost
// is a skipped retry). A meta-command (\stats) never mutates.
func mutatingStmt(stmt string) bool {
	if strings.HasPrefix(strings.TrimSpace(stmt), `\`) {
		return false
	}
	stmts, err := parser.ParseProgramPos(stmt)
	if err != nil {
		return true
	}
	for _, s := range stmts {
		if engine.Mutating(s.Stmt) {
			return true
		}
	}
	return false
}

// roundTrip writes one request and reads its response; callers hold
// c.mu and guarantee c.nc != nil. sent reports whether request bytes
// may have reached the server by the time an error occurred — false
// only for failures before anything was written.
func (c *Client) roundTrip(ctx context.Context, stmt string) (res *Result, sent bool, err error) {
	c.nextID++
	nc := c.nc
	req := wire.Request{ID: c.nextID, Stmt: stmt}
	if dl, ok := ctx.Deadline(); ok {
		nc.SetDeadline(dl)
		if ms := time.Until(dl).Milliseconds(); ms > 0 {
			req.TimeoutMS = ms
		} else {
			req.TimeoutMS = 1
		}
	} else {
		nc.SetDeadline(time.Time{})
	}
	// A context canceled mid-wait unblocks the read by expiring the
	// connection deadline. SetDeadline on a conn the caller has since
	// closed is a harmless error, so the watcher needs no further
	// synchronization. A context that can never be canceled needs no
	// watcher.
	if done := ctx.Done(); done != nil {
		stop := make(chan struct{})
		defer close(stop)
		go func() {
			select {
			case <-done:
				nc.SetDeadline(time.Unix(1, 0))
			case <-stop:
			}
		}()
	}

	// From the first write onward the request may be on the wire (large
	// frames flush through the buffered writer mid-WriteMsg), so every
	// failure past this point reports sent=true.
	if err := wire.WriteMsg(c.bw, &req); err != nil {
		return nil, true, err
	}
	if err := c.bw.Flush(); err != nil {
		return nil, true, err
	}
	// ReadMsg is ReadFrame then wire.DecodeResponse; a frame outside the
	// reply format fails here and drops the connection like garbage.
	var resp wire.Response
	if err := wire.ReadMsg(c.br, &resp); err != nil {
		return nil, true, err
	}
	if resp.ID != req.ID {
		return nil, true, fmt.Errorf("client: response id %d for request %d", resp.ID, req.ID)
	}
	if resp.Error != nil {
		return nil, true, resp.Error
	}
	res = &Result{
		Text:            resp.Text,
		Rendered:        resp.Render(),
		Permits:         resp.Permits,
		FullyAuthorized: resp.FullyAuthorized,
		Denied:          resp.Denied,
	}
	if resp.Table != nil {
		res.Columns = resp.Table.Columns
		res.Rows = resp.Table.Rows
	}
	return res, true, nil
}

// Close closes the connection; further Execs fail with ErrClosed.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	if c.nc == nil {
		return nil
	}
	err := c.nc.Close()
	c.nc = nil
	return err
}
