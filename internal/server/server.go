// Package server is the network front door of the engine: a concurrent
// TCP server speaking the length-prefixed protocol of internal/wire.
// Each connection authenticates as a principal (Motro's model is
// inherently multi-principal — the connection's user decides the masks)
// and gets its own engine session with the server's per-connection
// resource limits; statements execute under a per-request context so
// deadlines and the drain path cancel cleanly at tuple-batch
// granularity.
//
// Operational properties:
//
//   - Connection cap with accept backpressure: at most MaxConns
//     connections are served; further dials wait in the kernel's accept
//     backlog until a slot frees, instead of being accepted and dropped.
//   - Idle timeout: a connection that sends nothing for IdleTimeout is
//     closed.
//   - Graceful drain: Shutdown stops accepting, lets in-flight
//     statements run for a grace period, then cancels their contexts
//     (they fail with the retryable CANCELED code); every completed
//     response is flushed before its connection closes. The WAL layer
//     guarantees acknowledged mutations survive the drain.
//   - Observability: the engine's metrics registry gains the server's
//     connection and protocol series and is exposed over HTTP at
//     /metrics (Prometheus text format), with a /healthz and a /readyz
//     that report draining.
package server

import (
	"context"
	"crypto/subtle"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"authdb"
	"authdb/internal/metrics"
	"authdb/internal/wire"
)

// Defaults for Config's zero fields.
const (
	DefaultMaxConns    = 256
	DefaultIdleTimeout = 5 * time.Minute
	DefaultGrace       = 5 * time.Second

	// handshakeTimeout bounds the hello exchange; a dialer that never
	// authenticates must not hold a connection slot.
	handshakeTimeout = 10 * time.Second
	// writeTimeout bounds one response write, so a client that stops
	// reading cannot wedge a handler.
	writeTimeout = 30 * time.Second
	// maxKeptFrame bounds the reply and request buffers a connection
	// keeps between requests: one that grew past it is dropped after its
	// use, so an idle connection does not pin a large frame.
	maxKeptFrame = 1 << 20
)

// Config tunes a Server. The zero value listens on an ephemeral local
// port with defaults and no admin token.
type Config struct {
	// Addr is the wire-protocol listen address ("host:port");
	// empty means "127.0.0.1:0".
	Addr string
	// MetricsAddr, when non-empty, serves HTTP /metrics, /healthz and
	// /readyz.
	MetricsAddr string
	// MaxConns caps concurrently served connections (accept
	// backpressure beyond it); <= 0 means DefaultMaxConns.
	MaxConns int
	// IdleTimeout closes connections with no request for this long;
	// <= 0 means DefaultIdleTimeout.
	IdleTimeout time.Duration
	// Grace is how long Shutdown lets in-flight statements finish
	// before canceling their contexts; <= 0 means DefaultGrace.
	Grace time.Duration
	// Limits bounds every connection's statements, applied verbatim
	// (the zero value is unlimited — servers should normally pass
	// authdb.DefaultLimits()).
	Limits authdb.Limits
	// AdminToken, when non-empty, is required of administrator
	// handshakes. When empty, administrator connections are accepted
	// as-is; only deploy that on a trusted network.
	AdminToken string
}

// Server serves one database over the wire protocol.
type Server struct {
	db  *authdb.DB
	cfg Config
	met *metrics.Registry

	ln       net.Listener
	slots    chan struct{}
	shutCh   chan struct{}
	shutOnce sync.Once
	draining atomic.Bool
	wg       sync.WaitGroup // accept loop + connection handlers

	baseCtx        context.Context
	cancelInflight context.CancelFunc

	mu    sync.Mutex
	conns map[net.Conn]struct{}

	metricsLn net.Listener // see http.go

	activeConns *metrics.Gauge
	// Per-request series, resolved once (see metrics.Vec).
	requests func() *metrics.Counter
	errCodes *metrics.Vec[metrics.Counter]
}

// New builds a server for db; call Start to begin serving.
func New(db *authdb.DB, cfg Config) *Server {
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:0"
	}
	if cfg.MaxConns <= 0 {
		cfg.MaxConns = DefaultMaxConns
	}
	if cfg.IdleTimeout <= 0 {
		cfg.IdleTimeout = DefaultIdleTimeout
	}
	if cfg.Grace <= 0 {
		cfg.Grace = DefaultGrace
	}
	met := db.Metrics()
	s := &Server{
		db:          db,
		cfg:         cfg,
		met:         met,
		slots:       make(chan struct{}, cfg.MaxConns),
		shutCh:      make(chan struct{}),
		conns:       make(map[net.Conn]struct{}),
		activeConns: met.Gauge("authdb_server_connections_active"),
		requests:    met.LazyCounter("authdb_server_requests_total"),
		errCodes:    met.CounterVec("authdb_server_errors_total", "code"),
	}
	s.baseCtx, s.cancelInflight = context.WithCancel(context.Background())
	return s
}

// Start listens on the configured addresses and begins serving in
// background goroutines; it returns once both listeners are bound, so
// Addr reports the actual port even for ":0".
func (s *Server) Start() error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return fmt.Errorf("server: listen %s: %w", s.cfg.Addr, err)
	}
	s.ln = ln
	if s.cfg.MetricsAddr != "" {
		if err := s.startMetrics(); err != nil {
			ln.Close()
			return err
		}
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return nil
}

// Addr returns the wire listener's actual address.
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

// acceptLoop admits connections under the cap: a slot is taken before
// Accept, so when all slots are busy new dials queue in the kernel
// backlog (backpressure) instead of being served and dropped.
func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		select {
		case s.slots <- struct{}{}:
		case <-s.shutCh:
			return
		}
		nc, err := s.ln.Accept()
		if err != nil {
			<-s.slots
			if errors.Is(err, net.ErrClosed) {
				return
			}
			select {
			case <-s.shutCh:
				return
			default:
			}
			// Transient accept failure (e.g. EMFILE): back off briefly.
			s.met.Counter("authdb_server_accept_errors_total").Inc()
			time.Sleep(10 * time.Millisecond)
			continue
		}
		s.met.Counter("authdb_server_accepted_total").Inc()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer func() { <-s.slots }()
			s.handle(nc)
		}()
	}
}

// track registers a live connection so Shutdown can kick idle readers.
func (s *Server) track(nc net.Conn) {
	s.mu.Lock()
	s.conns[nc] = struct{}{}
	s.mu.Unlock()
}

func (s *Server) untrack(nc net.Conn) {
	s.mu.Lock()
	delete(s.conns, nc)
	s.mu.Unlock()
}

// kickAll wakes every reader blocked between requests; connections
// mid-statement are unaffected until they next touch the socket.
func (s *Server) kickAll() {
	s.mu.Lock()
	defer s.mu.Unlock()
	past := time.Unix(1, 0)
	for nc := range s.conns {
		nc.SetReadDeadline(past)
	}
}

// closeAll force-closes every remaining connection (the shutdown
// context expired before the drain finished).
func (s *Server) closeAll() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for nc := range s.conns {
		nc.Close()
	}
}

// Shutdown drains the server: stop accepting, give in-flight statements
// cfg.Grace to finish, then cancel their contexts (they fail with the
// retryable CANCELED code and the response is still flushed), and wait
// for every connection to close. ctx bounds the total wait; when it
// expires remaining connections are force-closed. Safe to call more
// than once.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	s.shutOnce.Do(func() { close(s.shutCh) })
	if s.ln != nil {
		s.ln.Close()
	}
	s.kickAll()

	done := make(chan struct{})
	go func() { s.wg.Wait(); close(done) }()
	grace := time.NewTimer(s.cfg.Grace)
	defer grace.Stop()
	var err error
	select {
	case <-done:
	case <-grace.C:
		s.cancelInflight()
		select {
		case <-done:
		case <-ctx.Done():
			err = ctx.Err()
			s.closeAll()
			<-done
		}
	case <-ctx.Done():
		err = ctx.Err()
		s.cancelInflight()
		s.closeAll()
		<-done
	}
	s.stopMetrics()
	return err
}

// handle serves one connection: handshake, then a request/response loop
// on the connection's own session.
func (s *Server) handle(nc net.Conn) {
	defer nc.Close()
	s.track(nc)
	defer s.untrack(nc)
	s.activeConns.Inc()
	defer s.activeConns.Dec()

	br := newReader(nc)
	bw := newWriter(nc)

	nc.SetReadDeadline(time.Now().Add(handshakeTimeout))
	// The first frame must be a Hello; any other frame, or a hello that
	// does not decode (a protocol-6 peer's JSON included), closes the
	// connection unanswered.
	var hello wire.Hello
	err := wire.ReadMsg(br, &hello)
	if err != nil {
		return
	}
	sess, herr := s.authenticate(hello)
	reply := wire.HelloReply{Server: "authdb/1", Error: herr}
	nc.SetWriteDeadline(time.Now().Add(writeTimeout))
	if err := wire.WriteMsg(bw, &reply); err != nil {
		return
	}
	if err := bw.Flush(); err != nil || herr != nil {
		return
	}

	// frame is the connection's reply buffer: each reply is appended as
	// one frame, header included, and goes out in one Write. in is its
	// request buffer: each request frame is read into it and decoded
	// from it, and the decoded request keeps a copy of its own.
	var frame, in []byte
	var req wire.Request
	for {
		nc.SetReadDeadline(time.Now().Add(s.cfg.IdleTimeout))
		in, err = wire.ReadFrameInto(br, in)
		if err == nil {
			err = wire.Decode(in, &req)
		}
		if err != nil {
			// EOF, idle timeout, a shutdown kick, or garbage: close. A
			// malformed frame cannot be answered in-protocol (framing is
			// lost), so closing is the error signal.
			return
		}
		resp := s.execute(sess, req)
		nc.SetWriteDeadline(time.Now().Add(writeTimeout))
		frame, err = wire.AppendResponseFrame(frame[:0], &resp)
		if err == nil {
			_, err = nc.Write(frame)
		}
		if err != nil {
			return
		}
		if cap(frame) > maxKeptFrame {
			frame = nil
		}
		if cap(in) > maxKeptFrame {
			in = nil
		}
		if s.draining.Load() {
			// The response above was flushed; drain the connection now.
			return
		}
	}
}

// authenticate validates the hello and opens the connection's session
// with the server's per-connection limits.
func (s *Server) authenticate(h wire.Hello) (*authdb.Session, *wire.Error) {
	if h.Proto != wire.ProtoVersion {
		return nil, &wire.Error{Code: wire.CodeProtocol,
			Message: fmt.Sprintf("protocol version %d, server speaks %d", h.Proto, wire.ProtoVersion)}
	}
	if h.User == "" || strings.ContainsAny(h.User, " \t\r\n") {
		return nil, &wire.Error{Code: wire.CodeProtocol, Message: "missing or malformed user name"}
	}
	if h.Admin && s.cfg.AdminToken != "" &&
		subtle.ConstantTimeCompare([]byte(h.Token), []byte(s.cfg.AdminToken)) != 1 {
		return nil, &wire.Error{Code: wire.CodeNotAuthorized, Message: "bad admin token"}
	}
	return s.db.SessionFor(h.User, h.Admin).SetLimits(s.cfg.Limits), nil
}

// execute runs one request on the connection's session under the
// server's drain context plus the request's own deadline.
func (s *Server) execute(sess *authdb.Session, req wire.Request) wire.Response {
	if s.draining.Load() {
		return wire.Response{ID: req.ID, Error: &wire.Error{
			Code: wire.CodeShuttingDown, Message: "server is shutting down", Retryable: true}}
	}
	ctx := s.baseCtx
	if req.TimeoutMS > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(req.TimeoutMS)*time.Millisecond)
		defer cancel()
	}
	s.requests().Inc()
	resp, err := sess.Reply(ctx, req.ID, req.Stmt)
	if err != nil {
		we := wire.ErrorFor(err)
		s.errCodes.With(we.Code).Inc()
		return wire.Response{ID: req.ID, Error: we}
	}
	return resp
}
