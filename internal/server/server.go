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
//     /metrics (Prometheus text format) with a /healthz that reports
//     draining.
package server

import (
	"bufio"
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
	"authdb/internal/replica"
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
	// MetricsAddr, when non-empty, serves HTTP /metrics and /healthz.
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
	// handshakes and of replication streams. When empty, administrator
	// connections are accepted as-is; only deploy that on a trusted
	// network.
	AdminToken string
	// Replica starts the node read-only, following Peers: every session
	// is read-only and mutating statements fail with the READ_ONLY code
	// naming the leader (Peers[0] until the first handshake). Start
	// refuses a replica with no peers.
	Replica bool
	// AdvertiseAddr is the wire address this node hands out in leader
	// hints (READ_ONLY/STALE_PRIMARY errors, replication fences); empty
	// means the actual listen address. Set it when clients reach the
	// node through a proxy or a different interface.
	AdvertiseAddr string
	// Peers lists the other nodes' wire addresses. A replica follows
	// them, and a fenced ex-primary rejoins through them (the announced
	// leader first). Either way the follower presents AdminToken, so a
	// cluster shares one admin token.
	Peers []string
	// Follow tunes the follower at boot and at every rejoin (zero: defaults).
	Follow replica.Tuning
	// ReadyMaxLagLSNs is the /readyz threshold: a replica lagging more
	// LSNs than this answers 503. <= 0 means 1024.
	ReadyMaxLagLSNs int
	// UnsafeNoFencing disables epoch fencing on this node — promotion
	// skips the epoch bump and the hub skips every epoch check. Exists
	// solely so the chaos harness can demonstrate the split-brain its
	// checks must catch; never enable in production.
	UnsafeNoFencing bool
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

	// hub owns the replication follower streams (see internal/replica);
	// connections whose first frame is a REPL_HELLO are routed to it.
	hub *replica.Hub

	// Role state. A server is either the serving primary or a read-only
	// replica; the role can flip at runtime (Promote, or a fence
	// demotion) and is enforced engine-wide via SetRoleReadOnly so
	// existing sessions feel it too.
	roleMu     sync.Mutex
	isReplica  bool
	fenced     bool   // demoted by a fence: answer STALE_PRIMARY, not READ_ONLY
	leaderAddr string // best-known leader, for hints ("" when unknown)
	rep        *replica.Replica
}

// Hub exposes the server's replication hub (follower streams).
func (s *Server) Hub() *replica.Hub { return s.hub }

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
	s.hub = replica.NewHub(db.Engine())
	s.hub.SetUnsafeNoFencing(cfg.UnsafeNoFencing)
	s.hub.SetOnFence(s.demote)
	if cfg.Replica {
		// Born a replica: the engine-wide role fence makes every session
		// read-only, including ones opened before a later promotion flips
		// the role back.
		s.isReplica = true
		db.Engine().SetRoleReadOnly(true)
	}
	met.GaugeFunc("authdb_role", func() float64 { return roleBit(s.Role() == "primary") }, "role", "primary")
	met.GaugeFunc("authdb_role", func() float64 { return roleBit(s.Role() == "replica") }, "role", "replica")
	s.baseCtx, s.cancelInflight = context.WithCancel(context.Background())
	return s
}

func roleBit(on bool) float64 {
	if on {
		return 1
	}
	return 0
}

// Role reports the node's current role: "primary" or "replica".
func (s *Server) Role() string {
	s.roleMu.Lock()
	defer s.roleMu.Unlock()
	if s.isReplica {
		return "replica"
	}
	return "primary"
}

// leaderLocked is the node's best knowledge of the current leader's
// address: its own advertise address when primary, the followed (or
// fence-announced) leader when a replica, "" when unknown.
func (s *Server) leaderLocked() string {
	if !s.isReplica {
		return s.advertise()
	}
	if s.rep != nil {
		if l := s.rep.Leader(); l != "" {
			return l
		}
	}
	return s.leaderAddr
}

// advertise is the address this node hands out in leader hints.
func (s *Server) advertise() string {
	if s.cfg.AdvertiseAddr != "" {
		return s.cfg.AdvertiseAddr
	}
	if s.ln != nil {
		return s.ln.Addr().String()
	}
	return s.cfg.Addr
}

// Promote turns a replica into the serving primary: stop the follower
// loop (draining its applier), bump the fencing epoch — durably, so
// the claim survives a crash — and lift the engine's role fence. The
// old primary learns it was superseded the moment it next touches this
// node or any follower that adopted the new epoch. Promoting a primary
// is a harmless no-op.
func (s *Server) Promote(ctx context.Context) (uint64, error) {
	s.roleMu.Lock()
	defer s.roleMu.Unlock()
	if !s.isReplica {
		return s.db.Engine().Epoch(), nil
	}
	if s.rep != nil {
		if err := s.rep.Stop(ctx); err != nil {
			return 0, fmt.Errorf("stopping follower loop: %w", err)
		}
		s.rep = nil
	}
	epoch := s.db.Engine().Epoch()
	if !s.cfg.UnsafeNoFencing {
		var err error
		if epoch, err = s.db.Engine().BumpEpoch(); err != nil {
			return 0, fmt.Errorf("bumping epoch: %w", err)
		}
	}
	s.db.Engine().SetRoleReadOnly(false)
	s.isReplica = false
	s.fenced = false
	s.leaderAddr = ""
	s.met.Counter("authdb_failover_total", "kind", "promote").Inc()
	return epoch, nil
}

// demote is the hub's fence callback: a follower (or new primary) on a
// higher epoch told this node it has been superseded. Re-fence the
// engine read-only, remember the announced leader, and rejoin the
// cluster as a follower so the divergence-quarantine handshake runs
// against the new primary.
func (s *Server) demote(epoch uint64, leader string) {
	s.roleMu.Lock()
	defer s.roleMu.Unlock()
	if s.isReplica {
		return
	}
	s.db.Engine().SetRoleReadOnly(true)
	s.isReplica = true
	s.fenced = true
	s.leaderAddr = leader
	s.met.Counter("authdb_failover_total", "kind", "demote").Inc()
	// Followers of the dead timeline must re-home, not keep tailing us.
	s.hub.DropFollowers()
	if s.draining.Load() {
		return
	}
	// Rejoin as a follower over the known peers, the announced leader
	// first. Without peers (or a leader) the node stays a fenced,
	// read-only island until an operator intervenes.
	var addrs []string
	if leader != "" {
		addrs = append(addrs, leader)
	}
	if addrs = append(addrs, s.cfg.Peers...); len(addrs) > 0 {
		s.follow(addrs)
	}
}

// follow starts the node's follower over addrs, presenting the node's
// own admin token. Callers hold roleMu. A born replica and a fenced
// ex-primary both follow through here.
func (s *Server) follow(addrs []string) {
	s.rep = replica.Start(s.db.Engine(), replica.Config{
		Primaries: addrs,
		Token:     s.cfg.AdminToken,
		Tuning:    s.cfg.Follow,
	})
}

// stopFollower stops the node's follower, if it has one.
func (s *Server) stopFollower(ctx context.Context) {
	s.roleMu.Lock()
	rep := s.rep
	s.rep = nil
	s.roleMu.Unlock()
	if rep != nil {
		rep.Stop(ctx)
	}
}

// Start listens on the configured addresses and begins serving in
// background goroutines; it returns once both listeners are bound, so
// Addr reports the actual port even for ":0". A replica starts
// following its peers here.
func (s *Server) Start() error {
	if s.cfg.Replica && len(s.cfg.Peers) == 0 {
		return errors.New("server: a replica needs peers to follow")
	}
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return fmt.Errorf("server: listen %s: %w", s.cfg.Addr, err)
	}
	s.ln = ln
	// Follow before /readyz is up, so a born replica never reports itself
	// fenced; the first peer is the leader hint until the first handshake.
	if s.cfg.Replica {
		s.roleMu.Lock()
		s.leaderAddr = s.cfg.Peers[0]
		s.follow(s.cfg.Peers)
		s.roleMu.Unlock()
	}
	if s.cfg.MetricsAddr != "" {
		if err := s.startMetrics(); err != nil {
			ln.Close()
			s.stopFollower(context.Background())
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
	// Stop the follower loop (if this node is a replica) so its applier
	// finishes cleanly before the engine quiesces.
	s.stopFollower(ctx)
	// Drain follower streams first: each stops at its current batch and
	// gets a bounded window to ack what was already sent, so a restart
	// of the fleet resumes with no re-sent work. Must run before
	// kickAll, which would kill the ack readers.
	s.hub.Shutdown(ctx)
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
	// The first frame's tag decides the connection's protocol: a Hello
	// opens a statement session, a REPL_HELLO a replication stream
	// served by the hub; any other frame, or a hello that does not
	// decode (a protocol-6 peer's JSON included), closes it unanswered.
	first, err := wire.ReadFrame(br)
	if err != nil {
		return
	}
	if wire.MsgKind(first) == wire.KindReplHello {
		s.handleRepl(nc, br, first)
		return
	}
	var hello wire.Hello
	if err := wire.Decode(first, &hello); err != nil {
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
		resp := s.execute(sess, hello.Admin, req)
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

// handleRepl authenticates a replication handshake and hands the
// connection to the hub for the life of the stream.
func (s *Server) handleRepl(nc net.Conn, br *bufio.Reader, first []byte) {
	var hello wire.ReplHello
	if wire.Decode(first, &hello) != nil {
		return
	}
	if hello.Proto != wire.ProtoVersion {
		s.hub.Refuse(nc, &wire.Error{Code: wire.CodeProtocol,
			Message: fmt.Sprintf("protocol version %d, server speaks %d", hello.Proto, wire.ProtoVersion)})
		return
	}
	// Replication reads everything unmasked; it carries the same
	// authority as an administrator connection.
	if s.cfg.AdminToken != "" &&
		subtle.ConstantTimeCompare([]byte(hello.Token), []byte(s.cfg.AdminToken)) != 1 {
		s.hub.Refuse(nc, &wire.Error{Code: wire.CodeNotAuthorized, Message: "bad replication token"})
		return
	}
	// A replica does not feed followers (no chained replication — a
	// cycle of replicas would tail each other forever); point the dialer
	// at the leader instead.
	s.roleMu.Lock()
	isRep, leader := s.isReplica, s.leaderLocked()
	s.roleMu.Unlock()
	if isRep {
		s.hub.Refuse(nc, &wire.Error{Code: wire.CodeReadOnly, Retryable: true, Leader: leader,
			Message: "node is a replica; replicate from the leader"})
		return
	}
	s.met.Counter("authdb_server_repl_streams_total").Inc()
	s.hub.HandleConn(nc, br, hello)
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
	// Replica read-onlyness is the engine-wide role fence, so promotion
	// and demotion reach sessions opened before the role changed.
	return s.db.SessionFor(h.User, h.Admin).SetLimits(s.cfg.Limits), nil
}

// execute runs one request on the connection's session under the
// server's drain context plus the request's own deadline.
func (s *Server) execute(sess *authdb.Session, admin bool, req wire.Request) wire.Response {
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
	if strings.TrimSpace(req.Stmt) == `\promote` {
		return s.executePromote(ctx, admin, req.ID)
	}
	resp, err := sess.Reply(ctx, req.ID, req.Stmt)
	if err != nil {
		we := wire.ErrorFor(err)
		if we.Code == wire.CodeReadOnly {
			s.roleMu.Lock()
			fenced, leader := s.fenced, s.leaderLocked()
			s.roleMu.Unlock()
			we.Leader = leader
			if fenced {
				// A fenced ex-primary refusing a write is not merely
				// read-only — it was superseded; the distinct code tells
				// clients their leader cache is stale, not just wrong.
				we.Code = wire.CodeStalePrimary
			}
			if leader != "" {
				we.Message = fmt.Sprintf("%s; send writes to the primary at %s", we.Message, leader)
			}
		}
		s.errCodes.With(we.Code).Inc()
		return wire.Response{ID: req.ID, Error: we}
	}
	return resp
}

// executePromote serves the admin-only \promote statement.
func (s *Server) executePromote(ctx context.Context, admin bool, id uint64) wire.Response {
	if !admin {
		return wire.Response{ID: id, Error: &wire.Error{
			Code: wire.CodeNotAuthorized, Message: "\\promote requires an administrator connection"}}
	}
	epoch, err := s.Promote(ctx)
	if err != nil {
		return wire.Response{ID: id, Error: wire.ErrorFor(err)}
	}
	text := fmt.Sprintf("promoted to primary (epoch %d)", epoch)
	return wire.Response{ID: id, Text: text}
}
