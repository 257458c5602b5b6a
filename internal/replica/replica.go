// The follower side: a Replica dials the primary, bootstraps (a
// snapshot read whole from its batches and installed as one state, or
// the WAL tail), then applies the live statement stream through its own
// engine — which journals to the replica's own WAL, so the position
// survives a crash and the next connection resumes from the persisted
// LSN. The connection loop reconnects forever with jittered exponential
// backoff; Stop ends it.
package replica

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"authdb/internal/engine"
	"authdb/internal/guard"
	"authdb/internal/metrics"
	"authdb/internal/wire"
)

// Config names a Replica's primary candidates and its credential.
type Config struct {
	// Primaries lists every address that might be (or become) the
	// primary; the replica rotates through them on failure and jumps to
	// leader hints carried by STALE_PRIMARY refusals.
	Primaries []string
	// Token authenticates the stream (the primary's admin token).
	Token string
	// Dial overrides the dialer (tests inject failing connections).
	Dial func(ctx context.Context, addr string) (net.Conn, error)
	Tuning
}

// Tuning sets a follower's dial timeout, backoff and log; zero is the default.
type Tuning struct {
	// DialTimeout bounds one connection attempt (default 5s).
	DialTimeout time.Duration
	// BackoffMin and BackoffMax bound the jittered exponential
	// reconnect backoff (defaults 100ms and 5s).
	BackoffMin time.Duration
	BackoffMax time.Duration
	// Logf, when set, receives connection lifecycle messages.
	Logf func(format string, args ...any)
}

func (c *Tuning) fill() {
	if c.DialTimeout <= 0 {
		c.DialTimeout = 5 * time.Second
	}
	if c.BackoffMin <= 0 {
		c.BackoffMin = 100 * time.Millisecond
	}
	if c.BackoffMax <= 0 {
		c.BackoffMax = 5 * time.Second
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
}

// Replica follows a primary, applying its statement stream to eng.
type Replica struct {
	eng *engine.Engine
	cfg Config
	met *metrics.Registry

	stop chan struct{}
	done chan struct{}

	connected atomic.Bool
	// bootstrapped flips once the first handshake completes (snapshot
	// installed or tail accepted); /readyz gates on it.
	bootstrapped atomic.Bool
	// primaryLSN is the highest LSN the primary has announced (the end
	// of the last received batch); lag is primaryLSN - engine LSN.
	primaryLSN atomic.Uint64
	// behindNanos is the age of the last applied batch (primary send
	// time to apply time), zero when caught up.
	behindNanos atomic.Int64

	// redial is the rotation through cfg.Primaries, the pending leader
	// hint and the backoff; only the run goroutine touches it.
	redial wire.Redial
	// addrMu guards leader, the last address that accepted a stream.
	addrMu sync.Mutex
	leader string
}

// Start connects eng to the primary described by cfg and keeps it
// following until Stop. The returned Replica is already running.
func Start(eng *engine.Engine, cfg Config) *Replica {
	cfg.fill()
	if cfg.Dial == nil {
		cfg.Dial = func(ctx context.Context, addr string) (net.Conn, error) {
			return new(net.Dialer).DialContext(ctx, "tcp", addr)
		}
	}
	r := &Replica{
		eng:    eng,
		cfg:    cfg,
		met:    eng.Metrics(),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
		redial: wire.Redial{Addrs: cfg.Primaries, Min: cfg.BackoffMin, Max: cfg.BackoffMax},
	}
	r.met.GaugeFunc("authdb_repl_connected", func() float64 {
		if r.connected.Load() {
			return 1
		}
		return 0
	})
	r.met.GaugeFunc("authdb_repl_lag_lsns", func() float64 {
		lsns, _ := r.Lag()
		return float64(lsns)
	})
	r.met.GaugeFunc("authdb_repl_lag_seconds", func() float64 {
		_, secs := r.Lag()
		return secs
	})
	go r.run()
	return r
}

// Lag reports how far the replica trails the primary: the LSN delta
// against the last position the primary announced, and the age of the
// last applied batch (zero when caught up). Both are zero before the
// first connection.
func (r *Replica) Lag() (lsns uint64, seconds float64) {
	p, own := r.primaryLSN.Load(), r.eng.LSN()
	if p > own {
		lsns = p - own
	}
	if lsns > 0 {
		seconds = time.Duration(r.behindNanos.Load()).Seconds()
	}
	return lsns, seconds
}

// Bootstrapped reports whether the replica has completed at least one
// handshake (snapshot installed, or its position accepted for tailing)
// since Start; /readyz answers 503 until then.
func (r *Replica) Bootstrapped() bool { return r.bootstrapped.Load() }

// Leader returns the address of the last primary that accepted a
// stream — the replica's best knowledge of where the leader is (""
// before the first successful handshake).
func (r *Replica) Leader() string {
	r.addrMu.Lock()
	defer r.addrMu.Unlock()
	return r.leader
}

// Stop ends the follower loop and waits for it (bounded by ctx).
func (r *Replica) Stop(ctx context.Context) error {
	select {
	case <-r.stop:
	default:
		close(r.stop)
	}
	select {
	case <-r.done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// run is the reconnect loop: stream until the connection dies, then
// redial under jittered exponential backoff (reset after any session
// that made progress).
func (r *Replica) run() {
	defer close(r.done)
	for {
		select {
		case <-r.stop:
			return
		default:
		}
		addr := r.redial.Next()
		applied, err := r.stream(addr)
		r.connected.Store(false)
		select {
		case <-r.stop:
			return
		default:
		}
		if err != nil {
			r.cfg.Logf("replica: stream to %s: %v", addr, err)
			r.met.Counter("authdb_repl_reconnects_total").Inc()
			r.redial.Rotate()
		}
		if applied > 0 {
			r.redial.Reset()
		}
		select {
		case <-r.stop:
			return
		case <-time.After(r.redial.Delay()):
		}
	}
}

// stream runs one connection: handshake from the engine's durable LSN,
// snapshot install if the primary says so, then the apply loop. It
// returns how many statements it applied (for backoff reset) and the
// error that ended the stream.
func (r *Replica) stream(addr string) (applied int, err error) {
	ctx, cancel := context.WithTimeout(context.Background(), r.cfg.DialTimeout)
	conn, err := r.cfg.Dial(ctx, addr)
	cancel()
	if err != nil {
		return 0, err
	}
	defer conn.Close()
	// Unblock the apply loop's reads when Stop is called.
	watchDone := make(chan struct{})
	defer close(watchDone)
	go func() {
		select {
		case <-r.stop:
			conn.Close()
		case <-watchDone:
		}
	}()

	br := bufio.NewReader(conn)
	bw := bufio.NewWriter(conn)
	from := r.eng.DurableLSN()
	conn.SetDeadline(time.Now().Add(r.cfg.DialTimeout))
	if err := wire.WriteMsg(bw, &wire.ReplHello{
		Proto: wire.ProtoVersion, Token: r.cfg.Token, From: from,
		Epoch: r.eng.Epoch(), Leader: r.Leader(),
	}); err != nil {
		return 0, err
	}
	if err := bw.Flush(); err != nil {
		return 0, err
	}
	var reply wire.ReplHelloReply
	if err := wire.ReadMsg(br, &reply); err != nil {
		return 0, fmt.Errorf("handshake: %w", err)
	}
	if reply.Error != nil {
		r.redial.Hint(reply.Error.Leader)
		return 0, fmt.Errorf("primary refused stream: %w", reply.Error)
	}
	// A primary on a lower epoch than ours has been superseded and
	// doesn't know it yet: fence it and move on.
	if reply.Epoch < r.eng.Epoch() {
		return 0, r.fence(conn, bw, addr, "handshake", reply.Epoch)
	}
	conn.SetDeadline(time.Time{})

	// Read the whole snapshot before touching the engine: a stream cut
	// partway leaves this node's state, LSN and quarantines as they were.
	var snapshot []string
	for uint64(len(snapshot)) < reply.SnapshotStmts {
		batch, err := r.readBatch(conn, br, bw, addr)
		if err == nil && (batch.From != 0 || uint64(len(snapshot)+len(batch.Stmts)) > reply.SnapshotStmts) {
			err = fmt.Errorf("batch from lsn %d of %d statements after %d of %d", batch.From, len(batch.Stmts), len(snapshot), reply.SnapshotStmts)
		}
		if err != nil {
			return 0, fmt.Errorf("reading snapshot: %w", err)
		}
		snapshot = append(snapshot, batch.Stmts...)
	}
	if reply.Diverged {
		// We accepted statements past the fork under a stale epoch; no
		// current history contains them. Quarantine before the snapshot
		// overwrites them — an acked write is never silently dropped.
		qdir, err := r.eng.QuarantineDiverged(reply.Fork)
		if err != nil {
			return 0, fmt.Errorf("quarantining divergent suffix past lsn %d: %w", reply.Fork, err)
		}
		if qdir != "" {
			r.cfg.Logf("replica: quarantined divergent statements past lsn %d into %s", reply.Fork, qdir)
		}
	}
	// The snapshot and the epoch history land in one generation: state
	// under the old history would look diverged at the next handshake.
	if reply.Snapshot {
		if err := r.eng.ResetFromSnapshot(snapshot, reply.SnapshotLSN, reply.EpochHist); err != nil {
			return 0, fmt.Errorf("installing snapshot at lsn %d: %w", reply.SnapshotLSN, err)
		}
		r.met.Counter("authdb_repl_snapshots_installed_total").Inc()
		r.cfg.Logf("replica: bootstrapped from snapshot of %d statements at lsn %d (gen %d)",
			len(snapshot), reply.SnapshotLSN, reply.Gen)
	} else if len(reply.EpochHist) > 0 {
		if err := r.eng.AdoptEpochHistory(reply.EpochHist); err != nil {
			return 0, fmt.Errorf("adopting epoch history: %w", err)
		}
	}
	r.addrMu.Lock()
	r.leader = addr
	r.addrMu.Unlock()
	r.connected.Store(true)
	r.bootstrapped.Store(true)
	r.cfg.Logf("replica: following %s from lsn %d (snapshot %t, epoch %d)", addr, r.eng.DurableLSN(), reply.Snapshot, r.eng.Epoch())

	// The applier: one admin session, no per-statement limits (the
	// primary already executed these statements), async commit so a
	// whole batch shares one durability wait. SetApplier exempts it from
	// the role fence — a demoted ex-primary must still follow — and from
	// the origin-write accounting.
	sess := r.eng.NewSession("admin", true)
	sess.SetLimits(guard.Limits{})
	sess.SetAsyncCommit(true)
	sess.SetApplier(true)

	for {
		batch, err := r.readBatch(conn, br, bw, addr)
		if err != nil {
			return applied, err
		}
		n, err := r.applyBatch(sess, batch)
		applied += n
		if err != nil {
			return applied, err
		}
		conn.SetWriteDeadline(time.Now().Add(writeTimeout))
		if err := wire.WriteMsg(bw, &wire.ReplAck{Applied: r.eng.DurableLSN()}); err != nil {
			return applied, err
		}
		if err := bw.Flush(); err != nil {
			return applied, err
		}
	}
}

// readBatch reads the next frame, which must be a REPL_BATCH. A batch
// from a lower epoch than ours means the sender went stale mid-stream
// (typically: this very node was just promoted): fence it.
func (r *Replica) readBatch(conn net.Conn, br *bufio.Reader, bw *bufio.Writer, addr string) (wire.ReplBatch, error) {
	var batch wire.ReplBatch
	if err := wire.ReadMsg(br, &batch); err != nil {
		return batch, err
	}
	if batch.Epoch < r.eng.Epoch() {
		return batch, r.fence(conn, bw, addr, "batch", batch.Epoch)
	}
	return batch, nil
}

// fence tells a primary whose epoch (stamped on what) is below ours
// that it is stale, and returns the error that ends the stream.
func (r *Replica) fence(conn net.Conn, bw *bufio.Writer, addr, what string, epoch uint64) error {
	conn.SetWriteDeadline(time.Now().Add(writeTimeout))
	wire.WriteMsg(bw, &wire.ReplFence{Epoch: r.eng.Epoch(), Leader: r.Leader()})
	bw.Flush()
	return fmt.Errorf("fencing stale primary %s (%s epoch %d, ours %d)", addr, what, epoch, r.eng.Epoch())
}

// applyBatch applies one contiguous statement run in LSN order,
// skipping statements the engine already holds (the deliberate overlap
// after a resume) and failing on a gap — a replica must never skip a
// statement, or its masking would diverge from the primary's. A
// snapshot batch (From zero) belongs before the tail: it fails the stream.
func (r *Replica) applyBatch(sess *engine.Session, batch wire.ReplBatch) (int, error) {
	if batch.From == 0 {
		return 0, fmt.Errorf("snapshot batch of %d statements in the tail", len(batch.Stmts))
	}
	start := time.Now()
	last := batch.From + uint64(len(batch.Stmts)) - 1
	if len(batch.Stmts) == 0 {
		return 0, nil
	}
	if last > r.primaryLSN.Load() {
		r.primaryLSN.Store(last)
	}
	applied := 0
	for i, stmt := range batch.Stmts {
		lsn := batch.From + uint64(i)
		switch own := r.eng.LSN(); {
		case lsn <= own:
			continue // already applied before a resume
		case lsn != own+1:
			return applied, fmt.Errorf("stream gap: batch continues at lsn %d, engine at %d", lsn, own)
		}
		if _, err := sess.Exec(stmt); err != nil {
			r.met.Counter("authdb_repl_apply_errors_total").Inc()
			return applied, fmt.Errorf("applying lsn %d (%s): %w", lsn, stmt, err)
		}
		applied++
	}
	if err := r.eng.WaitDurable(last); err != nil {
		return applied, err
	}
	if batch.SentUnixNano > 0 {
		r.behindNanos.Store(time.Now().UnixNano() - batch.SentUnixNano)
	}
	r.met.Counter("authdb_repl_batches_applied_total").Inc()
	r.met.Counter("authdb_repl_stmts_applied_total").Add(int64(applied))
	r.met.Histogram("authdb_repl_apply_seconds").Observe(time.Since(start).Seconds())
	return applied, nil
}
