// Package replica implements WAL-shipping replication: a primary
// streams its durably committed statement log to followers, and each
// follower applies the stream through a full engine of its own.
//
// The protocol rides the ordinary wire listener (internal/wire's
// REPL_HELLO / REPL_BATCH / REPL_ACK kinds). A follower states the last
// LSN it holds; the primary either serves the WAL tail past it or, when
// the position predates the committed snapshot, sends its full state
// first — as statements, in the same REPL_BATCH frames as the tail,
// with From zero — which the follower installs as one state. Tail
// batches carry contiguous LSN runs, so a replica can verify it never
// skips or re-applies a statement; acks flow back for lag accounting and
// graceful shutdown.
//
// Authorization replicates for free: Motro's masking is a pure function
// of the meta-database and the query, and the meta-relations (views,
// COMPARISON, PERMISSION) are rebuilt from the same statement stream as
// the data — so every replica is a full enforcement point, byte-for-byte
// equivalent to the primary, with no central authorization service.
package replica

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"authdb/internal/engine"
	"authdb/internal/metrics"
	"authdb/internal/wire"
)

const (
	// followerBuf is the per-follower send buffer, in commits; a
	// follower that falls this far behind the live feed is disconnected
	// (it reconnects and catches up from disk instead of stalling the
	// publisher).
	followerBuf = 4096
	// batchMaxStmts and batchMaxBytes bound one REPL_BATCH frame.
	batchMaxStmts = 512
	batchMaxBytes = 4 << 20
	// writeTimeout bounds one batch write; a follower that stops
	// reading is disconnected rather than wedging its sender.
	writeTimeout = 30 * time.Second
	// shutFlushWait bounds how long a graceful shutdown waits for a
	// follower to ack the batches already written to it.
	shutFlushWait = 3 * time.Second
	ackWaitPoll   = 5 * time.Millisecond
)

// Hub is the primary side: it owns every follower stream. The network
// server routes authenticated REPL_HELLO connections to HandleConn.
type Hub struct {
	eng  *engine.Engine
	met  *metrics.Registry
	shut chan struct{}

	// buf and writeTO mirror followerBuf and writeTimeout; the
	// slow-follower tests and the chaos harness shrink them to hit the
	// disconnect paths in bounded time.
	buf     int
	writeTO time.Duration
	// onFence is invoked when a follower proves this node's epoch stale —
	// a ReplFence on the ack stream, or a hello announcing a higher
	// epoch. The server demotes the node in it.
	onFence atomic.Pointer[func(epoch uint64, leader string)]
	// unsafeNoFencing disables every epoch check (the deliberately broken
	// build the chaos harness uses to prove its dual-primary check has
	// teeth). Never set outside tests.
	unsafeNoFencing bool

	mu        sync.Mutex
	closed    bool
	followers map[*follower]struct{}
	wg        sync.WaitGroup
}

// follower is one live replication stream.
type follower struct {
	name string
	conn net.Conn
	// sent is the highest LSN written to the socket; acked the highest
	// the follower reported durably applied.
	sent  atomic.Uint64
	acked atomic.Uint64
}

// NewHub builds the primary-side hub for eng and registers its gauges
// on the engine's registry.
func NewHub(eng *engine.Engine) *Hub {
	h := &Hub{
		eng:       eng,
		met:       eng.Metrics(),
		shut:      make(chan struct{}),
		followers: make(map[*follower]struct{}),
		buf:       followerBuf,
		writeTO:   writeTimeout,
	}
	h.met.GaugeFunc("authdb_repl_followers", func() float64 {
		return float64(h.FollowerCount())
	})
	h.met.GaugeFunc("authdb_repl_max_follower_lag_lsns", func() float64 {
		_, maxLag := h.ackStats()
		return float64(maxLag)
	})
	return h
}

// SetOnFence installs the callback invoked (from a stream goroutine)
// when a follower proves this node's epoch stale; the server demotes
// the node to read-only in it.
func (h *Hub) SetOnFence(fn func(epoch uint64, leader string)) {
	h.onFence.Store(&fn)
}

// fenced reports a stale-epoch signal to the fence callback.
func (h *Hub) fenced(epoch uint64, leader string) {
	h.met.Counter("authdb_repl_fenced_total").Inc()
	if fn := h.onFence.Load(); fn != nil {
		(*fn)(epoch, leader)
	}
}

// SetFollowerBuffer overrides the per-follower commit buffer (tests).
func (h *Hub) SetFollowerBuffer(n int) { h.buf = n }

// SetWriteTimeout overrides the per-batch write timeout (tests).
func (h *Hub) SetWriteTimeout(d time.Duration) { h.writeTO = d }

// SetUnsafeNoFencing disables every epoch check on this hub — the
// deliberately broken build the chaos harness uses to prove the
// dual-primary detector has teeth. Never enable in production.
func (h *Hub) SetUnsafeNoFencing(on bool) { h.unsafeNoFencing = on }

// DropFollowers force-closes every live follower stream. Called on
// demotion: a node that just learned its timeline is dead must not
// keep feeding it to followers — they reconnect, get refused with a
// leader hint, and re-home to the new primary.
func (h *Hub) DropFollowers() {
	h.mu.Lock()
	defer h.mu.Unlock()
	for f := range h.followers {
		f.conn.Close()
	}
}

// FollowerCount reports the live follower streams.
func (h *Hub) FollowerCount() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.followers)
}

// ackStats returns the minimum acked LSN across followers and the
// maximum follower lag against the primary's durable LSN (both zero
// with no followers).
func (h *Hub) ackStats() (minAcked, maxLag uint64) {
	durable := h.eng.DurableLSN()
	h.mu.Lock()
	defer h.mu.Unlock()
	for f := range h.followers {
		a := f.acked.Load()
		if minAcked == 0 || a < minAcked {
			minAcked = a
		}
		if lag := durable - min(a, durable); lag > maxLag {
			maxLag = lag
		}
	}
	return minAcked, maxLag
}

// HandleConn serves one follower stream on an already-authenticated
// connection whose first frame was hello; it returns when the stream
// ends (the caller owns closing the connection). The read half of the
// connection carries the follower's acks.
func (h *Hub) HandleConn(nc net.Conn, br *bufio.Reader, hello wire.ReplHello) {
	bw := bufio.NewWriter(nc)
	reject := func(we *wire.Error) {
		nc.SetWriteDeadline(time.Now().Add(h.writeTO))
		if wire.WriteMsg(bw, wire.ReplHelloReply{OK: false, Error: we}) == nil {
			bw.Flush()
		}
	}

	// Epoch fencing. A hello announcing a higher epoch proves this node
	// was superseded while it wasn't looking: refuse the stream and
	// demote.
	if !h.unsafeNoFencing && hello.Epoch > h.eng.Epoch() {
		h.fenced(hello.Epoch, hello.Leader)
		reject(&wire.Error{Code: wire.CodeStalePrimary, Leader: hello.Leader,
			Message: fmt.Sprintf("fenced: follower %s is at epoch %d, this node at %d",
				hello.Name, hello.Epoch, h.eng.Epoch())})
		return
	}

	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		reject(&wire.Error{Code: wire.CodeShuttingDown,
			Message: "primary is shutting down", Retryable: true})
		return
	}
	f := &follower{name: hello.Name, conn: nc}
	if f.name == "" {
		f.name = nc.RemoteAddr().String()
	}
	h.followers[f] = struct{}{}
	h.wg.Add(1)
	h.mu.Unlock()
	defer func() {
		h.mu.Lock()
		delete(h.followers, f)
		h.mu.Unlock()
		h.wg.Done()
	}()
	h.met.Counter("authdb_repl_follower_connects_total").Inc()

	// Subscribe to the commit feed BEFORE reading the tail or rendering
	// the snapshot: every statement is then either in what we read (it
	// was durable before the subscription) or in the channel, and the
	// LSN filter in sendBatches drops the overlap. Subscribing after
	// would open a gap.
	sub := h.eng.SubscribeCommits(h.buf)
	defer h.eng.UnsubscribeCommits(sub)

	reply := wire.ReplHelloReply{OK: true, Gen: h.eng.Generation(),
		Epoch: h.eng.Epoch(), EpochHist: wireEpochHist(h.eng.EpochHistory())}
	var pending []engine.Commit
	var snapshot []string
	next := hello.From + 1
	// A follower stuck on a stale epoch may hold statements no current
	// history contains: anything it applied past the fork — the start of
	// the first epoch it never adopted. Tell it where the fork is so it
	// quarantines its suffix, and always resync it by snapshot (its WAL
	// position is meaningless past the fork).
	diverged := false
	if !h.unsafeNoFencing && hello.Epoch < h.eng.Epoch() {
		if fork, ok := h.eng.ForkLSN(hello.Epoch); ok && hello.From > fork {
			diverged = true
			reply.Diverged, reply.Fork = true, fork
			h.met.Counter("authdb_repl_diverged_followers_total").Inc()
		}
	}
	tail, ok, err := h.eng.WALTail(hello.From)
	switch {
	case err != nil:
		reject(&wire.Error{Code: wire.CodeInternal, Message: err.Error()})
		return
	case ok && !diverged:
		reply.Mode = wire.ReplModeTail
		pending = tail
	default:
		if snapshot, reply.SnapshotLSN, err = h.eng.ReplSnapshot(); err != nil {
			reject(&wire.Error{Code: wire.CodeInternal, Message: err.Error()})
			return
		}
		reply.Mode, reply.SnapshotStmts = wire.ReplModeSnapshot, uint64(len(snapshot))
		next = reply.SnapshotLSN + 1
	}
	nc.SetWriteDeadline(time.Now().Add(h.writeTO))
	if err := wire.WriteMsg(bw, reply); err != nil {
		return
	}
	if err := bw.Flush(); err != nil {
		return
	}
	// The snapshot's statements go first, in batches with From zero.
	if reply.Mode == wire.ReplModeSnapshot {
		if err := h.sendStmts(f, bw, 0, snapshot); err != nil {
			h.met.Counter("authdb_repl_follower_disconnects_total", "reason", "write").Inc()
			return
		}
		h.met.Counter("authdb_repl_snapshots_sent_total").Inc()
	}
	f.sent.Store(next - 1)
	f.acked.Store(next - 1)

	go h.readAcks(f, br)

	if next, err = h.sendBatches(f, bw, next, pending); err != nil {
		h.met.Counter("authdb_repl_follower_disconnects_total", "reason", "write").Inc()
		return
	}
	for {
		select {
		case <-h.shut:
			h.waitAcked(f)
			return
		case c, live := <-sub.C():
			var batch []engine.Commit
			if live {
				batch = append(batch, c)
				for live && len(batch) < batchMaxStmts {
					select {
					case c2, ok2 := <-sub.C():
						if ok2 {
							batch = append(batch, c2)
						}
						live = ok2
					default:
						goto collected
					}
				}
			}
		collected:
			if next, err = h.sendBatches(f, bw, next, batch); err != nil {
				h.met.Counter("authdb_repl_follower_disconnects_total", "reason", "write").Inc()
				return
			}
			if !live {
				// The engine closed our subscription: this follower fell
				// more than followerBuf commits behind. Drop it; on
				// reconnect it catches up from disk.
				h.met.Counter("authdb_repl_follower_disconnects_total", "reason", "slow").Inc()
				return
			}
		}
	}
}

// sendBatches streams the commits with LSN >= next as REPL_BATCH frames
// and returns the next expected LSN. Commits below next are the
// intended overlap between the disk catch-up and the live feed and are
// dropped; a commit above next means the feed lost something (cannot
// happen while the subscription is open) and fails the stream.
func (h *Hub) sendBatches(f *follower, bw *bufio.Writer, next uint64, cs []engine.Commit) (uint64, error) {
	for len(cs) > 0 && cs[0].LSN < next {
		cs = cs[1:]
	}
	stmts := make([]string, len(cs))
	for i, c := range cs {
		if c.LSN != next+uint64(i) {
			return next, fmt.Errorf("replica: commit feed gap: have %d, want %d", c.LSN, next+uint64(i))
		}
		stmts[i] = c.Stmt
	}
	if err := h.sendStmts(f, bw, next, stmts); err != nil {
		return next, err
	}
	return next + uint64(len(stmts)), nil
}

// sendStmts writes stmts as epoch-stamped REPL_BATCH frames chunked by
// batchMaxStmts and batchMaxBytes. from is the LSN of stmts[0], or zero
// for snapshot statements, which leave the sent mark as it is.
func (h *Hub) sendStmts(f *follower, bw *bufio.Writer, from uint64, stmts []string) error {
	for len(stmts) > 0 {
		n, nbytes := 0, 0
		for n < len(stmts) && n < batchMaxStmts && nbytes < batchMaxBytes {
			nbytes += len(stmts[n])
			n++
		}
		start := time.Now()
		f.conn.SetWriteDeadline(start.Add(h.writeTO))
		if err := wire.WriteMsg(bw, wire.ReplBatch{
			Kind: wire.KindReplBatch, From: from, Stmts: stmts[:n],
			Epoch:        h.eng.Epoch(),
			SentUnixNano: start.UnixNano(),
		}); err != nil {
			return err
		}
		if err := bw.Flush(); err != nil {
			return err
		}
		if from != 0 {
			from += uint64(n)
			f.sent.Store(from - 1)
		}
		stmts = stmts[n:]
		h.met.Counter("authdb_repl_batches_sent_total").Inc()
		h.met.Counter("authdb_repl_stmts_sent_total").Add(int64(n))
		h.met.Histogram("authdb_repl_send_seconds").Observe(time.Since(start).Seconds())
	}
	return nil
}

// readAcks consumes the follower's ack stream until the connection
// dies; it is the only reader of the connection after the handshake.
func (h *Hub) readAcks(f *follower, br *bufio.Reader) {
	f.conn.SetReadDeadline(time.Time{}) // clear the handshake deadline
	for {
		payload, err := wire.ReadFrame(br)
		if err != nil {
			return
		}
		switch wire.MsgKind(payload) {
		case wire.KindReplAck:
			var ack wire.ReplAck
			if json.Unmarshal(payload, &ack) != nil {
				continue
			}
			if ack.Applied > f.acked.Load() {
				f.acked.Store(ack.Applied)
			}
			h.met.Counter("authdb_repl_acks_total").Inc()
		case wire.KindReplFence:
			// The follower adopted a higher epoch than this stream's: we
			// are a stale primary. Demote and drop the stream — the fence
			// beats finishing the batch in flight.
			var fence wire.ReplFence
			if json.Unmarshal(payload, &fence) != nil {
				continue
			}
			if !h.unsafeNoFencing && fence.Epoch > h.eng.Epoch() {
				h.fenced(fence.Epoch, fence.Leader)
				f.conn.Close()
				return
			}
		}
	}
}

// wireEpochHist converts the engine's history to its wire form.
func wireEpochHist(hist []engine.EpochEntry) []wire.EpochEntry {
	out := make([]wire.EpochEntry, len(hist))
	for i, ent := range hist {
		out[i] = wire.EpochEntry{Epoch: ent.Epoch, StartLSN: ent.StartLSN}
	}
	return out
}

// waitAcked gives a follower a bounded window to ack everything already
// written to it — the graceful-shutdown flush.
func (h *Hub) waitAcked(f *follower) {
	deadline := time.Now().Add(shutFlushWait)
	for time.Now().Before(deadline) {
		if f.acked.Load() >= f.sent.Load() {
			return
		}
		time.Sleep(ackWaitPoll)
	}
}

// Shutdown stops the hub: no new followers are admitted, live streams
// stop at their current batch, and each stream waits (bounded) for the
// follower to ack what was sent. ctx caps the total wait; on expiry
// remaining follower connections are force-closed.
func (h *Hub) Shutdown(ctx context.Context) {
	h.mu.Lock()
	if !h.closed {
		h.closed = true
		close(h.shut)
	}
	h.mu.Unlock()

	done := make(chan struct{})
	go func() { h.wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-ctx.Done():
		h.mu.Lock()
		for f := range h.followers {
			f.conn.Close()
		}
		h.mu.Unlock()
		<-done
	}
}
