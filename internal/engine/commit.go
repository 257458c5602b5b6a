// Log sequence numbers, WAL group commit, and the commit feed.
//
// Every applied mutating statement gets the next LSN — a counter over
// the engine's entire statement history, persisted as the LSN file of
// each snapshot generation plus the position in the generation's WAL.
// Two engines that applied the same statement prefix therefore agree on
// the LSN, which is what lets a replica resume a replication stream
// from its own persisted position.
//
// Journaling runs in one of two modes:
//
//   - Serial (the default): the statement's WAL record is written and
//     fsynced inside the engine's critical section, exactly as before
//     group commit existed. Deterministic, and what the crash-sweep
//     tests exercise.
//   - Group commit (SetGroupCommit): the record is staged under the
//     engine lock — fixing the WAL order to the apply order — and the
//     session waits for durability after releasing the lock. A single
//     flusher goroutine writes everything staged with one Write and one
//     Sync (wal.AppendBatch), so n concurrent writers share one fsync
//     instead of paying for n. The wait is bounded by one in-flight
//     fsync: a stager never waits behind more than the sync in progress
//     plus its own.
//
// Either way a statement is acknowledged only after it is durable, and
// only durable statements are published to the commit feed — a replica
// can never observe a statement the primary could still lose.
//
// The WAL record is a statement's only write: on both storage backends
// a statement touches no snapshot file and no page. The paged backend's
// trees learn about data only at a checkpoint (syncPageStore in
// paged.go).
package engine

import (
	"fmt"

	"authdb/internal/parser"
)

// pendingCommit is one staged WAL record awaiting the shared fsync.
type pendingCommit struct {
	lsn  uint64
	text string
	done chan error
}

// Commit is one durably journaled statement, as delivered to commit
// subscribers in LSN order.
type Commit struct {
	LSN  uint64
	Stmt string
}

// CommitSub is a subscription to the engine's commit feed. The channel
// is closed when the subscriber falls behind (its buffer overflows) or
// is unsubscribed; a replication follower treats closure as a
// disconnect and re-attaches from its last durable position.
type CommitSub struct {
	ch     chan Commit
	closed bool
}

// C returns the subscription's delivery channel.
func (s *CommitSub) C() <-chan Commit { return s.ch }

// SubscribeCommits registers a subscriber with the given buffer; every
// statement made durable after the call is delivered in LSN order.
// Statements durable before the call are on disk (the WAL of the
// current generation, or the snapshot) — subscribe first, then read
// disk, and the two sources overlap rather than gap.
func (e *Engine) SubscribeCommits(buf int) *CommitSub {
	if buf <= 0 {
		buf = 1024
	}
	sub := &CommitSub{ch: make(chan Commit, buf)}
	e.pubMu.Lock()
	e.subs[sub] = struct{}{}
	e.pubMu.Unlock()
	return sub
}

// UnsubscribeCommits removes the subscription and closes its channel.
func (e *Engine) UnsubscribeCommits(sub *CommitSub) {
	e.pubMu.Lock()
	defer e.pubMu.Unlock()
	if _, ok := e.subs[sub]; ok {
		delete(e.subs, sub)
		if !sub.closed {
			sub.closed = true
			close(sub.ch)
		}
	}
}

// hasSubs reports whether any commit subscriber is attached.
func (e *Engine) hasSubs() bool {
	e.pubMu.Lock()
	defer e.pubMu.Unlock()
	return len(e.subs) > 0
}

// publishCommits delivers a durable batch to every subscriber. A
// subscriber whose buffer is full is disconnected (channel closed) —
// the slow-follower policy: it re-attaches and catches up from disk
// instead of stalling the publisher.
func (e *Engine) publishCommits(batch []Commit) {
	e.pubMu.Lock()
	defer e.pubMu.Unlock()
	for sub := range e.subs {
		for i, c := range batch {
			select {
			case sub.ch <- c:
			default:
				_ = i
				delete(e.subs, sub)
				sub.closed = true
				close(sub.ch)
				e.met.Counter("authdb_repl_slow_subscriber_disconnects_total").Inc()
			}
			if sub.closed {
				break
			}
		}
	}
}

// LSN returns the engine's current log sequence number: the count of
// mutating statements applied over its entire history. It reads the
// published head version rather than the internal counter, so the value
// is always consistent with what ReplSnapshot and retrieves observe — a
// commit becomes visible here only once its version is published, not
// while its WAL record is still being written inside the critical
// section.
func (e *Engine) LSN() uint64 { return e.headVersion().lsn }

// DurableLSN returns the highest LSN whose WAL record (or snapshot) has
// reached stable storage; it trails LSN by the commits in flight.
func (e *Engine) DurableLSN() uint64 { return e.durableLSN.Load() }

// Generation returns the committed snapshot generation (0 for
// in-memory engines).
func (e *Engine) Generation() uint64 { return e.snapGen.Load() }

// Mutating reports whether the statement changes state (and so is
// journaled, replicated, and rejected on read-only replicas).
func Mutating(p parser.Stmt) bool {
	switch p.(type) {
	case parser.CreateRelation, parser.Insert, parser.Delete,
		parser.ViewStmt, parser.DropView, parser.Permit, parser.Revoke:
		return true
	}
	return false
}

// setBroken records the first journaling failure; all later mutations
// fail stop (the in-memory state may be ahead of the log).
func (e *Engine) setBroken(err error) {
	e.commitMu.Lock()
	if e.brokenErr == nil {
		e.brokenErr = err
	}
	e.commitCond.Broadcast()
	e.commitMu.Unlock()
}

// brokenNow returns the journaling failure, if any.
func (e *Engine) brokenNow() error {
	e.commitMu.Lock()
	defer e.commitMu.Unlock()
	return e.brokenErr
}

// logStmt journals the applied mutating statement p: it assigns the
// next LSN and either syncs the record in place (serial mode) or stages
// it for the group-commit flusher, leaving the durability wait on
// s.pendingWait for ExecStmtContext to collect after the engine lock is
// released. Callers hold e.mu for writing and have already applied the
// mutation.
func (s *Session) logStmt(p parser.Stmt) error {
	w, err := s.eng.stageStmt(p)
	if err != nil {
		return err
	}
	if !s.applier {
		s.eng.noteOriginWrite()
	}
	s.pendingWait = w
	return nil
}

// stageStmt is logStmt's engine half; callers hold e.mu for writing.
func (e *Engine) stageStmt(p parser.Stmt) (func() error, error) {
	lsn := e.lsn.Add(1)
	if e.dur == nil {
		// In-memory engines count LSNs (so replicas of every flavor agree
		// on positions) and are trivially durable; with subscribers
		// attached they still feed the commit stream, so an in-memory
		// primary can serve followers (which bootstrap by snapshot —
		// there is no WAL tail to read).
		e.durableLSN.Store(lsn)
		if e.hasSubs() {
			if text, err := parser.Render(p); err == nil {
				e.publishCommits([]Commit{{LSN: lsn, Stmt: text}})
			}
			// A render failure would gap the feed; the follower detects
			// the gap, reconnects, and recovers by snapshot.
		}
		return nil, nil
	}
	if err := e.brokenNow(); err != nil {
		return nil, fmt.Errorf("journaling statement: %w", err)
	}
	text, err := parser.Render(p)
	if err != nil {
		e.setBroken(err)
		return nil, fmt.Errorf("journaling statement: %w", err)
	}
	if e.groupOn {
		pc := pendingCommit{lsn: lsn, text: text, done: make(chan error, 1)}
		e.commitMu.Lock()
		e.commitQ = append(e.commitQ, pc)
		e.commitMu.Unlock()
		select {
		case e.commitWake <- struct{}{}:
		default:
		}
		return func() error {
			if err := <-pc.done; err != nil {
				return fmt.Errorf("journaling statement: %w", err)
			}
			return nil
		}, nil
	}
	// Serial mode: write and sync in place, inside the critical section.
	e.walMu.Lock()
	err = e.appendDurableLocked([]pendingCommit{{lsn: lsn, text: text}})
	e.walMu.Unlock()
	if err != nil {
		return nil, fmt.Errorf("journaling statement: %w", err)
	}
	return nil, nil
}

// appendDurableLocked writes a staged run to the WAL with one sync,
// advances the durable LSN, completes the waiters, and publishes the
// batch to the commit feed. Callers hold e.walMu. On failure the engine
// is marked broken and every waiter gets the error.
func (e *Engine) appendDurableLocked(batch []pendingCommit) error {
	err := e.brokenNow()
	if err == nil && e.walH == nil {
		err = fmt.Errorf("wal closed")
	}
	if err == nil {
		stmts := make([]string, len(batch))
		for i, pc := range batch {
			stmts[i] = pc.text
		}
		err = e.walH.AppendBatch(stmts)
	}
	if err != nil {
		e.setBroken(err)
		for _, pc := range batch {
			if pc.done != nil {
				pc.done <- err
			}
		}
		return err
	}
	last := batch[len(batch)-1].lsn
	e.commitMu.Lock()
	e.durableLSN.Store(last)
	e.commitCond.Broadcast()
	e.commitMu.Unlock()
	e.met.Counter("authdb_wal_appends_total").Add(int64(len(batch)))
	e.met.Counter("authdb_wal_group_commits_total").Inc()
	cs := make([]Commit, len(batch))
	for i, pc := range batch {
		cs[i] = Commit{LSN: pc.lsn, Stmt: pc.text}
	}
	e.publishCommits(cs)
	for _, pc := range batch {
		if pc.done != nil {
			pc.done <- nil
		}
	}
	return nil
}

// flusher is the group-commit writer: it drains everything staged since
// the last flush and makes it durable with one fsync. Queue steals and
// WAL writes both happen under walMu, so a checkpoint (which drains
// under the same lock while holding e.mu against new stagers) can
// rotate the log without a record ever landing in the wrong generation.
func (e *Engine) flusher(stop, done chan struct{}) {
	defer close(done)
	for {
		select {
		case <-e.commitWake:
		case <-stop:
			e.flushPending()
			return
		}
		e.flushPending()
	}
}

// flushPending drains and durably writes the staged queue.
func (e *Engine) flushPending() {
	for {
		e.walMu.Lock()
		e.commitMu.Lock()
		batch := e.commitQ
		e.commitQ = nil
		e.commitMu.Unlock()
		if len(batch) == 0 {
			e.walMu.Unlock()
			return
		}
		e.appendDurableLocked(batch)
		e.walMu.Unlock()
	}
}

// drainCommits synchronously flushes every staged record; callers hold
// e.mu for writing (so no new records can be staged meanwhile).
// Checkpoints drain before rotating the WAL so a record is never left
// for a generation that no longer owns it.
func (e *Engine) drainCommits() {
	e.flushPending()
}

// SetGroupCommit switches between serial journaling (off, the default:
// one fsync per statement, inside the engine's critical section) and
// group commit (on: concurrent statements share one fsync). Switching
// off drains the queue first; results are identical either way, only
// the fsync schedule differs. The network server and the replication
// applier turn it on.
func (e *Engine) SetGroupCommit(on bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if on == e.groupOn {
		return
	}
	if on {
		e.flusherStop = make(chan struct{})
		e.flusherDone = make(chan struct{})
		go e.flusher(e.flusherStop, e.flusherDone)
	} else {
		e.drainCommits()
		close(e.flusherStop)
		<-e.flusherDone
		e.flusherStop, e.flusherDone = nil, nil
	}
	e.groupOn = on
}

// WaitDurable blocks until every statement up to lsn is durable (or the
// durable layer fails, returning its error). With an async-commit
// session this turns n applied statements into one wait.
func (e *Engine) WaitDurable(lsn uint64) error {
	// Wake the flusher in case the caller staged without waiting.
	select {
	case e.commitWake <- struct{}{}:
	default:
	}
	e.commitMu.Lock()
	defer e.commitMu.Unlock()
	for e.durableLSN.Load() < lsn && e.brokenErr == nil {
		e.commitCond.Wait()
	}
	if e.durableLSN.Load() >= lsn {
		return nil
	}
	return fmt.Errorf("journaling statement: %w", e.brokenErr)
}
