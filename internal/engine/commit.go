// Log sequence numbers, WAL group commit, and the commit feed.
//
// Every applied mutating statement gets the next LSN — a counter over
// the engine's entire statement history, persisted as the LSN file of
// each snapshot generation plus the position in the generation's WAL.
// Two engines that applied the same statement prefix therefore agree on
// the LSN, which is what lets a replica resume a replication stream
// from its own persisted position.
//
// Journaling has one path. The statement's record is staged on a queue
// under the engine lock, which fixes the WAL order to the apply order.
// After the handler releases the lock, the session waits for
// durability (WaitDurable): a waiter that finds no write in progress
// writes the whole queue with one Write and one Sync (wal.AppendBatch),
// and the others wait for that write, then find their records durable
// or write the next batch — none waits for more than the write in
// progress plus its own. So n concurrent writers share one fsync, and a
// single writer pays one per statement. No goroutine is involved. An
// async-commit session skips the wait; its statements become durable
// at the next WaitDurable, synchronous commit, checkpoint or Close.
//
// A statement is acknowledged only after it is durable, and only
// durable statements are published to the commit feed — a replica can
// never observe a statement the primary could still lose. Readers may
// see a statement whose sync is still in flight.
//
// The WAL record is a statement's only write: a statement touches no
// snapshot file; a checkpoint folds the log into the next generation.
package engine

import (
	"fmt"

	"authdb/internal/parser"
)

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
		for _, c := range batch {
			select {
			case sub.ch <- c:
			default:
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
	e.commitMu.Unlock()
}

// brokenNow returns the journaling failure, if any.
func (e *Engine) brokenNow() error {
	e.commitMu.Lock()
	defer e.commitMu.Unlock()
	return e.brokenErr
}

// logStmt journals the applied mutating statement p: it assigns the
// next LSN and stages the record, leaving the durability wait on
// s.pendingLSN for ExecStmtContext to collect after the engine lock is
// released. Callers hold e.mu for writing and have already applied the
// mutation. In-memory engines count LSNs (so replicas of every flavor
// agree on positions) and are trivially durable; with subscribers
// attached they still feed the commit stream, so an in-memory primary
// can serve followers (which bootstrap by snapshot — there is no WAL
// tail to read).
func (s *Session) logStmt(p parser.Stmt) error {
	e := s.eng
	if e.dur != nil {
		if err := e.brokenNow(); err != nil {
			return fmt.Errorf("journaling statement: %w", err)
		}
	}
	// Rendering fails only on a broken invariant (ExecStmtContext refused
	// every statement without a literal form): the change is applied but
	// unlogged. The LSN is taken first, so a follower sees the gap and
	// recovers by snapshot; a durable engine takes no further mutations.
	lsn := e.lsn.Add(1)
	if e.dur == nil {
		e.durableLSN.Store(lsn)
	}
	if e.dur != nil || e.hasSubs() {
		text, err := parser.Render(p)
		if err != nil {
			e.setBroken(err)
			return fmt.Errorf("journaling statement: %w", err)
		}
		c := Commit{LSN: lsn, Stmt: text}
		if e.dur != nil {
			e.commitMu.Lock()
			e.commitQ = append(e.commitQ, c)
			e.commitMu.Unlock()
		} else {
			e.publishCommits([]Commit{c})
		}
	}
	if !s.applier {
		e.noteOriginWrite()
	}
	s.pendingLSN = lsn
	return nil
}

// flushLocked writes every staged record to the WAL with one sync,
// advances the durable LSN, and publishes the batch to the commit feed.
// Callers hold e.walMu, which orders the batches: the queue is taken
// and written under it, so a record never lands in a generation that no
// longer owns it. On failure the engine is marked broken.
func (e *Engine) flushLocked() error {
	e.commitMu.Lock()
	batch := e.commitQ
	e.commitQ = nil
	err := e.brokenErr
	e.commitMu.Unlock()
	if len(batch) == 0 {
		return nil
	}
	if err == nil && e.walH == nil {
		err = fmt.Errorf("wal closed")
	}
	if err == nil {
		stmts := make([]string, len(batch))
		for i, c := range batch {
			stmts[i] = c.Stmt
		}
		err = e.walH.AppendBatch(stmts)
	}
	if err != nil {
		e.setBroken(err)
		return err
	}
	e.durableLSN.Store(batch[len(batch)-1].LSN)
	e.met.Counter("authdb_wal_appends_total").Add(int64(len(batch)))
	e.met.Counter("authdb_wal_group_commits_total").Inc()
	e.publishCommits(batch)
	return nil
}

// drainCommits makes everything staged durable. Checkpoints drain
// before rotating the WAL, holding e.mu so no new record can be staged
// meanwhile; WaitDurable's writer drains without it.
func (e *Engine) drainCommits() error {
	e.walMu.Lock()
	defer e.walMu.Unlock()
	return e.flushLocked()
}

// WaitDurable blocks until every statement up to lsn is durable, or
// returns the durable layer's error; the waiter may write the batch
// itself (see the file comment). With an async-commit session this
// turns n applied statements into one sync. An lsn past LSN() is an
// error at once: nothing staged would ever make it durable.
func (e *Engine) WaitDurable(lsn uint64) error {
	// Every statement up to the published head was staged before it was
	// published, so its record is queued, written, or failed.
	if head := e.LSN(); lsn > head {
		return fmt.Errorf("waiting for lsn %d: the engine is at lsn %d", lsn, head)
	}
	for e.durableLSN.Load() < lsn {
		e.commitMu.Lock()
		broken, writing := e.brokenErr, e.writing
		if broken == nil && writing == nil {
			e.writing = make(chan struct{})
		}
		e.commitMu.Unlock()
		if broken != nil {
			return fmt.Errorf("journaling statement: %w", broken)
		}
		if writing != nil {
			<-writing
			continue
		}
		err := e.drainCommits()
		e.commitMu.Lock()
		close(e.writing)
		e.writing = nil
		e.commitMu.Unlock()
		if err != nil {
			return fmt.Errorf("journaling statement: %w", err)
		}
		if e.durableLSN.Load() < lsn {
			// The counter was set without staging (a snapshot install
			// whose checkpoint failed): nothing will make lsn durable.
			return fmt.Errorf("waiting for lsn %d: not durable and not staged", lsn)
		}
	}
	return nil
}
