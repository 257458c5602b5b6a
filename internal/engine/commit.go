// Log sequence numbers and WAL group commit.
//
// Every applied mutating statement gets the next LSN — a counter over
// the engine's entire statement history, persisted as the LSN file of
// each snapshot generation plus the position in the generation's WAL.
// Two engines that applied the same statement prefix therefore agree on
// the LSN, and a reopen continues the count where it stopped.
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
// A statement is acknowledged only after it is durable. Readers may see
// a statement whose sync is still in flight.
//
// The WAL record is a statement's only write: a statement touches no
// snapshot file; a checkpoint folds the log into the next generation.
package engine

import (
	"fmt"

	"authdb/internal/parser"
)

// commit is one journaled statement awaiting its WAL write.
type commit struct {
	lsn  uint64
	stmt string
}

// LSN returns the engine's current log sequence number: the count of
// mutating statements applied over its entire history. It reads the
// published head version rather than the internal counter, so the value
// is always consistent with what checkpoints and retrieves observe — a
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
// journaled).
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
// mutation. In-memory engines count LSNs too (so every engine agrees on
// positions) and are trivially durable.
func (s *Session) logStmt(p parser.Stmt) error {
	e := s.eng
	if e.dur != nil {
		if err := e.brokenNow(); err != nil {
			return fmt.Errorf("journaling statement: %w", err)
		}
	}
	// Rendering fails only on a broken invariant (ExecStmtContext refused
	// every statement without a literal form): the change is applied but
	// unlogged, and a durable engine takes no further mutations.
	lsn := e.lsn.Add(1)
	if e.dur == nil {
		e.durableLSN.Store(lsn)
	} else {
		text, err := parser.Render(p)
		if err != nil {
			e.setBroken(err)
			return fmt.Errorf("journaling statement: %w", err)
		}
		e.commitMu.Lock()
		e.commitQ = append(e.commitQ, commit{lsn: lsn, stmt: text})
		e.commitMu.Unlock()
	}
	s.pendingLSN = lsn
	return nil
}

// flushLocked writes every staged record to the WAL with one sync and
// advances the durable LSN.
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
			stmts[i] = c.stmt
		}
		err = e.walH.AppendBatch(stmts)
	}
	if err != nil {
		e.setBroken(err)
		return err
	}
	e.durableLSN.Store(batch[len(batch)-1].lsn)
	e.met.Counter("authdb_wal_appends_total").Add(int64(len(batch)))
	e.met.Counter("authdb_wal_group_commits_total").Inc()
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
			// The counter moved without staging: nothing will make lsn
			// durable.
			return fmt.Errorf("waiting for lsn %d: not durable and not staged", lsn)
		}
	}
	return nil
}
