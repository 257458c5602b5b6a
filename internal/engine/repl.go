// The engine's replication surface: what a primary hands to followers
// (a consistent snapshot as statements, or the WAL tail past a
// follower's position) and what a replica does with a received snapshot
// (replay it into a fresh engine, swap that in under the engine lock and
// persist it as its own generation).
//
// Authorization needs none of this to be special-cased: Motro's model
// makes the masked answer a pure function of the meta-database (views,
// COMPARISON, PERMISSION) and the query, and the meta-relations are
// ordinary state rebuilt from the same statement stream — so a replica
// that has applied the same statement prefix enforces exactly the same
// masking as the primary, with no central enforcement point.
package engine

import (
	"fmt"
	"path/filepath"
	"slices"
	"strings"

	"authdb/internal/core"
	"authdb/internal/wal"
)

// ReplSnapshot renders a consistent snapshot of the engine's state as
// the statements a fresh engine replays to hold it, with the LSN it
// embodies. It pins the head version — no engine lock, no disk round
// trip, and no race with a concurrent checkpoint: the version's
// statements and LSN are coherent by construction.
func (e *Engine) ReplSnapshot() (stmts []string, lsn uint64, err error) {
	v := e.headVersion()
	s, err := v.render()
	if err != nil {
		return nil, 0, err
	}
	return slices.Concat(s[:]...), v.lsn, nil
}

// WALTail returns the durable statements with LSN > from, read from the
// current generation's on-disk WAL. ok reports whether the tail
// suffices: false means the follower's position predates the committed
// snapshot (or the engine is in-memory, or the log rotated repeatedly
// mid-read) and the follower needs a full snapshot instead.
//
// Callers that want a gap-free stream must subscribe to the commit feed
// BEFORE calling WALTail: every statement is either durable before the
// subscription (and therefore in the WAL read here) or published to the
// subscription after it — the two sources overlap rather than gap, and
// the reader dedupes by LSN.
func (e *Engine) WALTail(from uint64) (tail []Commit, ok bool, err error) {
	for attempt := 0; attempt < 3; attempt++ {
		e.mu.RLock()
		if e.dur == nil {
			e.mu.RUnlock()
			return nil, false, nil
		}
		dfs, dir, gen := e.dur.fs, e.dur.dir, e.dur.gen
		base := e.snapBase.Load()
		e.mu.RUnlock()
		if from < base {
			return nil, false, nil
		}

		// Read without any engine lock: the WAL file only grows, and a
		// session waiting for durability may append a batch concurrently
		// — a record torn by the race CRC-fails and terminates the
		// prefix, which is fine because the commit feed covers
		// everything past it.
		var cs []Commit
		n := uint64(0)
		if _, err := wal.Replay(dfs, filepath.Join(dir, walName(gen)), func(_ int, stmt string) error {
			n++
			if base+n > from {
				cs = append(cs, Commit{LSN: base + n, Stmt: stmt})
			}
			return nil
		}); err != nil {
			return nil, false, err
		}

		// A checkpoint during the read would have rotated the log under
		// us (the read may have seen the doomed file, or nothing); only a
		// generation that held still vouches for the tail.
		e.mu.RLock()
		same := e.dur != nil && e.dur.gen == gen
		e.mu.RUnlock()
		if same {
			return cs, true, nil
		}
	}
	return nil, false, nil
}

// ResetFromSnapshot replaces the engine's entire state with the one
// ReplSnapshot's statements build, embodying lsn, and, when hist is not
// nil, its epoch history with hist (under AdoptEpochHistory's rules).
// The statements replay into a fresh engine, swapped in under the
// engine lock, transparent to concurrent sessions; durable engines
// immediately checkpoint the new state and history as one generation,
// so a restart resumes from both or from neither. This is the replica's
// bootstrap path.
func (e *Engine) ResetFromSnapshot(stmts []string, lsn uint64, hist []EpochEntry) error {
	tmp := New(e.opt)
	if _, err := tmp.NewSession("admin", true).ExecScript(strings.Join(stmts, ";\n")); err != nil {
		return fmt.Errorf("loading replication snapshot: %w", err)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.durCheck(); err != nil {
		return err
	}
	prevHist, prevEpoch := e.epochHist, e.epoch.Load()
	if hist != nil {
		if _, err := e.adoptEpochHistLocked(hist); err != nil {
			return err
		}
	}
	e.wsch, e.vrels, e.wstore = tmp.wsch, tmp.vrels, tmp.wstore
	// No entry of the old closure can match the new state's keys and
	// stamps, but each would pin the discarded state's revisions and
	// rows until the FIFO cap pushed it out.
	if e.closures.Load() != nil {
		e.closures.Store(core.NewClosure(0))
	}
	e.lsn.Store(lsn)
	e.publishLocked()
	if e.dur != nil {
		if err := e.checkpointLocked(e.dur.fs, e.dur.dir, e.dur.gen); err != nil {
			// The durable generation still holds the old history.
			e.epochHist = prevHist
			e.epoch.Store(prevEpoch)
			return fmt.Errorf("persisting replication snapshot: %w", err)
		}
	} else {
		e.durableLSN.Store(lsn)
	}
	return nil
}
