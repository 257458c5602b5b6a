// The engine's replication surface: what a primary hands to followers
// (a consistent snapshot, or the WAL tail past a follower's position)
// and what a replica does with a received snapshot (swap it in under
// the engine lock and persist it as its own generation).
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
	"os"
	"path/filepath"

	"authdb/internal/core"
	"authdb/internal/wal"
)

// ReplSnapshot renders a consistent snapshot of the engine's state (the
// flat file layout loadState reads) together with the LSN it embodies
// and the committed generation number. It pins the head version — no
// engine lock, no disk round trip, and no race with a concurrent
// checkpoint rotating the on-disk generation: the version's files and
// LSN are coherent by construction, and the generation number is only
// forwarded to followers as handshake information.
func (e *Engine) ReplSnapshot() (files map[string][]byte, lsn, gen uint64, err error) {
	v := e.headVersion()
	files, err = v.snapshotFiles()
	if err != nil {
		return nil, 0, 0, err
	}
	return files, v.lsn, e.snapGen.Load(), nil
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

// ResetFromSnapshot replaces the engine's entire state with the given
// snapshot files (the layout ReplSnapshot produces) embodying lsn. The
// swap happens under the engine lock, transparent to concurrent
// sessions; durable engines immediately checkpoint the new state as
// their own generation so a restart resumes from it. This is the
// replica's bootstrap path.
func (e *Engine) ResetFromSnapshot(files map[string][]byte, lsn uint64) error {
	tmp, err := loadState(mapFS(files).ReadFile, ".", e.opt, nil)
	if err != nil {
		return fmt.Errorf("loading replication snapshot: %w", err)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.durCheck(); err != nil {
		return err
	}
	e.wsch, e.vrels, e.wstore = tmp.wsch, tmp.vrels, tmp.wstore
	// The store's generation counters restarted with the new store; stale
	// entries keyed on the old counters must not survive, and the
	// closure's would pin the discarded state's revisions and answers.
	if e.masks.Load() != nil {
		e.masks.Store(core.NewMaskCache(0))
	}
	if e.closures.Load() != nil {
		e.closures.Store(core.NewClosure(0))
	}
	e.lsn.Store(lsn)
	e.publishLocked()
	// The page store's trees reflect state that was just replaced
	// wholesale; the checkpoint below reloads them from the adopted head.
	e.pageRevs = nil
	if e.dur != nil {
		if err := e.checkpointLocked(e.dur.fs, e.dur.dir, e.dur.gen); err != nil {
			return fmt.Errorf("persisting replication snapshot: %w", err)
		}
	} else {
		e.durableLSN.Store(lsn)
	}
	return nil
}

// mapFS serves a snapshot's file map to loadState. Paths are the map's
// slash-separated keys, optionally prefixed "./".
type mapFS map[string][]byte

func (m mapFS) ReadFile(name string) ([]byte, error) {
	key := filepath.ToSlash(filepath.Clean(name))
	if b, ok := m[key]; ok {
		return append([]byte(nil), b...), nil
	}
	return nil, &os.PathError{Op: "open", Path: name, Err: os.ErrNotExist}
}
