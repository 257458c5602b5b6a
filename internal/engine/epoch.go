// Fencing epochs: the failover counter that keeps a resurrected
// ex-primary from silently diverging the fleet.
//
// An epoch is bumped exactly once per promotion, and every bump starts
// at the promoting node's LSN. The full (epoch, start-LSN) history —
// not just the current epoch — is persisted and replicated, because a
// follower can come back after missing several promotions: locating
// where its history forked from the cluster's requires the start LSN
// of the first epoch it never adopted, which may be far below the
// current epoch's start. The history is tiny (one entry per failover
// over the cluster's lifetime), so it travels whole in the replication
// handshake and lives as one small EPOCH file per snapshot generation.
//
// An epoch change always forces a checkpoint, so a WAL segment never
// spans epochs and the WAL record format needs no epoch column: every
// record in wal-NNNNNN.log belongs to the epoch its generation's EPOCH
// file ends with.
package engine

import (
	"fmt"
	"path/filepath"
	"strconv"
	"strings"

	"authdb/internal/faultfs"
	"authdb/internal/wal"
)

// EpochEntry is one step of the fencing-epoch history: the epoch and
// the LSN at which it began (the promoting node's position at
// promotion).
type EpochEntry struct {
	Epoch    uint64
	StartLSN uint64
}

// epochName is the snapshot file recording the epoch history, one
// "epoch startLSN" line per entry. Like LSN it lives only inside
// snapshot generations (covered by the MANIFEST), never in the flat
// Save layout.
const epochName = "EPOCH"

// Epoch returns the engine's current fencing epoch (1 for an engine
// that has never seen a promotion).
func (e *Engine) Epoch() uint64 { return e.epoch.Load() }

// EpochHistory returns a copy of the (epoch, start-LSN) history, oldest
// first. The last entry is the current epoch.
func (e *Engine) EpochHistory() []EpochEntry {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return append([]EpochEntry(nil), e.epochHist...)
}

// ForkLSN locates where a node still on staleEpoch forked from this
// engine's history: the start LSN of the first epoch the stale node
// never adopted. Statements the stale node applied past the fork exist
// in no current history and must be quarantined. ok is false when
// staleEpoch is not actually stale (it is the current epoch or higher).
func (e *Engine) ForkLSN(staleEpoch uint64) (fork uint64, ok bool) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	for _, ent := range e.epochHist {
		if ent.Epoch > staleEpoch {
			return ent.StartLSN, true
		}
	}
	return 0, false
}

// BumpEpoch starts the next epoch at the engine's current LSN — the
// promotion step that fences every lower-epoch primary. The new history
// is checkpointed before the bump is acknowledged (durable engines), so
// a node that told the fleet "epoch n+1 exists" can never forget it.
func (e *Engine) BumpEpoch() (uint64, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.durCheck(); err != nil {
		return 0, err
	}
	next := e.epoch.Load() + 1
	e.epochHist = append(e.epochHist, EpochEntry{Epoch: next, StartLSN: e.lsn.Load()})
	e.epoch.Store(next)
	if e.dur != nil {
		if err := e.checkpointLocked(e.dur.fs, e.dur.dir, e.dur.gen); err != nil {
			e.epochHist = e.epochHist[:len(e.epochHist)-1]
			e.epoch.Store(next - 1)
			return 0, fmt.Errorf("persisting epoch %d: %w", next, err)
		}
	}
	return next, nil
}

// AdoptEpochHistory replaces the engine's history with the primary's —
// the follower half of a handshake. The new history must be well-formed
// and must not move the engine backwards; adoption checkpoints on
// durable engines so the follower can never un-adopt after a restart.
func (e *Engine) AdoptEpochHistory(hist []EpochEntry) error {
	if err := validEpochHist(hist); err != nil {
		return err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.durCheck(); err != nil {
		return err
	}
	last := hist[len(hist)-1].Epoch
	if last < e.epoch.Load() {
		return fmt.Errorf("adopting epoch history ending at %d would regress from epoch %d", last, e.epoch.Load())
	}
	if len(hist) == len(e.epochHist) {
		same := true
		for i := range hist {
			if hist[i] != e.epochHist[i] {
				same = false
				break
			}
		}
		if same {
			return nil // re-adopting the current history: no checkpoint churn
		}
	}
	prevHist, prevEpoch := e.epochHist, e.epoch.Load()
	e.epochHist = append([]EpochEntry(nil), hist...)
	e.epoch.Store(last)
	if e.dur != nil {
		if err := e.checkpointLocked(e.dur.fs, e.dur.dir, e.dur.gen); err != nil {
			e.epochHist = prevHist
			e.epoch.Store(prevEpoch)
			return fmt.Errorf("persisting adopted epoch %d: %w", last, err)
		}
	}
	return nil
}

// validEpochHist checks shape: non-empty, epochs strictly increasing,
// start LSNs non-decreasing.
func validEpochHist(hist []EpochEntry) error {
	if len(hist) == 0 {
		return fmt.Errorf("empty epoch history")
	}
	for i := 1; i < len(hist); i++ {
		if hist[i].Epoch <= hist[i-1].Epoch || hist[i].StartLSN < hist[i-1].StartLSN {
			return fmt.Errorf("malformed epoch history: entry %d (%d@%d) after (%d@%d)",
				i, hist[i].Epoch, hist[i].StartLSN, hist[i-1].Epoch, hist[i-1].StartLSN)
		}
	}
	return nil
}

// SetRoleReadOnly fences (or unfences) the whole engine: with the role
// read-only, every session's mutating statements fail with ErrReadOnly
// regardless of when the session was opened — demotion must stop
// in-flight connections, not just future ones. Applier sessions
// (SetApplier) bypass the fence so a demoted node can still follow the
// new primary.
func (e *Engine) SetRoleReadOnly(on bool) { e.roleReadOnly.Store(on) }

// noteOriginWrite counts one locally originated (non-applier) mutation
// under the current epoch; see OriginWritesByEpoch.
func (e *Engine) noteOriginWrite() {
	ep := e.epoch.Load()
	e.originMu.Lock()
	if e.originEpochWrites == nil {
		e.originEpochWrites = make(map[uint64]uint64)
	}
	e.originEpochWrites[ep]++
	e.originMu.Unlock()
}

// OriginWritesByEpoch returns how many mutations this node itself
// accepted (replication appliers excluded) in each epoch. Two nodes
// both reporting origin writes in the same epoch is split brain — the
// chaos harness's dual-primary check reads exactly this.
func (e *Engine) OriginWritesByEpoch() map[uint64]uint64 {
	e.originMu.Lock()
	defer e.originMu.Unlock()
	out := make(map[uint64]uint64, len(e.originEpochWrites))
	for ep, n := range e.originEpochWrites {
		out[ep] = n
	}
	return out
}

// renderEpochHist serializes the history for the EPOCH snapshot file.
func renderEpochHist(hist []EpochEntry) []byte {
	var b strings.Builder
	for _, ent := range hist {
		fmt.Fprintf(&b, "%d %d\n", ent.Epoch, ent.StartLSN)
	}
	return []byte(b.String())
}

// parseEpochHist parses an EPOCH file; a malformed file is an error (the
// MANIFEST already vouched for the bytes, so damage here means a bug).
func parseEpochHist(data []byte) ([]EpochEntry, error) {
	var hist []EpochEntry
	for _, line := range strings.Split(string(data), "\n") {
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		if len(fields) != 2 {
			return nil, fmt.Errorf("malformed EPOCH line %q", line)
		}
		epoch, err1 := strconv.ParseUint(fields[0], 10, 64)
		start, err2 := strconv.ParseUint(fields[1], 10, 64)
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("malformed EPOCH line %q", line)
		}
		hist = append(hist, EpochEntry{Epoch: epoch, StartLSN: start})
	}
	if err := validEpochHist(hist); err != nil {
		return nil, err
	}
	return hist, nil
}

// readSnapEpoch reads a snapshot's EPOCH file. A malformed file fails
// the open; verifyManifest has already refused a generation without one.
func readSnapEpoch(fs faultfs.FS, snapDir string) ([]EpochEntry, error) {
	data, err := fs.ReadFile(filepath.Join(snapDir, epochName))
	if err != nil {
		return nil, err
	}
	return parseEpochHist(data)
}

// QuarantineDiverged preserves every statement this engine applied past
// fork before the caller discards them by installing the new leader's
// snapshot — an acked write is never silently dropped, it is moved
// where an operator can find it. The quarantine lands inside the
// durable directory as diverged-GGGGGG/:
//
//	DIVERGED.log   the WAL-format suffix of statements past fork that
//	               the current generation's log still isolates
//	state/         a full dump of the in-memory state in the Save
//	               layout (Load reads it), when the committed snapshot
//	               itself already embodies statements past fork (a
//	               restart folded the WAL, so the suffix alone cannot
//	               be isolated)
//	INFO           fork, final LSN, and epoch, for the runbook
//
// Checkpoints reclaim only snap-/wal- names, so quarantines survive
// until an operator removes them. Returns the quarantine directory, or
// "" when the engine holds nothing past fork or has no durable
// directory to preserve into.
func (e *Engine) QuarantineDiverged(fork uint64) (string, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.lsn.Load() <= fork || e.dur == nil {
		return "", nil
	}
	if err := e.durCheck(); err != nil {
		return "", err
	}
	if err := e.drainCommits(); err != nil {
		return "", fmt.Errorf("journaling staged statements: %w", err)
	}
	dfs, dir, gen := e.dur.fs, e.dur.dir, e.dur.gen
	base := e.snapBase.Load()
	qdir := filepath.Join(dir, fmt.Sprintf("diverged-%06d", gen))
	if err := dfs.RemoveAll(qdir); err != nil {
		return "", err
	}
	if err := dfs.MkdirAll(qdir, 0o755); err != nil {
		return "", err
	}

	// The current generation's WAL holds base+1..lsn; copy the part past
	// fork into the quarantine log.
	var stmts []string
	if _, err := wal.Replay(dfs, filepath.Join(dir, walName(gen)), func(i int, stmt string) error {
		if base+uint64(i)+1 > fork {
			stmts = append(stmts, stmt)
		}
		return nil
	}); err != nil {
		return "", err
	}
	if len(stmts) > 0 {
		ql, err := wal.Create(dfs, filepath.Join(qdir, "DIVERGED.log"))
		if err != nil {
			return "", err
		}
		if err := ql.AppendBatch(stmts); err != nil {
			ql.Close()
			return "", err
		}
		if err := ql.Close(); err != nil {
			return "", err
		}
	}

	// Statements fork+1..base are folded into the committed snapshot and
	// cannot be isolated as text; preserve the whole state instead, in
	// the Save layout (Load reads it back).
	if base > fork {
		if err := e.head.Load().save(dfs, filepath.Join(qdir, "state")); err != nil {
			return "", err
		}
	}

	info := fmt.Sprintf("fork %d\nlsn %d\nepoch %d\n", fork, e.lsn.Load(), e.epoch.Load())
	if err := writeFileSync(dfs, filepath.Join(qdir, "INFO"), []byte(info)); err != nil {
		return "", err
	}
	if err := dfs.SyncDir(qdir); err != nil {
		return "", err
	}
	if err := dfs.SyncDir(dir); err != nil {
		return "", err
	}
	e.met.Counter("authdb_repl_diverged_quarantines_total").Inc()
	return qdir, nil
}
