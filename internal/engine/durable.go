// Crash-safe persistence. A durable database directory holds immutable
// snapshot generations plus a statement write-ahead log:
//
//	CURRENT          "snap-NNNNNN\n" — the committed generation
//	pages.db         the page store: one B+Tree of tuples per relation
//	snap-NNNNNN/     one snapshot: schema.authdb, views.authdb, a ROOT
//	                 into pages.db, an LSN file recording the log
//	                 sequence number the snapshot embodies, an EPOCH
//	                 file, and a MANIFEST with the CRC-32 and size of
//	                 every file
//	wal-NNNNNN.log   statements applied after snap-NNNNNN was taken
//
// A checkpoint builds the next generation in a temp directory, fsyncs
// everything, renames it into place, creates the generation's empty WAL,
// and then — the commit point — atomically renames a new CURRENT over
// the old one. A crash anywhere leaves either the old generation fully
// committed or the new one; partially built directories are ignored and
// reclaimed by the next checkpoint.
//
// Every mutating statement is journaled to the WAL (rendered back to
// canonical statement text): its record is staged inside the critical
// section that applies it, so the log order equals the apply order, and
// written and synced after it (group commit, see commit.go). Opening
// replays the committed snapshot plus the longest valid prefix of its
// WAL — tolerating a torn or corrupt tail — and immediately
// checkpoints, so a recovered engine never appends after a torn tail.
package engine

import (
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"authdb/internal/core"
	"authdb/internal/faultfs"
	"authdb/internal/storage"
	"authdb/internal/wal"
)

const (
	currentName  = "CURRENT"
	manifestName = "MANIFEST"
)

func snapName(gen uint64) string { return fmt.Sprintf("snap-%06d", gen) }
func walName(gen uint64) string  { return fmt.Sprintf("wal-%06d.log", gen) }

// lsnName is the snapshot file recording the LSN the snapshot embodies;
// recovery continues numbering from it (see commit.go for LSN
// semantics). It lives only inside snapshot generations, never in the
// flat Save layout.
const lsnName = "LSN"

// durable is an engine's attachment to a durable database directory.
// The open WAL handle lives on the Engine (walH, under walMu) so a
// session waiting for durability can append without the engine lock;
// the fail-stop error lives on the Engine too (brokenErr, under
// commitMu).
type durable struct {
	fs  faultfs.FS
	dir string
	gen uint64
}

// OpenDurable opens (creating if necessary) a durable database
// directory: the committed snapshot is loaded, the write-ahead log's
// valid prefix is replayed, and a fresh checkpoint is taken. Directories
// saved with Save (the flat layout), and generations of data CSVs
// written by earlier builds, are converted to the page store on first
// open. cachePages bounds the page store's buffer cache in 4KiB pages;
// 0 means DefaultCachePages. The caller should Close the engine to
// release the log and page file handles.
func OpenDurable(dir string, opt core.Options, cachePages int) (*Engine, error) {
	return OpenDurableFS(faultfs.OS(), dir, opt, cachePages)
}

// OpenDurableFS is OpenDurable over an explicit filesystem; the
// fault-injection tests use it to crash persistence at every operation.
func OpenDurableFS(fs faultfs.FS, dir string, opt core.Options, cachePages int) (*Engine, error) {
	if cachePages <= 0 {
		cachePages = DefaultCachePages
	}
	if err := fs.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	lock, err := acquireDirLock(dir)
	if err != nil {
		return nil, err
	}
	e, err := openDurableFS(fs, dir, opt, cachePages)
	if err != nil {
		releaseDirLock(lock)
		return nil, err
	}
	e.dirLock = lock
	return e, nil
}

// openDurableFS loads the committed state, replays the log, and takes
// the opening checkpoint; the caller holds the directory lock. A
// committed generation holding a ROOT is read from the page store;
// one holding data CSVs, like the flat Save layout, is read from them
// into a fresh store, and the opening checkpoint commits it as a ROOT
// generation.
func openDurableFS(fs faultfs.FS, dir string, opt core.Options, cachePages int) (e *Engine, err error) {
	gen, committed, err := readCurrent(fs, dir)
	if err != nil {
		return nil, err
	}
	var ps *storage.Store
	defer func() {
		if err != nil && ps != nil {
			ps.Close()
		}
	}()
	switch {
	case committed:
		snapDir := filepath.Join(dir, snapName(gen))
		if err := verifyManifest(fs, snapDir); err != nil {
			return nil, fmt.Errorf("%s: %w", snapName(gen), err)
		}
		if pagedGeneration(fs, snapDir) {
			if ps, err = openPageStore(fs, dir, snapDir, cachePages); err != nil {
				return nil, err
			}
		}
		if e, err = loadState(fs.ReadFile, snapDir, opt, ps); err != nil {
			return nil, err
		}
		// Loading rebuilt the state by replaying rendered statements,
		// which counted LSNs of its own; reset to the number the snapshot
		// actually embodies before the WAL replay resumes the count.
		lsn, err := readSnapLSN(fs, snapDir)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", snapName(gen), err)
		}
		e.lsn.Store(lsn)
		hist, err := readSnapEpoch(fs, snapDir)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", snapName(gen), err)
		}
		if hist != nil {
			e.epochHist = hist
			e.epoch.Store(hist[len(hist)-1].Epoch)
		}
		if ps != nil {
			// The trees hold exactly the revisions just loaded; the
			// opening checkpoint moves them past what the WAL replay adds.
			e.pageRevs = e.head.Load().rels
		}
		if err := replayWAL(fs, filepath.Join(dir, walName(gen)), e); err != nil {
			return nil, err
		}
	case legacyLayout(fs, dir):
		if e, err = loadState(fs.ReadFile, dir, opt, nil); err != nil {
			return nil, err
		}
	default:
		e = New(opt)
	}
	if ps == nil {
		// A fresh directory or a CSV layout being converted: start an
		// empty store; with no revisions recorded, the opening checkpoint
		// loads it from the recovered head.
		if ps, err = storage.Create(fs, pagesPath(dir), cachePages); err != nil {
			return nil, err
		}
	}
	e.pstore = ps
	e.mu.Lock()
	defer e.mu.Unlock()
	// Recovery adjusted the LSN counter (and possibly the epoch history)
	// after the last publish; republish so the head version's LSN stamp
	// matches before the opening checkpoint renders it.
	e.publishLocked()
	if err := e.checkpointLocked(fs, dir, gen); err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	return e, nil
}

// pagedGeneration reports whether a committed snapshot generation holds
// a ROOT into the page store rather than data CSVs.
func pagedGeneration(fs faultfs.FS, snapDir string) bool {
	_, err := fs.Stat(filepath.Join(snapDir, storage.RootName))
	return err == nil
}

// readCurrent reads the committed generation from CURRENT; a missing
// file means the directory has no committed generation yet.
func readCurrent(fs faultfs.FS, dir string) (gen uint64, committed bool, err error) {
	data, err := fs.ReadFile(filepath.Join(dir, currentName))
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return 0, false, nil
		}
		return 0, false, err
	}
	name := strings.TrimSpace(string(data))
	if _, err := fmt.Sscanf(name, "snap-%d", &gen); err != nil || name != snapName(gen) {
		return 0, false, fmt.Errorf("%s: malformed content %q", currentName, name)
	}
	return gen, true, nil
}

// legacyLayout reports a flat Save directory (pre-durable format).
func legacyLayout(fs faultfs.FS, dir string) bool {
	_, err := fs.Stat(filepath.Join(dir, "schema.authdb"))
	return err == nil
}

// readSnapLSN reads a snapshot's LSN file. Snapshots taken before LSNs
// existed have none; their count restarts at zero, which is fine —
// LSNs only need to stay consistent between nodes going forward, and
// replication always transfers the position explicitly. Any other read
// error, or a malformed file, fails the open: the MANIFEST vouched for
// the bytes, so damage here is not a missing file.
func readSnapLSN(fs faultfs.FS, snapDir string) (uint64, error) {
	data, err := fs.ReadFile(filepath.Join(snapDir, lsnName))
	if errors.Is(err, os.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	if fields := strings.Fields(string(data)); len(fields) == 1 {
		if lsn, err := strconv.ParseUint(fields[0], 10, 64); err == nil {
			return lsn, nil
		}
	}
	return 0, fmt.Errorf("malformed %s file %q", lsnName, data)
}

// verifyManifest checks every snapshot file against the CRC-32 and size
// recorded when the snapshot was committed.
func verifyManifest(fs faultfs.FS, snapDir string) error {
	data, err := fs.ReadFile(filepath.Join(snapDir, manifestName))
	if err != nil {
		return fmt.Errorf("reading manifest: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.TrimSpace(line) == "" {
			continue
		}
		var sum uint32
		var size int
		var rel string
		if _, err := fmt.Sscanf(line, "%x %d %s", &sum, &size, &rel); err != nil {
			return fmt.Errorf("malformed manifest line %q", line)
		}
		b, err := fs.ReadFile(filepath.Join(snapDir, filepath.FromSlash(rel)))
		if err != nil {
			return fmt.Errorf("manifest names %s: %w", rel, err)
		}
		if len(b) != size || crc32.ChecksumIEEE(b) != sum {
			return fmt.Errorf("%s: checksum mismatch (snapshot corrupt)", rel)
		}
	}
	return nil
}

// replayWAL applies the log's valid prefix to e through an admin
// session. The engine is not yet attached to the log, so replayed
// statements are not re-journaled.
func replayWAL(fs faultfs.FS, path string, e *Engine) error {
	admin := e.NewSession("admin", true)
	_, err := wal.Replay(fs, path, func(i int, stmt string) error {
		if _, err := admin.Exec(stmt); err != nil {
			return fmt.Errorf("replaying %s record %d (%s): %w", filepath.Base(path), i+1, firstLine(stmt), err)
		}
		return nil
	})
	return err
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i] + " …"
	}
	return s
}

// Checkpoint folds the write-ahead log into a fresh snapshot generation,
// bounding recovery time. It runs automatically on OpenDurable; call it
// after bulk loads. The engine must be durable and not failed.
func (e *Engine) Checkpoint() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.dur == nil {
		return fmt.Errorf("engine has no durable directory")
	}
	if err := e.brokenNow(); err != nil {
		return fmt.Errorf("durable state failed: %w", err)
	}
	return e.checkpointLocked(e.dur.fs, e.dur.dir, e.dur.gen)
}

// checkpointLocked writes generation gen+1 and commits it. Callers hold
// e.mu. On error the previous generation stays committed and the
// engine's attachment is unchanged.
func (e *Engine) checkpointLocked(fs faultfs.FS, dir string, gen uint64) error {
	next := gen + 1
	// Flush everything staged into the old generation's WAL (publishing
	// it to the commit feed) before the log rotates out from under it.
	// New records cannot be staged while we hold e.mu.
	if err := e.drainCommits(); err != nil {
		return fmt.Errorf("journaling staged statements: %w", err)
	}
	// Bring the trees to the head and flush only the dirty pages to the
	// shared page file, then commit a generation holding the tiny ROOT
	// and the meta-database's two scripts (plus LSN/EPOCH below). The
	// store's copy-on-write discipline means the committed ROOT never
	// references an in-flight page, so the sync can fail or tear anywhere
	// and the old generation still reads cleanly.
	if err := e.syncPageStore(); err != nil {
		return fmt.Errorf("syncing page store: %w", err)
	}
	files := e.head.Load().metaFiles()
	files[storage.RootName] = e.pstore.RenderRoot()
	// The LSN file pins the statement count the snapshot embodies; it is
	// part of the generation (and its MANIFEST), not of the flat Save
	// export, which is why it is added here and not in metaFiles.
	files[lsnName] = []byte(fmt.Sprintf("%d\n", e.lsn.Load()))
	// The EPOCH file pins the fencing-epoch history the same way; see
	// epoch.go.
	files[epochName] = renderEpochHist(e.epochHist)

	// Build the snapshot in a temp directory: contents, MANIFEST, fsyncs.
	tmp := filepath.Join(dir, snapName(next)+".tmp")
	if err := fs.RemoveAll(tmp); err != nil {
		return err
	}
	if err := fs.MkdirAll(tmp, 0o755); err != nil {
		return err
	}
	var manifest strings.Builder
	for _, rel := range sortedPaths(files) {
		if err := writeFileSync(fs, filepath.Join(tmp, filepath.FromSlash(rel)), files[rel]); err != nil {
			return err
		}
		fmt.Fprintf(&manifest, "%08x %d %s\n", crc32.ChecksumIEEE(files[rel]), len(files[rel]), rel)
	}
	if err := writeFileSync(fs, filepath.Join(tmp, manifestName), []byte(manifest.String())); err != nil {
		return err
	}
	if err := fs.SyncDir(tmp); err != nil {
		return err
	}

	// Move the snapshot to its final name and start its empty WAL.
	final := filepath.Join(dir, snapName(next))
	if err := fs.RemoveAll(final); err != nil {
		return err
	}
	if err := fs.Rename(tmp, final); err != nil {
		return err
	}
	if err := fs.SyncDir(dir); err != nil {
		return err
	}
	wl, err := wal.Create(fs, filepath.Join(dir, walName(next)))
	if err != nil {
		return err
	}

	// Commit point: CURRENT flips to the new generation atomically.
	curTmp := filepath.Join(dir, currentName+".tmp")
	if err := writeFileSync(fs, curTmp, []byte(snapName(next)+"\n")); err != nil {
		wl.Close()
		return err
	}
	if err := fs.Rename(curTmp, filepath.Join(dir, currentName)); err != nil {
		wl.Close()
		return err
	}
	if err := fs.SyncDir(dir); err != nil {
		wl.Close()
		return err
	}

	// Committed. Install the new log (under walMu so a waiter never
	// sees a half-swapped handle) and reclaim the old generation (best
	// effort — leftovers are ignored and retried next checkpoint).
	e.walMu.Lock()
	if e.walH != nil {
		e.walH.Close()
	}
	e.walH = wl
	e.walMu.Unlock()
	e.dur = &durable{fs: fs, dir: dir, gen: next}
	e.snapGen.Store(next)
	e.snapBase.Store(e.lsn.Load())
	e.durableLSN.Store(e.lsn.Load())
	// Pages freed before this commit belonged to trees the old ROOT could
	// still reach; now that CURRENT points past it they are reusable.
	e.pstore.Commit()
	if gen > 0 {
		fs.RemoveAll(filepath.Join(dir, snapName(gen)))
		fs.Remove(filepath.Join(dir, walName(gen)))
	}
	return nil
}

// durCheck refuses mutations once the durable layer has failed.
// Callers hold e.mu.
func (e *Engine) durCheck() error {
	if e.dur == nil {
		return nil
	}
	if err := e.brokenNow(); err != nil {
		return fmt.Errorf("durable log failed, mutations are disabled: %w", err)
	}
	return nil
}

// Close makes everything staged durable, releases the durable log and
// page file handles, and drops the directory lock. The in-memory state
// stays readable; further mutations on a durable engine fail. Engines
// without a durable directory close trivially.
func (e *Engine) Close() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.walMu.Lock()
	defer e.walMu.Unlock()
	// A failed drain has marked the engine broken; the handles are
	// released all the same.
	err := e.flushLocked()
	// Release the directory lock even on engines already broken or
	// closed; a dead handle must never keep the directory unusable.
	if e.dirLock != nil {
		releaseDirLock(e.dirLock)
		e.dirLock = nil
	}
	if e.pstore != nil {
		// Closing an already closed store is a no-op.
		if perr := e.pstore.Close(); err == nil {
			err = perr
		}
	}
	if e.dur == nil || e.walH == nil {
		return err
	}
	if werr := e.walH.Close(); werr != nil {
		err = werr
	}
	e.setBroken(errors.New("engine closed"))
	e.walH = nil
	return err
}
