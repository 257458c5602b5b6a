// Paged-storage attachment (DESIGN.md §16). The in-memory MVCC versions
// stay the evaluation representation and the WAL stays the one commit
// point; when the paged backend is on, a storage.Store holds one B+Tree
// of tuples per relation, and the checkpoint is the only place it
// learns about data: syncPageStore moves each tree from the revision it
// last reflected to the head's, then the checkpoint flushes only the
// dirty pages plus a tiny ROOT file and the meta-database's
// schema.authdb and views.authdb, instead of rewriting every tuple. A
// snapshot generation containing a ROOT file is paged; one containing
// data CSVs is the memory layout — opening converts between them
// according to the requested backend, so both coexist behind one
// directory format and the WAL + CURRENT + epoch + replication
// protocols are byte-identical across backends.
package engine

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"

	"authdb/internal/faultfs"
	"authdb/internal/relation"
	"authdb/internal/storage"
)

// Storage backend names for StorageConfig.Backend.
const (
	StorageMemory = "memory"
	StoragePaged  = "paged"
)

// DefaultCachePages is the buffer-cache budget when none is configured
// (4096 pages × 4KiB = 16MiB resident).
const DefaultCachePages = 4096

// StorageConfig selects the persistence backend for a durable engine.
type StorageConfig struct {
	// Backend is StorageMemory (whole-generation CSV snapshots, all
	// state resident) or StoragePaged (pager + B+Trees, incremental
	// checkpoints). Empty keeps an existing directory's committed
	// format and means StorageMemory for fresh directories.
	Backend string
	// CachePages bounds the paged backend's buffer cache in 4KiB pages;
	// 0 means DefaultCachePages.
	CachePages int
}

func (c StorageConfig) paged() bool { return c.Backend == StoragePaged }

func (c StorageConfig) cachePages() int {
	if c.CachePages > 0 {
		return c.CachePages
	}
	return DefaultCachePages
}

func (c StorageConfig) validate() error {
	switch c.Backend {
	case "", StorageMemory, StoragePaged:
		return nil
	}
	return fmt.Errorf("unknown storage backend %q (memory or paged)", c.Backend)
}

// StorageConfigFromEnv reads AUTHDB_STORAGE (memory|paged) and
// AUTHDB_CACHE_PAGES. The env hook lets every existing harness — crash
// sweep, replication e2e, chaos — run unchanged against the paged
// backend.
func StorageConfigFromEnv() StorageConfig {
	var cfg StorageConfig
	if v := os.Getenv("AUTHDB_STORAGE"); v != "" {
		cfg.Backend = v
	}
	if v := os.Getenv("AUTHDB_CACHE_PAGES"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			cfg.CachePages = n
		}
	}
	return cfg
}

// PageStats snapshots the paged backend's pager counters; all-zero on
// the memory backend.
func (e *Engine) PageStats() storage.Stats {
	if ps := e.pstore; ps != nil {
		return ps.Stats()
	}
	return storage.Stats{}
}

// StorageBackend reports which backend the engine runs ("memory" or
// "paged").
func (e *Engine) StorageBackend() string {
	if e.pstore != nil {
		return StoragePaged
	}
	return StorageMemory
}

// pagesPath is the shared page file next to the generation directories.
func pagesPath(dir string) string { return filepath.Join(dir, storage.PagesFileName) }

// syncPageStore brings every tree from the revision it last reflected
// (e.pageRevs) to the head version's and flushes the dirty pages; the
// checkpoint calls it under e.mu, before writing ROOT. Per relation:
//
//   - the same revision pointer: nothing to do (revisions are immutable);
//   - anything else: apply relation.Diff, deletes first;
//   - a relation defined since: create its tree and insert every tuple.
//
// With no recorded revisions (fresh directory, memory→paged conversion,
// ResetFromSnapshot, or a failed sync) the store is Reset and loaded
// whole. Any error forgets the recorded revisions, so the next
// checkpoint starts over from Reset; the committed ROOT's pages are
// never overwritten either way (shadow paging), so a failure here only
// fails the checkpoint, exactly as a failed CSV write does.
func (e *Engine) syncPageStore() (err error) {
	defer func() {
		if err != nil {
			e.pageRevs = nil
		}
	}()
	ps, v := e.pstore, e.head.Load()
	if e.pageRevs == nil {
		ps.Reset()
	}
	for i, name := range v.sch.Names() {
		nw := v.rels[i]
		var added, removed []relation.Tuple
		switch {
		case i >= len(e.pageRevs):
			if err := ps.CreateRelation(name, nw.Arity()); err != nil {
				return err
			}
			added = nw.Tuples()
		case e.pageRevs[i] == nw:
			continue
		default:
			added, removed = relation.Diff(e.pageRevs[i], nw)
		}
		for _, t := range removed {
			if err := ps.DeleteTuple(name, t); err != nil {
				return err
			}
		}
		for _, t := range added {
			if err := ps.InsertTuple(name, t); err != nil {
				return err
			}
		}
	}
	if _, err := ps.Flush(); err != nil {
		return fmt.Errorf("flushing pages: %w", err)
	}
	e.pageRevs = v.rels
	return nil
}

// openPageStore attaches to the shared page file at the ROOT committed
// in a paged snapshot generation.
func openPageStore(fs faultfs.FS, dir, snapDir string, cachePages int) (*storage.Store, error) {
	root, err := fs.ReadFile(filepath.Join(snapDir, storage.RootName))
	if err != nil {
		return nil, fmt.Errorf("loading ROOT: %w", err)
	}
	return storage.Open(fs, pagesPath(dir), root, cachePages)
}
