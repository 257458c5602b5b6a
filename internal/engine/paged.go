// Paged-storage attachment (DESIGN.md §16). The in-memory MVCC versions
// stay the evaluation representation; when the paged backend is on, a
// storage.Store mirrors every inserted and deleted tuple write-through
// (under the same critical section that journals it), and checkpoints
// flush only the store's dirty pages plus a tiny ROOT file and the
// meta-database's schema.authdb and views.authdb, instead of rewriting
// every tuple. A snapshot generation containing a ROOT file is paged;
// one containing data CSVs is the memory layout — opening converts
// between them according to the requested backend, so both coexist
// behind one directory format and the WAL + CURRENT + epoch +
// replication protocols are byte-identical across backends.
package engine

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"

	"authdb/internal/faultfs"
	"authdb/internal/parser"
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

// pageApply mirrors one applied mutating statement into the page store;
// deleted holds the tuples a delete removed. Callers hold e.mu and run
// before the statement is staged for the WAL, so store order equals log
// order. Only relation definitions and tuples are stored: the
// meta-database is rendered whole at each checkpoint. While a rebuild is
// pending (backend conversion, snapshot adoption) the store's trees are
// about to be repopulated from the in-memory head wholesale, so
// write-through is skipped. Errors are fail-stop: the caller marks the
// engine broken, exactly like a WAL append failure, so a drifted store
// can never be committed by a later checkpoint (every checkpoint caller
// is durCheck-guarded).
func (e *Engine) pageApply(p parser.Stmt, deleted []relation.Tuple) error {
	ps := e.pstore
	if ps == nil || ps.NeedsRebuild() {
		return nil
	}
	switch p := p.(type) {
	case parser.CreateRelation:
		return ps.CreateRelation(p.Name, len(p.Attrs))
	case parser.Insert:
		return ps.InsertTuple(p.Rel, p.Values)
	case parser.Delete:
		for _, t := range deleted {
			if err := ps.DeleteTuple(p.Rel, t); err != nil {
				return err
			}
		}
	}
	return nil
}

// rebuildPageStore repopulates the page store's relations and tuples
// from the published head version. Called under e.mu by the first
// checkpoint after MarkRebuild (backend conversion or replication
// snapshot adoption).
func (e *Engine) rebuildPageStore() error {
	ps := e.pstore
	v := e.head.Load()
	ps.Reset()
	for i, name := range v.sch.Names() {
		if err := ps.CreateRelation(name, v.sch.Lookup(name).Arity()); err != nil {
			return err
		}
		for _, t := range v.rels[i].Tuples() {
			if err := ps.InsertTuple(name, t); err != nil {
				return err
			}
		}
	}
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
