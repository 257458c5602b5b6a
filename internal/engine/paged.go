// Paged-storage attachment (DESIGN.md §16). The in-memory MVCC versions
// stay the evaluation representation; when the paged backend is on, a
// storage.Store mirrors every mutating statement write-through (under
// the same critical section that journals it), and checkpoints flush
// only the store's dirty pages plus a tiny ROOT file instead of
// rewriting the whole database. A snapshot generation containing a ROOT
// file is paged; one containing schema/data CSVs is the memory layout —
// opening converts between them according to the requested backend, so
// both coexist behind one directory format and the WAL + CURRENT +
// epoch + replication protocols are byte-identical across backends.
package engine

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"

	"authdb/internal/core"
	"authdb/internal/faultfs"
	"authdb/internal/parser"
	"authdb/internal/relation"
	"authdb/internal/storage"
	"authdb/internal/value"
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

// pageApply mirrors one applied mutating statement into the page store.
// Callers hold e.mu and run before the statement is staged for the WAL,
// so store order equals log order. While a rebuild is pending (backend
// conversion, snapshot adoption) the store's trees are about to be
// repopulated from the in-memory head wholesale, so write-through is
// skipped. Errors are fail-stop: the caller marks the engine broken,
// exactly like a WAL append failure, so a drifted store can never be
// committed by a later checkpoint (every checkpoint caller is
// durCheck-guarded).
func (e *Engine) pageApply(p parser.Stmt) error {
	ps := e.pstore
	if ps == nil || ps.NeedsRebuild() {
		return nil
	}
	text, err := parser.Render(p)
	if err != nil {
		return err
	}
	switch p := p.(type) {
	case parser.CreateRelation:
		return ps.CreateRelation(p.Name, len(p.Attrs), text)
	case parser.Insert:
		return ps.InsertTuple(p.Rel, p.Values)
	case parser.Delete:
		// The in-memory relation was already mutated but the store was
		// not, so re-deriving the predicate selects the same victims.
		pred, err := deletePredicate(e.wsch, p)
		if err != nil {
			return err
		}
		attr, val, hinted := deleteEqHint(e.wsch, p)
		if !hinted {
			attr = -1
		}
		_, err = ps.DeleteWhere(p.Rel, func(vs []value.Value) bool {
			return pred(relation.Tuple(vs))
		}, attr, val)
		return err
	case parser.ViewStmt:
		return ps.PutView(p.Def.Name, text)
	case parser.DropView:
		return ps.DropView(p.Name)
	case parser.Permit:
		return ps.PutPermit(p.User, p.View, text)
	case parser.Revoke:
		return ps.DropPermit(p.User, p.View)
	}
	return nil
}

// deleteEqHint extracts an attribute = constant condition from a delete
// so the store can narrow the victim scan through that attribute's
// secondary index.
func deleteEqHint(sch *relation.DBSchema, p parser.Delete) (int, value.Value, bool) {
	rs := sch.Lookup(p.Rel)
	if rs == nil {
		return 0, value.Value{}, false
	}
	for _, c := range p.Where {
		if c.Op != value.EQ || c.R.IsCol || relation.BaseOfAlias(c.L.Alias) != p.Rel {
			continue
		}
		if i := rs.AttrIndex(c.L.Attr); i >= 0 {
			return i, c.R.Const, true
		}
	}
	return 0, value.Value{}, false
}

// renderRelationStmt renders a relation scheme as its defining
// statement (the same text snapshotFiles writes to schema.authdb).
func renderRelationStmt(rs *relation.Schema) string {
	stmt := fmt.Sprintf("relation %s (%s)", rs.Name, joinAttrs(rs.Attrs))
	if keys := rs.KeyAttrs(); len(keys) > 0 {
		stmt += fmt.Sprintf(" key (%s)", joinAttrs(keys))
	}
	return stmt + ";"
}

func joinAttrs(attrs []string) string {
	out := ""
	for i, a := range attrs {
		if i > 0 {
			out += ", "
		}
		out += a
	}
	return out
}

// rebuildPageStore repopulates the page store from the published head
// version: schemas, tuples, views, permits. Called under e.mu by the
// first checkpoint after MarkRebuild (backend conversion or replication
// snapshot adoption).
func (e *Engine) rebuildPageStore() error {
	ps := e.pstore
	v := e.head.Load()
	ps.Reset()
	for i, name := range v.sch.Names() {
		rs := v.sch.Lookup(name)
		if err := ps.CreateRelation(name, rs.Arity(), renderRelationStmt(rs)); err != nil {
			return err
		}
		for _, t := range v.rels[i].Tuples() {
			if err := ps.InsertTuple(name, t); err != nil {
				return err
			}
		}
	}
	for _, name := range v.store.ViewNames() {
		if err := ps.PutView(name, v.store.ViewDef(name).String()+";"); err != nil {
			return err
		}
	}
	for _, user := range v.store.Users() {
		for _, vw := range v.store.ViewsFor(user) {
			if err := ps.PutPermit(user, vw, fmt.Sprintf("permit %s to %s;", vw, user)); err != nil {
				return err
			}
		}
	}
	return nil
}

// loadPagedState rebuilds an engine from a paged snapshot generation:
// the catalog replays as statements (exactly like the memory layout's
// schema/views files) and tuples stream out of the primary B+Trees. The
// returned store is positioned at the committed ROOT; the caller
// attaches it (paged backend) or closes it (conversion to memory).
func loadPagedState(fs faultfs.FS, dir, snapDir string, opt core.Options, cachePages int) (*Engine, *storage.Store, error) {
	root, err := fs.ReadFile(filepath.Join(snapDir, storage.RootName))
	if err != nil {
		return nil, nil, fmt.Errorf("loading ROOT: %w", err)
	}
	ps, err := storage.Open(fs, pagesPath(dir), root, cachePages)
	if err != nil {
		return nil, nil, err
	}
	e, err := func() (*Engine, error) {
		cat, err := ps.LoadCatalog()
		if err != nil {
			return nil, err
		}
		e := New(opt)
		admin := e.NewSession("admin", true)
		for _, stmt := range cat.Schemas {
			if _, err := admin.ExecScript(stmt); err != nil {
				return nil, fmt.Errorf("replaying stored schema (%s): %w", firstLine(stmt), err)
			}
		}
		e.mu.Lock()
		for _, name := range ps.Relations() {
			vr, err := e.versioned(name)
			if err != nil {
				e.mu.Unlock()
				return nil, fmt.Errorf("stored relation %s missing from catalog schema", name)
			}
			err = ps.ScanRelation(name, func(vs []value.Value) error {
				_, err := vr.Insert(relation.Tuple(vs))
				return err
			})
			if err != nil {
				e.mu.Unlock()
				return nil, fmt.Errorf("loading %s: %w", name, err)
			}
		}
		e.publishLocked()
		e.mu.Unlock()
		for _, stmt := range cat.Views {
			if _, err := admin.ExecScript(stmt); err != nil {
				return nil, fmt.Errorf("replaying stored view (%s): %w", firstLine(stmt), err)
			}
		}
		for _, stmt := range cat.Permits {
			if _, err := admin.ExecScript(stmt); err != nil {
				return nil, fmt.Errorf("replaying stored permit (%s): %w", firstLine(stmt), err)
			}
		}
		return e, nil
	}()
	if err != nil {
		ps.Close()
		return nil, nil, err
	}
	return e, ps, nil
}
