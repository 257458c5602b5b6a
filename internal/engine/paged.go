// Page-store attachment (DESIGN.md §16). The in-memory MVCC versions
// stay the evaluation representation and the WAL stays the one commit
// point; every durable engine keeps a storage.Store holding one B+Tree
// of tuples per relation, and the checkpoint is the only place it
// learns about data: syncPageStore moves each tree from the revision it
// last reflected to the head's, then the checkpoint flushes only the
// dirty pages plus a tiny ROOT file and the meta-database's
// schema.authdb and views.authdb, instead of rewriting every tuple.
// Every generation holds a ROOT; opening one without it is refused.
package engine

import (
	"fmt"
	"path/filepath"

	"authdb/internal/faultfs"
	"authdb/internal/relation"
	"authdb/internal/storage"
)

// DefaultCachePages is the buffer-cache budget when none is configured
// (4096 pages × 4KiB = 16MiB resident).
const DefaultCachePages = 4096

// PageStats snapshots the page store's pager counters; all-zero for an
// engine without a durable directory.
func (e *Engine) PageStats() storage.Stats {
	if ps := e.pstore; ps != nil {
		return ps.Stats()
	}
	return storage.Stats{}
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
// With no recorded revisions (fresh directory, a Save directory being
// converted, ResetFromSnapshot, or a failed sync) the store is Reset and
// loaded whole. Any error forgets the recorded revisions, so the next
// checkpoint starts over from Reset; the committed ROOT's pages are
// never overwritten either way (shadow paging), so a failure here only
// fails the checkpoint, exactly as a failed write of its files does.
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
// in a snapshot generation.
func openPageStore(fs faultfs.FS, dir, snapDir string, cachePages int) (*storage.Store, error) {
	root, err := fs.ReadFile(filepath.Join(snapDir, storage.RootName))
	if err != nil {
		return nil, fmt.Errorf("loading ROOT: %w", err)
	}
	return storage.Open(fs, pagesPath(dir), root, cachePages)
}
