package engine

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"authdb/internal/core"
	"authdb/internal/faultfs"
	"authdb/internal/parser"
	"authdb/internal/storage"
	"authdb/internal/value"
)

// metaFiles renders one database version's meta-database, keyed by
// path relative to the state directory:
//
//	schema.authdb   relation statements
//	views.authdb    view definitions and permits, in definition order
//
// Every layout keeps these two scripts; a durable generation stores the
// tuples in its page file instead of snapshotFiles' data.authdb. The
// version is immutable, so no lock is needed.
func (v *dbVersion) metaFiles() map[string][]byte {
	var schema strings.Builder
	for _, name := range v.sch.Names() {
		rs := v.sch.Lookup(name)
		fmt.Fprintf(&schema, "relation %s (%s)", rs.Name, strings.Join(rs.Attrs, ", "))
		if keys := rs.KeyAttrs(); len(keys) > 0 {
			fmt.Fprintf(&schema, " key (%s)", strings.Join(keys, ", "))
		}
		schema.WriteString(";\n")
	}

	var views strings.Builder
	for _, name := range v.store.ViewNames() {
		views.WriteString(v.store.ViewDef(name).String())
		views.WriteString(";\n\n")
	}
	for _, user := range v.store.Users() {
		for _, vw := range v.store.ViewsFor(user) {
			fmt.Fprintf(&views, "permit %s to %s;\n", vw, user)
		}
	}
	return map[string][]byte{
		"schema.authdb": []byte(schema.String()),
		"views.authdb":  []byte(views.String()),
	}
}

// dataName is the script of a snapshot's tuples, replayed between
// schema.authdb and views.authdb.
const dataName = "data.authdb"

// snapshotFiles renders one database version as metaFiles plus
// data.authdb: one insert statement per tuple, relation by relation in
// schema order, tuples in Sorted order. Statements keep value kinds
// exactly (5 is not "5", "" is not null), so every node that loads the
// files holds the tuples this one holds. The same rendering backs the
// flat Save layout, replication snapshots, epoch quarantines, and the
// crash-recovery tests' state fingerprints.
func (v *dbVersion) snapshotFiles() (map[string][]byte, error) {
	files := v.metaFiles()
	var data strings.Builder
	for i, name := range v.sch.Names() {
		for _, t := range v.rels[i].Sorted() {
			stmt, err := parser.Render(parser.Insert{Rel: name, Values: t})
			if err != nil {
				return nil, fmt.Errorf("rendering %s: %w", name, err)
			}
			data.WriteString(stmt)
			data.WriteString(";\n")
		}
	}
	files[dataName] = []byte(data.String())
	return files, nil
}

// snapshotFiles renders the head version. Writers that need the state
// they just built (epoch quarantine) call this after
// publishLocked, so the head is exactly their state; readers get
// whatever version is current at the atomic load.
func (e *Engine) snapshotFiles() (map[string][]byte, error) {
	return e.head.Load().snapshotFiles()
}

// sortedPaths returns the file map's keys in deterministic order.
func sortedPaths(files map[string][]byte) []string {
	out := make([]string, 0, len(files))
	for p := range files {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// writeFileSync writes path in one shot and fsyncs it; the file's
// directory entry still needs a SyncDir to be durable.
func writeFileSync(fs faultfs.FS, path string, data []byte) error {
	f, err := fs.Create(path)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeFileAtomic writes path via a sibling temp file, fsyncs, and
// renames into place, so a crash leaves either the old content or the
// new, never a torn file.
func writeFileAtomic(fs faultfs.FS, path string, data []byte) error {
	tmp := path + ".tmp"
	if err := writeFileSync(fs, tmp, data); err != nil {
		return err
	}
	if err := fs.Rename(tmp, path); err != nil {
		return err
	}
	return fs.SyncDir(filepath.Dir(path))
}

// Save writes the engine's complete state into dir in the flat layout
// (schema.authdb, data.authdb, views.authdb: statement scripts that
// keep value kinds exactly). Every file is written atomically (temp
// file + fsync + rename); the directory is created if missing and
// existing files are replaced. Load restores an equivalent engine. For
// crash atomicity across the whole file set, use OpenDurable instead —
// Save is the export/import surface.
func (e *Engine) Save(dir string) error {
	files, err := e.snapshotFiles()
	if err != nil {
		return err
	}
	fs := faultfs.OS()
	if err := fs.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, rel := range sortedPaths(files) {
		if err := writeFileAtomic(fs, filepath.Join(dir, rel), files[rel]); err != nil {
			return fmt.Errorf("saving %s: %w", rel, err)
		}
	}
	return nil
}

// Load restores an engine saved with Save.
func Load(dir string, opt core.Options) (*Engine, error) {
	return loadState(faultfs.OS().ReadFile, dir, opt, nil)
}

// errCSVLayout names the upgrade path of a state whose tuples are in the
// data/REL.csv files of earlier builds, which this one does not read.
var errCSVLayout = errors.New("its tuples are in the CSV layout of earlier builds: open the directory once as a durable directory (-db) with a build at or before a7a3ef6, which converts it to the page store, then open it the same way with this build")

// loadState rebuilds an engine from a flat state directory (the Save
// layout; also the inside of a durable snapshot generation), reading
// through readFile. The three scripts replay as statements through an
// admin session — schema.authdb, then data.authdb, then views.authdb —
// except that a generation with a page store (ps set) takes its tuples
// from ps's trees instead of data.authdb. Errors carry the file and, for
// replayed statements, the line that failed.
func loadState(readFile func(string) ([]byte, error), dir string, opt core.Options, ps *storage.Store) (*Engine, error) {
	e := New(opt)
	admin := e.NewSession("admin", true)
	replay := func(name string) error {
		path := filepath.Join(dir, name)
		script, err := readFile(path)
		if err != nil {
			return err
		}
		if _, err := admin.ExecScript(string(script)); err != nil {
			return fmt.Errorf("replaying %s: %w", path, err)
		}
		return nil
	}
	if err := replay("schema.authdb"); err != nil {
		return nil, fmt.Errorf("loading schema: %w", err)
	}
	if ps == nil {
		if err := replay(dataName); errors.Is(err, os.ErrNotExist) {
			return nil, fmt.Errorf("%s has no %s: %w", dir, dataName, errCSVLayout)
		} else if err != nil {
			return nil, fmt.Errorf("loading tuples: %w", err)
		}
	} else if err := loadPages(e, ps); err != nil {
		return nil, err
	}
	if err := replay("views.authdb"); err != nil {
		return nil, fmt.Errorf("loading views: %w", err)
	}
	return e, nil
}

// errUnrepresentable refuses a page-store value an earlier build read from CSV.
var errUnrepresentable = errors.New("holds null or a string containing a double quote, which no statement can carry (earlier builds read both from CSV): with a build at or before a7a3ef6, delete or rewrite the tuples that hold one, open the directory once more with that build so its opening checkpoint writes the change to pages, then open it with this build")

// loadPages inserts the tuples of ps's trees into e's relations, which
// the replayed schema.authdb defined, refusing a value with no literal form.
func loadPages(e *Engine, ps *storage.Store) error {
	names := e.wsch.Names()
	if n := len(ps.Relations()); n != len(names) {
		return fmt.Errorf("page store holds %d relations, schema.authdb defines %d", n, len(names))
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	for i, name := range names {
		if arity, err := ps.Arity(name); err != nil || arity != e.vrels[i].Arity() {
			return fmt.Errorf("loading %s: page store does not hold %s with %d attributes", name, name, e.vrels[i].Arity())
		}
		if err := ps.ScanRelation(name, func(vs []value.Value) error {
			for j, v := range vs {
				if !value.Representable(v) {
					return fmt.Errorf("attribute %s of a tuple %w", e.wsch.Lookup(name).Attrs[j], errUnrepresentable)
				}
			}
			_, err := e.vrels[i].Insert(vs)
			return err
		}); err != nil {
			return fmt.Errorf("loading %s: %w", name, err)
		}
	}
	e.publishLocked()
	return nil
}
