package engine

import (
	"bytes"
	"fmt"
	"path/filepath"
	"sort"
	"strings"

	"authdb/internal/core"
	"authdb/internal/faultfs"
	"authdb/internal/relation"
	"authdb/internal/storage"
	"authdb/internal/value"
)

// metaFiles renders one database version's meta-database, keyed by
// slash-separated path relative to the save directory:
//
//	schema.authdb   relation statements
//	views.authdb    view definitions and permits, in definition order
//
// Every layout keeps these two scripts; a durable generation stores the
// tuples in its page file instead of snapshotFiles' CSVs. The version is
// immutable, so no lock is needed.
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

// snapshotFiles renders one database version as metaFiles plus
// data/REL.csv, one CSV per base relation. The same rendering backs the
// flat Save layout, replication snapshots, epoch quarantines, and the
// crash-recovery tests' state fingerprints.
func (v *dbVersion) snapshotFiles() (map[string][]byte, error) {
	files := v.metaFiles()
	for i, name := range v.sch.Names() {
		var buf bytes.Buffer
		if err := v.rels[i].WriteCSV(&buf); err != nil {
			return nil, fmt.Errorf("rendering %s: %w", name, err)
		}
		files["data/"+name+".csv"] = buf.Bytes()
	}
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
// (schema.authdb, views.authdb, data/REL.csv). Every file is written
// atomically (temp file + fsync + rename); the directory is created if
// missing and existing files are replaced. Load restores an equivalent
// engine. For crash atomicity across the whole file set, use OpenDurable
// instead — Save is the export/import surface.
func (e *Engine) Save(dir string) error {
	files, err := e.snapshotFiles()
	if err != nil {
		return err
	}
	fs := faultfs.OS()
	if err := fs.MkdirAll(filepath.Join(dir, "data"), 0o755); err != nil {
		return err
	}
	for _, rel := range sortedPaths(files) {
		path := filepath.Join(dir, filepath.FromSlash(rel))
		if err := writeFileAtomic(fs, path, files[rel]); err != nil {
			return fmt.Errorf("saving %s: %w", rel, err)
		}
	}
	return nil
}

// Load restores an engine saved with Save.
func Load(dir string, opt core.Options) (*Engine, error) {
	return loadState(faultfs.OS().ReadFile, dir, opt, nil)
}

// loadState rebuilds an engine from a flat state directory (the Save
// layout; also the inside of a durable snapshot generation), reading
// through readFile. Both layouts replay schema.authdb and views.authdb as
// statements; the tuples between them come from ps's trees when the
// generation holds a ROOT, else from data/REL.csv. Errors carry the file
// and, for replayed statements, the line that failed.
func loadState(readFile func(string) ([]byte, error), dir string, opt core.Options, ps *storage.Store) (*Engine, error) {
	e := New(opt)
	admin := e.NewSession("admin", true)

	schemaPath := filepath.Join(dir, "schema.authdb")
	schema, err := readFile(schemaPath)
	if err != nil {
		return nil, fmt.Errorf("loading schema: %w", err)
	}
	if _, err := admin.ExecScript(string(schema)); err != nil {
		return nil, fmt.Errorf("replaying %s: %w", schemaPath, err)
	}

	names := e.wsch.Names()
	if ps != nil {
		if n := len(ps.Relations()); n != len(names) {
			return nil, fmt.Errorf("page store holds %d relations, %s defines %d", n, schemaPath, len(names))
		}
	}
	e.mu.Lock()
	for i, name := range names {
		if err := loadTuples(readFile, dir, ps, e.wsch.Lookup(name), e.vrels[i]); err != nil {
			e.mu.Unlock()
			return nil, fmt.Errorf("loading %s: %w", name, err)
		}
	}
	e.publishLocked()
	e.mu.Unlock()

	viewsPath := filepath.Join(dir, "views.authdb")
	views, err := readFile(viewsPath)
	if err != nil {
		return nil, fmt.Errorf("loading views: %w", err)
	}
	if _, err := admin.ExecScript(string(views)); err != nil {
		return nil, fmt.Errorf("replaying %s: %w", viewsPath, err)
	}
	return e, nil
}

// loadTuples inserts relation rs's stored tuples into vr: from ps's tree
// when ps is set, else from dir's data/REL.csv.
func loadTuples(readFile func(string) ([]byte, error), dir string, ps *storage.Store, rs *relation.Schema, vr *relation.Versioned) error {
	insert := func(t relation.Tuple) error {
		_, err := vr.Insert(t)
		return err
	}
	if ps != nil {
		if arity, err := ps.Arity(rs.Name); err != nil || arity != rs.Arity() {
			return fmt.Errorf("page store does not hold %s with %d attributes", rs.Name, rs.Arity())
		}
		return ps.ScanRelation(rs.Name, func(vs []value.Value) error { return insert(vs) })
	}
	path := filepath.Join(dir, "data", rs.Name+".csv")
	raw, err := readFile(path)
	if err != nil {
		return err
	}
	rel, err := relation.ReadCSV(bytes.NewReader(raw))
	if err != nil {
		return fmt.Errorf("parsing %s: %w", path, err)
	}
	if got, want := len(rel.Attrs), rs.Arity(); got != want {
		return fmt.Errorf("%s: csv has %d columns, scheme %d", path, got, want)
	}
	for _, t := range rel.Tuples() {
		if err := insert(t); err != nil {
			return err
		}
	}
	return nil
}
