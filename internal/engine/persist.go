package engine

import (
	"cmp"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"authdb/internal/core"
	"authdb/internal/faultfs"
	"authdb/internal/parser"
)

// render renders the immutable version as parser.Render statements in
// replay order, in four sections: relations in schema order, tuples
// relation by relation in Sorted order, views, permits. Values
// keep their kinds exactly (5 is not "5", "" is not null), so every
// engine that replays the statements holds the tuples this one holds.
func (v *dbVersion) render() (s [4][]string, err error) {
	add := func(section int, st parser.Stmt) {
		text, rerr := parser.Render(st)
		s[section], err = append(s[section], text), cmp.Or(err, rerr)
	}
	for i, name := range v.sch.Names() {
		rs := v.sch.Lookup(name)
		add(0, parser.CreateRelation{Name: rs.Name, Attrs: rs.Attrs, Key: rs.KeyAttrs()})
		for _, t := range v.rels[i].Sorted() {
			add(1, parser.Insert{Rel: name, Values: t})
		}
	}
	for _, name := range v.store.ViewNames() {
		add(2, parser.ViewStmt{Def: v.store.ViewDef(name)})
	}
	for _, user := range v.store.Users() {
		for _, vw := range v.store.ViewsFor(user) {
			add(3, parser.Permit{View: vw, User: user})
		}
	}
	return s, err
}

// dataName is the script of a snapshot's tuples, replayed between
// schema.authdb and views.authdb.
const dataName = "data.authdb"

// snapshotFiles joins render's sections into the flat layout's
// scripts: schema.authdb, data.authdb and views.authdb, where a blank
// line follows each view. Save, a durable generation, an epoch
// quarantine and the tests' state fingerprints all hold these files.
func (v *dbVersion) snapshotFiles() (map[string][]byte, error) {
	s, err := v.render()
	if err != nil {
		return nil, err
	}
	join := func(stmts []string, sep string) (out []byte) {
		for _, st := range stmts {
			out = append(append(out, st...), sep...)
		}
		return out
	}
	return map[string][]byte{
		"schema.authdb": join(s[0], ";\n"),
		dataName:        join(s[1], ";\n"),
		"views.authdb":  append(join(s[2], ";\n\n"), join(s[3], ";\n")...),
	}, nil
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
// Save is the export/import surface. A durable directory is refused:
// OpenDurable would ignore the scripts.
func (e *Engine) Save(dir string) error {
	if err := refuseDurable(dir); err != nil {
		return err
	}
	return e.head.Load().save(faultfs.OS(), dir)
}

// save writes the version's snapshotFiles into dir through fs, the way
// Save describes; epoch quarantines dump their state/ with it too.
func (v *dbVersion) save(fs faultfs.FS, dir string) error {
	files, err := v.snapshotFiles()
	if err != nil {
		return err
	}
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

// Load restores an engine saved with Save. A durable directory is
// refused: the scripts beside its CURRENT hold a stale state.
func Load(dir string, opt core.Options) (*Engine, error) {
	if err := refuseDurable(dir); err != nil {
		return nil, err
	}
	return loadState(faultfs.OS(), dir, opt)
}

// refuseDurable fails on a directory OpenDurable made (one with CURRENT).
func refuseDurable(dir string) error {
	if _, err := os.Stat(filepath.Join(dir, currentName)); err != nil {
		return nil
	}
	return fmt.Errorf("%s is a durable directory (it holds %s): open it with OpenDir (-db)", dir, currentName)
}

// errCSVLayout names the upgrade path of a state whose tuples are in the
// data/REL.csv files of earlier builds, which this one does not read.
var errCSVLayout = errors.New("its tuples are in the CSV layout of earlier builds: with a build at or before a7a3ef6, open the directory once (-db), which converts it to the page store; then, with a build at or before 99dfd3b, open it (-db) and run \\save DIR; then open DIR (-db) with this build")

// errPageLayout names the upgrade path of a generation whose tuples are
// in the page store (pages.db, named by a ROOT file) of earlier builds,
// which this one does not read.
var errPageLayout = errors.New("its tuples are in the page store of earlier builds: with a build at or before 99dfd3b, open the directory (-db) and run \\save DIR; then open DIR (-db) with this build")

// loadState rebuilds an engine from a flat state directory (the Save
// layout; also the inside of a durable snapshot generation), reading
// through fs. The three scripts replay as statements through an admin
// session: schema.authdb, then data.authdb, then views.authdb. Errors
// carry the file and, for replayed statements, the line that failed.
func loadState(fs faultfs.FS, dir string, opt core.Options) (*Engine, error) {
	e := New(opt)
	admin := e.NewSession("admin", true)
	replay := func(name string) error {
		path := filepath.Join(dir, name)
		script, err := fs.ReadFile(path)
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
	if err := replay(dataName); errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("%s has no %s: %w", dir, dataName, errCSVLayout)
	} else if err != nil {
		return nil, fmt.Errorf("loading tuples: %w", err)
	}
	if err := replay("views.authdb"); err != nil {
		return nil, fmt.Errorf("loading views: %w", err)
	}
	return e, nil
}
