package engine

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"authdb/internal/core"
	"authdb/internal/faultfs"
)

// durableScenario is a sequence of mutating statements covering every
// journaled statement kind, including constants that need quoting.
var durableScenario = []string{
	`relation EMPLOYEE (NAME, TITLE, SALARY) key (NAME)`,
	`insert into EMPLOYEE values (Jones, manager, 26000)`,
	`insert into EMPLOYEE values (Smith, "senior clerk", 21000)`,
	`relation PROJECT (NUMBER, SPONSOR, BUDGET) key (NUMBER)`,
	`insert into PROJECT values (bq-45, Acme, 250000)`,
	`view SAE (EMPLOYEE.NAME, EMPLOYEE.SALARY)
	   where EMPLOYEE.SALARY >= 20000`,
	`permit SAE to Brown`,
	`insert into EMPLOYEE values (Kahn, clerk, 18000)`,
	`delete from EMPLOYEE where NAME = Kahn`,
	`view VP (PROJECT.NUMBER, PROJECT.BUDGET) where PROJECT.SPONSOR = Acme`,
	`permit VP to Brown`,
	`revoke SAE from Brown`,
	`drop view SAE`,
}

// fingerprint canonically renders an engine's complete state.
func fingerprint(t *testing.T, e *Engine) string {
	t.Helper()
	files, err := e.head.Load().snapshotFiles()
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	for _, p := range sortedPaths(files) {
		fmt.Fprintf(&b, "-- %s --\n", p)
		b.Write(files[p])
	}
	return b.String()
}

// referenceStates runs the scenario fault-free and returns the
// fingerprint after the open and after each statement.
func referenceStates(t *testing.T) []string {
	t.Helper()
	dir := t.TempDir()
	e, err := OpenDurable(dir, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	states := []string{fingerprint(t, e)}
	admin := e.NewSession("admin", true)
	for _, stmt := range durableScenario {
		if _, err := admin.Exec(stmt); err != nil {
			t.Fatalf("%s: %v", stmt, err)
		}
		states = append(states, fingerprint(t, e))
	}
	return states
}

func TestDurableRoundTrip(t *testing.T) {
	dir := t.TempDir()
	e, err := OpenDurable(dir, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	admin := e.NewSession("admin", true)
	for _, stmt := range durableScenario {
		if _, err := admin.Exec(stmt); err != nil {
			t.Fatalf("%s: %v", stmt, err)
		}
	}
	want := fingerprint(t, e)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	back, err := OpenDurable(dir, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer back.Close()
	if got := fingerprint(t, back); got != want {
		t.Fatalf("state differs after reopen:\ngot:\n%s\nwant:\n%s", got, want)
	}
	// The reopened engine keeps accepting work, including the quoted
	// string journaled earlier.
	res, err := back.NewSession("admin", true).Exec(
		`retrieve (EMPLOYEE.NAME, EMPLOYEE.TITLE) where EMPLOYEE.TITLE = "senior clerk"`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Relation.Len() != 1 {
		t.Fatalf("quoted constant lost through the journal:\n%s", res.Relation)
	}
}

// TestUserDeleteReplays: recovery replays the journal as an
// administrator, who deletes every tuple a where clause matches. A
// user's delete that leaves hidden matched tuples in place must leave
// them in place after recovery too.
func TestUserDeleteReplays(t *testing.T) {
	dir := t.TempDir()
	e, err := OpenDurable(dir, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.NewSession("admin", true).ExecScript(`
		relation R (A, B, C) key (A);
		insert into R values (1, pub, g);
		insert into R values (2, pub, g);
		insert into R values (3, sec, g);
		insert into R values (4, pub, h);
		view V (R.A, R.B, R.C) where R.B = pub;
		permit V to u;
	`); err != nil {
		t.Fatal(err)
	}
	if res, err := e.NewSession("u", false).Exec(`delete from R where C = g`); err != nil || res.Text != "deleted 2 tuple(s) from R" {
		t.Fatalf("delete as u: %v, %v", res, err)
	}
	want := fingerprint(t, e)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	back, err := OpenDurable(dir, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer back.Close()
	if got := fingerprint(t, back); got != want {
		t.Fatalf("state differs after reopen:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func TestDurableCloseFailsStop(t *testing.T) {
	dir := t.TempDir()
	e, err := OpenDurable(dir, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	admin := e.NewSession("admin", true)
	if _, err := admin.Exec(`relation R (A)`); err == nil {
		t.Fatal("mutations must fail after Close")
	}
}

// TestCrashRecoverySweep kills persistence at every mutating filesystem
// operation — during the opening checkpoint (snapshot files, MANIFEST,
// CURRENT) and during every WAL append of the scenario — and checks
// that reopening the directory always recovers a consistent prefix of
// the statement history, never a torn or fabricated state.
func TestCrashRecoverySweep(t *testing.T) {
	crashSweep(t, false, false)
}

// TestCrashRecoverySweepShortWrites repeats the sweep with the tripping
// write persisting half its payload, modelling torn sector writes: a
// torn snapshot file lies in an uncommitted generation (CURRENT still
// names the old one), a torn WAL record is rejected via the record CRC.
func TestCrashRecoverySweepShortWrites(t *testing.T) {
	crashSweep(t, true, false)
}

// TestCrashRecoverySweepAsyncBatch runs the scenario from an
// async-commit session that ends in one WaitDurable, so the whole
// scenario is one WAL batch with one sync. Torn writes included, every
// kill point must recover a prefix of that batch, and the whole of it
// once WaitDurable has returned.
func TestCrashRecoverySweepAsyncBatch(t *testing.T) {
	crashSweep(t, true, true)
}

// crashSweep runs the sweep, with torn writes if short. With async, the
// scenario runs from an async-commit session and is acknowledged by one
// WaitDurable at its end.
func crashSweep(t *testing.T, short, async bool) {
	refs := referenceStates(t)
	// isPrefixState returns the latest history index whose state matches
	// fp (statements like insert-then-delete can revisit an earlier
	// state, so the same fingerprint may appear at several indices).
	isPrefixState := func(fp string) int {
		for i := len(refs) - 1; i >= 0; i-- {
			if fp == refs[i] {
				return i
			}
		}
		return -1
	}
	base := t.TempDir()
	for k := 0; ; k++ {
		if k > 10000 {
			t.Fatal("sweep did not terminate; fault never stopped tripping")
		}
		dir := filepath.Join(base, fmt.Sprintf("crash-%d", k))
		fs := faultfs.NewFaulty(faultfs.OS())
		fs.ShortWrites = short
		fs.Arm(k)

		// Run until the injected crash (or to completion).
		e, err := OpenDurableFS(fs, dir, core.DefaultOptions())
		applied := -1 // statements confirmed applied before the crash
		if err == nil {
			applied = 0
			admin := e.NewSession("admin", true)
			admin.SetAsyncCommit(async)
			for _, stmt := range durableScenario {
				if _, err := admin.Exec(stmt); err != nil {
					break
				}
				applied++
			}
			if async && e.WaitDurable(e.LSN()) != nil {
				applied = 0 // nothing async is acknowledged before the wait
			}
		}
		tripped := fs.Tripped()
		// The crashed process is gone: drop the handles it held. The
		// kernel releases a dead process's directory lock the same way,
		// so recovery never meets a stale lock.
		if e != nil {
			e.Close()
		}

		// "Reboot": recovery over the real filesystem must always
		// succeed and land on a prefix of the history.
		re, err := OpenDurable(dir, core.DefaultOptions())
		if err != nil {
			t.Fatalf("k=%d: recovery failed: %v", k, err)
		}
		got := isPrefixState(fingerprint(t, re))
		if got < 0 {
			t.Fatalf("k=%d: recovered state is not a prefix of the history", k)
		}
		if applied >= 0 && got < applied {
			t.Fatalf("k=%d: recovery lost %d acknowledged statement(s)", k, applied-got)
		}
		// The recovered engine accepts new work.
		if _, err := re.NewSession("admin", true).Exec(`relation PROBE (X)`); err != nil {
			t.Fatalf("k=%d: recovered engine rejects mutations: %v", k, err)
		}
		re.Close()

		if !tripped {
			if got < len(refs)-1 {
				t.Fatalf("k=%d: fault-free run recovered only %d/%d statements", k, got, len(refs)-1)
			}
			break // the whole scenario ran without hitting the fault
		}
	}
}

// TestDurableConvertsLegacySave opens a flat Save directory durably and
// checks the state carries over and subsequent mutations are journaled.
func TestDurableConvertsLegacySave(t *testing.T) {
	dir := t.TempDir()
	e := New(core.DefaultOptions())
	admin := e.NewSession("admin", true)
	if _, err := admin.ExecScript(`
		relation P (N, S) key (N);
		insert into P values (1, Acme);
		view V (P.N) where P.S = Acme;
		permit V to u;
	`); err != nil {
		t.Fatal(err)
	}
	if err := e.Save(dir); err != nil {
		t.Fatal(err)
	}

	d, err := OpenDurable(dir, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.NewSession("admin", true).Exec(`insert into P values (2, Apex)`); err != nil {
		t.Fatal(err)
	}
	d.Close()

	back, err := OpenDurable(dir, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer back.Close()
	r, err := back.Relation("P")
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 2 {
		t.Fatalf("converted database lost tuples:\n%s", r)
	}
}

// renderSorted serializes a retrieve's delivered relation in canonical
// order for byte-identical comparison.
func renderSorted(t *testing.T, res *Result) string {
	t.Helper()
	var b strings.Builder
	for _, tup := range res.Relation.Sorted() {
		for _, v := range tup {
			b.WriteString(v.String())
			b.WriteByte('|')
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// brownAnswer evaluates Brown's permitted query (through the full
// masking pipeline) — the per-user surface the differential compares.
func brownAnswer(t *testing.T, e *Engine) string {
	t.Helper()
	res, err := e.NewSession("Brown", false).Exec(
		`retrieve (PROJECT.NUMBER, PROJECT.BUDGET)`)
	if err != nil {
		t.Fatal(err)
	}
	return renderSorted(t, res)
}

// csvFixture is a durable directory that an earlier build's memory
// backend wrote: a generation of data CSVs, and a WAL holding four
// statements past it.
const csvFixture = "testdata/csv-generation"

// copyDir copies the regular files under src into dst.
func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestOpenRefusesCSVGeneration opens csvFixture, and a Save directory
// of the same era made from its generation's files: both hold their
// tuples in data/REL.csv, which this build does not read. Every open
// must fail, naming the upgrade path, rather than load an empty state,
// and the refused durable directory must be left as it was.
func TestOpenRefusesCSVGeneration(t *testing.T) {
	dir := t.TempDir()
	copyDir(t, filepath.Join(csvFixture, "db"), dir)
	flat := t.TempDir()
	copyDir(t, filepath.Join(csvFixture, "db", "snap-000002"), flat)
	refused := func(what string, err error) {
		t.Helper()
		if err == nil {
			t.Fatalf("%s: opened a CSV layout", what)
		}
		for _, want := range []string{"CSV layout", "a7a3ef6"} {
			if !strings.Contains(err.Error(), want) {
				t.Fatalf("%s: error %q does not mention %q", what, err, want)
			}
		}
	}
	_, err := OpenDurable(dir, core.DefaultOptions())
	refused("durable generation", err)
	_, err = OpenDurable(flat, core.DefaultOptions())
	refused("Save directory", err)
	_, err = Load(flat, core.DefaultOptions())
	refused("Load", err)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, ent := range entries {
		if ent.Name() != lockFileName { // every open takes the lock
			names = append(names, ent.Name())
		}
	}
	if got := strings.Join(names, " "); got != "CURRENT snap-000002 wal-000002.log" {
		t.Fatalf("refused directory now holds %s", got)
	}
}

// dirFiles maps every regular file under dir but the lock to its bytes.
func dirFiles(t *testing.T, dir string) map[string]string {
	t.Helper()
	out := map[string]string{}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || d.Name() == lockFileName {
			return err
		}
		b, err := os.ReadFile(path)
		out[path] = string(b)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// root2Fixture is a durable directory that an earlier build wrote with
// gen.sh beside it: a page store (pages.db, named by the generation's
// ROOT) holding two relations, after a checkpoint, deletes, and a
// second checkpoint.
const root2Fixture = "testdata/paged-root2"

// TestPagedRoot2Fixture opens root2Fixture: its tuples are in the page
// store, which this build does not read. The open must fail, naming the
// upgrade path, rather than load an empty state, and must leave every
// file of the directory byte for byte as it was.
func TestPagedRoot2Fixture(t *testing.T) {
	dir := t.TempDir()
	copyDir(t, filepath.Join(root2Fixture, "db"), dir)
	before := dirFiles(t, dir)
	e, err := OpenDurable(dir, core.DefaultOptions())
	if err == nil {
		e.Close()
		t.Fatal("opened a page-store generation")
	}
	if !errors.Is(err, errPageLayout) {
		t.Fatalf("error %q is not errPageLayout", err)
	}
	for _, want := range []string{"snap-000003", "page store", "99dfd3b", `\save DIR`} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not mention %q", err, want)
		}
	}
	if after := dirFiles(t, dir); !reflect.DeepEqual(after, before) {
		t.Fatal("the refused open changed the directory")
	}
}

// TestPagedRefusesVersion1Root puts a ROOT of the first page format into
// an otherwise whole statement generation: the ROOT alone must refuse
// the open with the upgrade path, before the scripts beside it load and
// before anything in the directory is written.
func TestPagedRefusesVersion1Root(t *testing.T) {
	dir, snap := committedDir(t)
	root := "AUTHDBROOT1\npagesize 4096\nnpages 2\nviewseq 0\ncatalog 0\ntable R 1 1 0\n"
	if err := os.WriteFile(filepath.Join(snap, "ROOT"), []byte(root), 0o644); err != nil {
		t.Fatal(err)
	}
	before := dirFiles(t, dir)
	e, err := OpenDurable(dir, core.DefaultOptions())
	if err == nil {
		e.Close()
		t.Fatal("opened a generation holding a version 1 ROOT")
	}
	if !errors.Is(err, errPageLayout) {
		t.Fatalf("error %q is not errPageLayout", err)
	}
	for _, want := range []string{filepath.Base(snap), "99dfd3b", `\save DIR`} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not mention %q", err, want)
		}
	}
	if after := dirFiles(t, dir); !reflect.DeepEqual(after, before) {
		t.Fatal("the refused open changed the directory")
	}
}

// TestSnapshotSession exercises `\begin snapshot` / `\end`: statements
// inside the block read one pinned version (concurrent commits stay
// invisible), the session's own writes re-pin so it reads its writes,
// and `\end` returns it to the live head.
func TestSnapshotSession(t *testing.T) {
	ctx := context.Background()
	e := New(core.DefaultOptions())
	admin := e.NewSession("admin", true)
	if _, err := admin.ExecScript(`
		relation R (A, B) key (A);
		insert into R values (1, one);
		view ALL (R.A, R.B);
		permit ALL to u;
	`); err != nil {
		t.Fatal(err)
	}
	u := e.NewSession("u", false)

	if _, err := u.Dispatch(ctx, `\end`); err == nil {
		t.Fatal(`\end without an open block must fail`)
	}
	res, err := u.Dispatch(ctx, `\begin snapshot`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Text, "snapshot pinned") {
		t.Fatalf("unexpected begin response %q", res.Text)
	}
	if _, err := u.Dispatch(ctx, `\begin snapshot`); err == nil {
		t.Fatal("nested begin must fail")
	}

	// A concurrent commit is invisible inside the block...
	if _, err := admin.Exec(`insert into R values (2, two)`); err != nil {
		t.Fatal(err)
	}
	got, err := u.Exec(`retrieve (R.A, R.B)`)
	if err != nil {
		t.Fatal(err)
	}
	if got.Relation.Len() != 1 {
		t.Fatalf("pinned read saw %d rows, want 1", got.Relation.Len())
	}
	// ...repeatably: the same statement reads the same version.
	got, err = u.Exec(`retrieve (R.A, R.B)`)
	if err != nil {
		t.Fatal(err)
	}
	if got.Relation.Len() != 1 {
		t.Fatalf("second pinned read saw %d rows, want 1", got.Relation.Len())
	}

	// After \end the live head (with the concurrent insert) is visible.
	if _, err := u.Dispatch(ctx, `\end`); err != nil {
		t.Fatal(err)
	}
	got, err = u.Exec(`retrieve (R.A, R.B)`)
	if err != nil {
		t.Fatal(err)
	}
	if got.Relation.Len() != 2 {
		t.Fatalf("post-end read saw %d rows, want 2", got.Relation.Len())
	}
}

// TestSnapshotSessionReadsOwnWrites checks the write path inside a
// block: an authorized update re-pins the session to the head it
// produced, so the block observes its own mutation but still not later
// foreign ones.
func TestSnapshotSessionReadsOwnWrites(t *testing.T) {
	ctx := context.Background()
	e := New(core.DefaultOptions())
	admin := e.NewSession("admin", true)
	if _, err := admin.ExecScript(`
		relation R (A, B) key (A);
		insert into R values (1, one);
	`); err != nil {
		t.Fatal(err)
	}
	if _, err := admin.Dispatch(ctx, `\begin snapshot`); err != nil {
		t.Fatal(err)
	}
	if _, err := admin.Exec(`insert into R values (2, two)`); err != nil {
		t.Fatal(err)
	}
	got, err := admin.Exec(`retrieve (R.A, R.B)`)
	if err != nil {
		t.Fatal(err)
	}
	if got.Relation.Len() != 2 {
		t.Fatalf("block does not read its own write: %d rows, want 2", got.Relation.Len())
	}
	// A foreign commit after the re-pin stays invisible.
	other := e.NewSession("admin2", true)
	if _, err := other.Exec(`insert into R values (3, three)`); err != nil {
		t.Fatal(err)
	}
	got, err = admin.Exec(`retrieve (R.A, R.B)`)
	if err != nil {
		t.Fatal(err)
	}
	if got.Relation.Len() != 2 {
		t.Fatalf("foreign commit leaked into the block: %d rows, want 2", got.Relation.Len())
	}
	if _, err := admin.Dispatch(ctx, `\end`); err != nil {
		t.Fatal(err)
	}
}

// TestPagedOmitsEmptiedUser revokes a user's only view under both paths
// that reach a committed generation besides an explicit checkpoint of
// the running engine — WAL replay when the directory reopens, whose
// opening checkpoint commits the replayed revoke, and a statement
// applied to the reopened engine afterwards — then checkpoints and
// reopens: the user must be absent from the committed views.authdb, and
// `show permissions` must read the same throughout. (The Paged names
// in this file date from the page-store backend; the tests now cover
// the statement generations that replaced it.)
func TestPagedOmitsEmptiedUser(t *testing.T) {
	dir := t.TempDir()
	show := func(e *Engine) string {
		t.Helper()
		res, err := e.NewSession("admin", true).Exec(`show permissions`)
		if err != nil {
			t.Fatal(err)
		}
		return res.Text
	}
	exec := func(e *Engine, stmts ...string) {
		t.Helper()
		for _, stmt := range stmts {
			if _, err := e.NewSession("admin", true).Exec(stmt); err != nil {
				t.Fatalf("%s: %v", stmt, err)
			}
		}
	}
	checkPermits := func(e *Engine, ghost string) {
		t.Helper()
		views := string(committedFile(t, dir, e, "views.authdb"))
		if !strings.Contains(views, "permit ") {
			t.Fatalf("no permits stored:\n%s", views)
		}
		if strings.Contains(views, ghost) {
			t.Fatalf("stored permits name the emptied user %s:\n%s", ghost, views)
		}
	}

	// Close takes no checkpoint: the revoke is in the WAL only.
	m, err := OpenDurable(dir, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	exec(m, durableScenario...)
	exec(m, `permit VP to Ghost`, `revoke VP from Ghost`)
	want := show(m)
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	p, err := OpenDurable(dir, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	checkPermits(p, "Ghost")
	if got := show(p); got != want {
		t.Fatalf("show permissions after replay:\n%s\nbefore:\n%s", got, want)
	}
	exec(p, `permit VP to Wraith`, `revoke VP from Wraith`)
	if err := p.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	checkPermits(p, "Wraith")
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	back, err := OpenDurable(dir, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer back.Close()
	if got := show(back); got != want {
		t.Fatalf("show permissions after reopening:\n%s\nbefore:\n%s", got, want)
	}
}

// committedFile reads one file of e's committed snapshot generation.
func committedFile(t *testing.T, dir string, e *Engine, name string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(dir, snapName(e.Generation()), name))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestPagedDeletesMatchMemory runs every shape of delete through a
// durable directory and an in-memory engine fed the same statements — a
// range predicate, an attribute–attribute comparison, a non-key
// equality hitting several rows, an unqualified delete, and a delete
// that only the WAL holds when the process dies — and requires the
// directory to reopen to exactly the in-memory state and answers, with
// the committed schema.authdb, data.authdb and views.authdb
// byte-identical to the in-memory engine's snapshot files.
func TestPagedDeletesMatchMemory(t *testing.T) {
	setup := append([]string(nil), durableScenario...)
	setup = append(setup, `relation ITEM (ID, GRP, LO, HI) key (ID)`, `relation SCRATCH (X)`)
	for i := 0; i < 60; i++ {
		setup = append(setup, fmt.Sprintf(`insert into ITEM values (i%02d, g%d, %d, %d)`, i, i%4, i, (i*7)%60))
	}
	for i := 0; i < 5; i++ {
		setup = append(setup, fmt.Sprintf(`insert into SCRATCH values (%d)`, i))
	}
	setup = append(setup, `view VI (ITEM.ID, ITEM.LO) where ITEM.GRP = g1`, `permit VI to Brown`)
	deletes := []string{
		`delete from ITEM where ITEM.LO >= 40 and ITEM.LO < 45`,
		`delete from ITEM where ITEM.LO > ITEM.HI`,
		`delete from ITEM where GRP = g2`,
		`delete from SCRATCH`,
	}

	dir := t.TempDir()
	ref := New(core.DefaultOptions())
	open := func() *Engine {
		t.Helper()
		e, err := OpenDurable(dir, core.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	exec := func(e *Engine, stmts []string) {
		t.Helper()
		for _, en := range []*Engine{e, ref} {
			admin := en.NewSession("admin", true)
			for _, stmt := range stmts {
				res, err := admin.Exec(stmt)
				if err != nil {
					t.Fatalf("%s: %v", stmt, err)
				}
				if strings.HasPrefix(res.Text, "deleted 0 ") {
					t.Fatalf("%s deleted nothing", stmt)
				}
			}
		}
	}
	closeEngine := func(e *Engine) {
		t.Helper()
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
	}
	answers := func(e *Engine) string {
		t.Helper()
		res, err := e.NewSession("Brown", false).Exec(`retrieve (ITEM.ID, ITEM.LO)`)
		if err != nil {
			t.Fatal(err)
		}
		return brownAnswer(t, e) + "--\n" + renderSorted(t, res)
	}
	compare := func(e *Engine, step string) {
		t.Helper()
		if got, want := fingerprint(t, e), fingerprint(t, ref); got != want {
			t.Fatalf("%s: fingerprint differs:\ngot:\n%s\nwant:\n%s", step, got, want)
		}
		if got, want := answers(e), answers(ref); got != want {
			t.Fatalf("%s: answers differ:\ngot:\n%s\nwant:\n%s", step, got, want)
		}
		files, err := ref.head.Load().snapshotFiles()
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range sortedPaths(files) {
			if got, want := string(committedFile(t, dir, e, name)), string(files[name]); got != want {
				t.Fatalf("%s: committed %s differs:\ngot:\n%s\nwant:\n%s", step, name, got, want)
			}
		}
	}

	e := open()
	exec(e, setup)
	// Checkpoint first, so the deletes remove committed tuples.
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	exec(e, deletes)
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	closeEngine(e)
	e = open()
	compare(e, "after the deletes")

	// The last delete reaches only the WAL before the process goes; the
	// next open replays it and checkpoints, and a second open reads that
	// checkpoint back.
	exec(e, []string{`delete from ITEM where LO < 10`})
	closeEngine(e)
	closeEngine(open())
	e = open()
	defer closeEngine(e)
	compare(e, "after the WAL-replayed delete")
}

// TestPagedRebuildCrashSweep fails each filesystem operation in turn
// while a checkpointed durable directory adopts a replication snapshot
// — the rebuild and the checkpoint that commits it — then reopens: the
// directory must hold exactly the old state or the new one. The
// adoption must therefore never write into the committed generation.
func TestPagedRebuildCrashSweep(t *testing.T) {
	snapshot := func(prefix string) ([]string, uint64, string) {
		src := New(core.DefaultOptions())
		script := "relation R (A, B) key (A);\n"
		for i := 0; i < 400; i++ {
			script += fmt.Sprintf("insert into R values (%s%04d, %d);\n", prefix, i, i)
		}
		if _, err := src.NewSession("admin", true).ExecScript(script); err != nil {
			t.Fatal(err)
		}
		stmts, lsn, err := src.ReplSnapshot()
		if err != nil {
			t.Fatal(err)
		}
		return stmts, lsn, fingerprint(t, src)
	}
	oldStmts, oldLSN, oldFP := snapshot("old")
	newStmts, newLSN, newFP := snapshot("new")

	base := t.TempDir()
	for k := 0; ; k++ {
		if k > 1000 {
			t.Fatal("sweep did not terminate; fault never stopped tripping")
		}
		dir := filepath.Join(base, fmt.Sprintf("crash-%d", k))
		fs := faultfs.NewFaulty(faultfs.OS())
		e, err := OpenDurableFS(fs, dir, core.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if err := e.ResetFromSnapshot(oldStmts, oldLSN, nil); err != nil {
			t.Fatal(err)
		}
		fs.Arm(k)
		resetErr := e.ResetFromSnapshot(newStmts, newLSN, nil)
		tripped := fs.Tripped()
		e.Close()

		re, err := OpenDurable(dir, core.DefaultOptions())
		if err != nil {
			t.Fatalf("k=%d: reopen failed: %v", k, err)
		}
		got := fingerprint(t, re)
		re.Close()
		if got != oldFP && got != newFP {
			t.Fatalf("k=%d: reopened state is neither the old nor the new one", k)
		}
		if !tripped {
			if resetErr != nil || got != newFP {
				t.Fatalf("k=%d: fault-free adoption: err %v, new state %v", k, resetErr, got == newFP)
			}
			break
		}
	}
}

// stmtChurn generates seeded statements over relations R0..R3: relation
// definitions, inserts with payloads of up to 600 bytes, and deletes — by key (often of a row inserted
// since the last checkpoint), by range, and unqualified.
type stmtChurn struct {
	rng   *rand.Rand
	rels  int
	fresh map[int][]int // keys inserted per relation since the last checkpoint
}

func (g *stmtChurn) next() string {
	if g.rels == 0 || (g.rels < 4 && g.rng.Intn(40) == 0) {
		g.rels++
		return fmt.Sprintf(`relation R%d (K, V, P) key (K)`, g.rels-1)
	}
	r := g.rng.Intn(g.rels)
	switch n := g.rng.Intn(20); {
	case n < 12:
		k := g.rng.Intn(400)
		g.fresh[r] = append(g.fresh[r], k)
		return fmt.Sprintf(`insert into R%d values (%d, %d, "%s")`, r, k, g.rng.Intn(10), strings.Repeat("p", g.rng.Intn(600)))
	case n < 16 && len(g.fresh[r]) > 0:
		return fmt.Sprintf(`delete from R%d where R%d.K = %d`, r, r, g.fresh[r][g.rng.Intn(len(g.fresh[r]))])
	case n < 18:
		return fmt.Sprintf(`delete from R%d where K = %d`, r, g.rng.Intn(400))
	case n < 19:
		return fmt.Sprintf(`delete from R%d where R%d.V < %d`, r, r, g.rng.Intn(3))
	default:
		return fmt.Sprintf(`delete from R%d`, r)
	}
}

// checkGenerationIsHead requires e's committed generation to hold
// exactly its head version rendered as statements.
func checkGenerationIsHead(t *testing.T, dir string, e *Engine, step string) {
	t.Helper()
	files, err := e.head.Load().snapshotFiles()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range sortedPaths(files) {
		if got := committedFile(t, dir, e, name); !bytes.Equal(got, files[name]) {
			t.Fatalf("%s: committed %s differs from the head's", step, name)
		}
	}
}

// TestReopenEqualsHead runs seeded statement sequences on a durable
// directory, taking checkpoints, adopting snapshots and reopening
// between them, beside an in-memory engine fed the same statements.
// After every checkpoint and adoption the committed generation must
// hold exactly the head, and after every step, reopens included, the
// state must equal the reference.
func TestReopenEqualsHead(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		dir := t.TempDir()
		open := func() *Engine {
			t.Helper()
			e, err := OpenDurable(dir, core.DefaultOptions())
			if err != nil {
				t.Fatalf("seed %d: open: %v", seed, err)
			}
			return e
		}
		e, ref := open(), New(core.DefaultOptions())
		g := &stmtChurn{rng: rand.New(rand.NewSource(seed)), fresh: map[int][]int{}}
		exec := func(en *Engine, stmt string) {
			t.Helper()
			if _, err := en.NewSession("admin", true).Exec(stmt); err != nil {
				t.Fatalf("seed %d: %s: %v", seed, stmt, err)
			}
		}
		check := func(step string) {
			t.Helper()
			step = fmt.Sprintf("seed %d, %s", seed, step)
			checkGenerationIsHead(t, dir, e, step)
			if sortedFingerprint(t, e) != sortedFingerprint(t, ref) {
				t.Fatalf("%s: state differs from the reference engine", step)
			}
			g.fresh = map[int][]int{}
		}
		for op := 0; op < 400; op++ {
			switch n := g.rng.Intn(100); {
			case n < 6:
				if err := e.Checkpoint(); err != nil {
					t.Fatalf("seed %d: checkpoint: %v", seed, err)
				}
				check(fmt.Sprintf("checkpoint at op %d", op))
			case n < 8:
				// Adopt a snapshot a few statements ahead of this engine.
				for i := g.rng.Intn(4); i > 0; i-- {
					exec(ref, g.next())
				}
				stmts, lsn, err := ref.ReplSnapshot()
				if err != nil {
					t.Fatal(err)
				}
				if err := e.ResetFromSnapshot(stmts, lsn, nil); err != nil {
					t.Fatalf("seed %d: adopting a snapshot: %v", seed, err)
				}
				check(fmt.Sprintf("snapshot adoption at op %d", op))
			case n < 10:
				if err := e.Close(); err != nil {
					t.Fatal(err)
				}
				e = open()
				check(fmt.Sprintf("reopen at op %d", op))
			default:
				stmt := g.next()
				exec(e, stmt)
				exec(ref, stmt)
			}
		}
		if err := e.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		check("final checkpoint")
		e.Close()
	}

	// A failed checkpoint write fails the checkpoint and nothing else:
	// the old generation stays committed, later writes are acknowledged
	// from the WAL, the next checkpoint commits them, and a reopen
	// recovers every acknowledged write.
	t.Run("checkpoint write failure", func(t *testing.T) {
		dir := t.TempDir()
		fs := faultfs.NewFaulty(faultfs.OS())
		e, err := OpenDurableFS(fs, dir, core.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		ref := New(core.DefaultOptions())
		g := &stmtChurn{rng: rand.New(rand.NewSource(7)), fresh: map[int][]int{}}
		churn := func(n int) {
			t.Helper()
			for i := 0; i < n; i++ {
				stmt := g.next()
				for _, en := range []*Engine{e, ref} {
					if _, err := en.NewSession("admin", true).Exec(stmt); err != nil {
						t.Fatalf("%s: %v", stmt, err)
					}
				}
			}
		}
		churn(120)
		if err := e.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		churn(60)
		gen := e.Generation()
		fs.Arm(0) // the checkpoint's first write clears its temp directory
		err = e.Checkpoint()
		if !errors.Is(err, faultfs.ErrInjected) || !fs.Tripped() {
			t.Fatalf("checkpoint with a failing write: err %v, tripped %v", err, fs.Tripped())
		}
		fs.Disarm()
		if e.Generation() != gen {
			t.Fatalf("failed checkpoint moved the generation %d → %d", gen, e.Generation())
		}
		churn(60)
		if err := e.Checkpoint(); err != nil {
			t.Fatalf("checkpoint after the failure: %v", err)
		}
		checkGenerationIsHead(t, dir, e, "checkpoint after the failure")

		fs.Arm(0)
		if err := e.Checkpoint(); err == nil {
			t.Fatal("second injected failure did not fail the checkpoint")
		}
		fs.Disarm()
		churn(60)
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
		back, err := OpenDurable(dir, core.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		defer back.Close()
		checkGenerationIsHead(t, dir, back, "reopen")
		if sortedFingerprint(t, back) != sortedFingerprint(t, ref) {
			t.Fatal("reopen lost acknowledged writes")
		}
	})
}

// TestClosePagedReleasesPageFile opens and closes a durable directory
// repeatedly: Close must release the WAL handle and the directory lock,
// so every cycle's open succeeds and the process's open descriptors do
// not grow with the cycles. A durable engine once held a page file as
// well, hence the name.
func TestClosePagedReleasesPageFile(t *testing.T) {
	fds := func() int {
		ents, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Skip("no /proc/self/fd to count descriptors")
		}
		return len(ents)
	}
	dir := t.TempDir()
	cycle := func() {
		t.Helper()
		e, err := OpenDurable(dir, core.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
	}
	cycle()
	before := fds()
	for i := 0; i < 20; i++ {
		cycle()
	}
	if after := fds(); after > before+2 {
		t.Fatalf("20 open/close cycles raised open descriptors %d → %d", before, after)
	}
}

// rewriteSnapFile replaces one file of a committed snapshot generation
// and re-sums its MANIFEST line, so the MANIFEST vouches for the new
// bytes and only their content is wrong.
func rewriteSnapFile(t *testing.T, snap, name string, data []byte) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(snap, name), data, 0o644); err != nil {
		t.Fatal(err)
	}
	manifest, err := os.ReadFile(filepath.Join(snap, manifestName))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(manifest), "\n")
	for i, ln := range lines {
		if strings.HasSuffix(ln, " "+name) {
			lines[i] = fmt.Sprintf("%08x %d %s", crc32.ChecksumIEEE(data), len(data), name)
		}
	}
	if err := os.WriteFile(filepath.Join(snap, manifestName), []byte(strings.Join(lines, "\n")), 0o644); err != nil {
		t.Fatal(err)
	}
}

// committedDir opens a fresh durable directory, commits a generation
// holding one relation, closes it, and returns the directory and the
// committed generation's path.
func committedDir(t *testing.T) (dir, snap string) {
	t.Helper()
	dir = t.TempDir()
	e, err := OpenDurable(dir, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.NewSession("admin", true).ExecScript("relation R (A);\ninsert into R values (1);"); err != nil {
		t.Fatal(err)
	}
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	snap = filepath.Join(dir, snapName(e.Generation()))
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	return dir, snap
}

// TestOpenRejectsMalformedEpochAndLSN damages a committed generation's
// EPOCH or LSN file behind a MANIFEST that vouches for the damage: the
// open must fail rather than restart the epoch history at {1, 0} or
// the LSN count at zero.
func TestOpenRejectsMalformedEpochAndLSN(t *testing.T) {
	for _, tc := range []struct{ file, content string }{
		{epochName, "3 40 junk\n"},
		{epochName, "1x 0\n"},
		{epochName, "1\n"},
		{epochName, "-1 0\n"},
		{epochName, ""},
		{lsnName, "12x\n"},
		{lsnName, "12 13\n"},
		{lsnName, "-3\n"},
		{lsnName, ""},
	} {
		dir, snap := committedDir(t)
		rewriteSnapFile(t, snap, tc.file, []byte(tc.content))
		if e, err := OpenDurable(dir, core.DefaultOptions()); err == nil {
			e.Close()
			t.Fatalf("%s %q: open succeeded", tc.file, tc.content)
		}
	}
}

// dropManifestLine removes name's line from a committed generation's
// MANIFEST, failing if the MANIFEST does not list it.
func dropManifestLine(t *testing.T, snap, name string) {
	t.Helper()
	manifest, err := os.ReadFile(filepath.Join(snap, manifestName))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(manifest), "\n")
	var kept []string
	for _, line := range lines {
		if !strings.HasSuffix(line, " "+name+"\n") {
			kept = append(kept, line)
		}
	}
	if len(kept) == len(lines) {
		t.Fatalf("the MANIFEST lists no %s:\n%s", name, manifest)
	}
	if err := os.WriteFile(filepath.Join(snap, manifestName), []byte(strings.Join(kept, "")), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestOpenRefusesGenerationWithoutEpochOrLSN strips EPOCH, or LSN, from
// a committed generation, from its MANIFEST and from the directory
// alike, so the MANIFEST vouches for the rest. Every generation holds
// both files, so the open must fail naming the missing one, not reopen
// at epoch 1 (unfenced) or resume the count at LSN 0.
func TestOpenRefusesGenerationWithoutEpochOrLSN(t *testing.T) {
	for _, name := range []string{epochName, lsnName} {
		dir, snap := committedDir(t)
		dropManifestLine(t, snap, name)
		if err := os.Remove(filepath.Join(snap, name)); err != nil {
			t.Fatal(err)
		}
		e, err := OpenDurable(dir, core.DefaultOptions())
		if err == nil {
			epoch, lsn := e.Epoch(), e.LSN()
			e.Close()
			t.Fatalf("without %s: opened at epoch %d, lsn %d", name, epoch, lsn)
		}
		if !strings.Contains(err.Error(), name) {
			t.Fatalf("without %s: error %q does not name the file", name, err)
		}
	}
}

// TestOpenRefusesManifestWithoutFile drops one file's line from a
// committed generation's MANIFEST and leaves the file in place: the
// open reads every one of the five, so the MANIFEST must vouch for each
// and the open must fail naming the unlisted file. For views.authdb the
// unlisted file is also rewritten to grant a view to mallory, which an
// open that checked only the listed lines would load.
func TestOpenRefusesManifestWithoutFile(t *testing.T) {
	for _, name := range []string{"schema.authdb", dataName, "views.authdb", lsnName, epochName} {
		dir, snap := committedDir(t)
		dropManifestLine(t, snap, name)
		if name == "views.authdb" {
			if err := os.WriteFile(filepath.Join(snap, name), []byte("view V (R.A);\n\npermit V to mallory;\n"), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		e, err := OpenDurable(dir, core.DefaultOptions())
		if err == nil {
			e.Close()
			t.Fatalf("opened a generation whose MANIFEST does not list %s", name)
		}
		if !strings.Contains(err.Error(), "manifest does not list "+name) {
			t.Fatalf("without %s in the MANIFEST: error %q does not name it", name, err)
		}
	}
}
