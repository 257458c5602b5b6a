package engine

import (
	"context"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"authdb/internal/core"
	"authdb/internal/faultfs"
	"authdb/internal/storage"
	"authdb/internal/value"
)

// testCachePages is the buffer-cache budget of the tests that do not
// need a tiny one.
const testCachePages = 16

// tinyCachePages is a budget the tests' working sets far exceed.
const tinyCachePages = 8

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
// backend wrote: a generation of data CSVs holding durableScenario, and
// a WAL holding four statements past it. Beside the directory are the
// state fingerprint and the fixtureAnswers that build gave.
const csvFixture = "testdata/csv-generation"

// fixtureAnswers renders two masked per-user answers over the fixture,
// one per user, each with its inferred permit statements.
func fixtureAnswers(t *testing.T, e *Engine) string {
	t.Helper()
	answer := func(user, query string) string {
		res, err := e.NewSession(user, false).Exec(query)
		if err != nil {
			t.Fatal(err)
		}
		out := renderSorted(t, res)
		for _, p := range res.Permits {
			out += p.String() + "\n"
		}
		return out
	}
	return answer("Brown", `retrieve (PROJECT.NUMBER, PROJECT.BUDGET) where PROJECT.SPONSOR = Acme`) +
		"--\n" + answer("Klein", `retrieve (EMPLOYEE.NAME, EMPLOYEE.TITLE) where EMPLOYEE.SALARY < 25000`)
}

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

// fixtureCopy copies fixture's durable directory into a fresh temporary
// directory and returns it with the state fingerprint and the
// fixtureAnswers the build that wrote the fixture gave.
func fixtureCopy(t *testing.T, fixture string) (dir, wantFP, wantAns string) {
	t.Helper()
	want := func(name string) string {
		b, err := os.ReadFile(filepath.Join(fixture, name))
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	dir = t.TempDir()
	copyDir(t, filepath.Join(fixture, "db"), dir)
	return dir, want("fingerprint.txt"), want("answers.txt")
}

// checkFixtureState holds e to a fixture's fingerprint and answers.
func checkFixtureState(t *testing.T, step string, e *Engine, wantFP, wantAns string) {
	t.Helper()
	if got := fingerprint(t, e); got != wantFP {
		t.Fatalf("%s: fingerprint differs from the fixture's:\ngot:\n%s\nwant:\n%s", step, got, wantFP)
	}
	if got := fixtureAnswers(t, e); got != wantAns {
		t.Fatalf("%s: masked answers differ from the fixture's:\ngot:\n%s\nwant:\n%s", step, got, wantAns)
	}
}

// TestPagedBackendDifferential opens csvFixture, a generation of data
// CSVs plus a WAL, and holds the page store to what the memory backend
// that wrote it answered: the state fingerprint and the masked per-user
// answers must be byte-identical. The opening checkpoint must convert
// the directory, committing a ROOT generation with no data directory,
// and a second open must read the same state back from the pages.
func TestPagedBackendDifferential(t *testing.T) {
	dir, wantFP, wantAns := fixtureCopy(t, csvFixture)
	for _, step := range []string{"converting open", "reopen"} {
		e, err := OpenDurable(dir, core.DefaultOptions(), testCachePages)
		if err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		snap := filepath.Join(dir, snapName(e.Generation()))
		if _, err := os.Stat(filepath.Join(snap, storage.RootName)); err != nil {
			t.Fatalf("%s: committed generation has no ROOT: %v", step, err)
		}
		if _, err := os.Stat(filepath.Join(snap, "data")); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("%s: committed generation has a data directory (%v)", step, err)
		}
		checkFixtureState(t, step, e, wantFP, wantAns)
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// root2Fixture is a durable directory that an earlier build wrote with
// gen.sh beside it: a pages.db of a few dozen pages holding two
// relations, some of whose tuple keys spill to overflow chains, after a
// checkpoint, deletes that freed pages and chains, and a second
// checkpoint.
const root2Fixture = "testdata/paged-root2"

// TestPagedRoot2Fixture reads a page file another build wrote: the
// opened state and the masked answers must be that build's, and must
// stay so across a checkpoint and a reopen.
func TestPagedRoot2Fixture(t *testing.T) {
	dir, wantFP, wantAns := fixtureCopy(t, root2Fixture)
	e, err := OpenDurable(dir, core.DefaultOptions(), tinyCachePages)
	if err != nil {
		t.Fatal(err)
	}
	checkFixtureState(t, "open", e, wantFP, wantAns)
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	e, err = OpenDurable(dir, core.DefaultOptions(), tinyCachePages)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	checkFixtureState(t, "reopen", e, wantFP, wantAns)
}

// TestPagedTinyCacheWorkload drives a paged engine whose resident set
// far exceeds the buffer cache: correctness must not depend on the
// budget, and the pager must actually evict.
func TestPagedTinyCacheWorkload(t *testing.T) {
	dir := t.TempDir()
	e, err := OpenDurable(dir, core.DefaultOptions(), tinyCachePages)
	if err != nil {
		t.Fatal(err)
	}
	admin := e.NewSession("admin", true)
	if _, err := admin.Exec(`relation BIG (ID, PAYLOAD) key (ID)`); err != nil {
		t.Fatal(err)
	}
	const rows = 300
	pad := strings.Repeat("x", 120)
	for i := 0; i < rows; i++ {
		stmt := fmt.Sprintf(`insert into BIG values (k%04d, "%s%04d")`, i, pad, i)
		if _, err := admin.Exec(stmt); err != nil {
			t.Fatalf("row %d: %v", i, err)
		}
		if i%100 == 50 {
			if err := e.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := admin.Exec(`delete from BIG where BIG.ID = k0042`); err != nil {
		t.Fatal(err)
	}
	st := e.PageStats()
	if st.Evictions == 0 {
		t.Fatalf("no evictions under an 8-page budget: %+v", st)
	}
	if st.Pages <= tinyCachePages {
		t.Fatalf("resident set did not exceed the cache budget: %d pages", st.Pages)
	}
	want := fingerprint(t, e)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	back, err := OpenDurable(dir, core.DefaultOptions(), tinyCachePages)
	if err != nil {
		t.Fatal(err)
	}
	defer back.Close()
	if got := fingerprint(t, back); got != want {
		t.Fatal("state differs after reopening the tiny-cache store")
	}
	res, err := back.NewSession("admin", true).Exec(`retrieve (BIG.ID)`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Relation.Len() != rows-1 {
		t.Fatalf("recovered %d rows, want %d", res.Relation.Len(), rows-1)
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

// TestPagedMetricsExposed checks the page-cache series reach the
// metrics text surface (what /metrics scrapes and `\stats` prints).
func TestPagedMetricsExposed(t *testing.T) {
	dir := t.TempDir()
	e, err := OpenDurable(dir, core.DefaultOptions(), testCachePages)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	admin := e.NewSession("admin", true)
	if _, err := admin.ExecScript(`
		relation R (A) key (A);
		insert into R values (1);
	`); err != nil {
		t.Fatal(err)
	}
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	res, err := admin.Dispatch(context.Background(), `\stats`)
	if err != nil {
		t.Fatal(err)
	}
	for _, series := range []string{
		"authdb_page_cache_hits_total",
		"authdb_page_cache_misses_total",
		"authdb_page_cache_evictions_total",
		"authdb_pages_total",
		"authdb_checkpoint_dirty_pages",
	} {
		if !strings.Contains(res.Text, series) {
			t.Fatalf("%s missing from \\stats output", series)
		}
	}
	if e.PageStats().DirtyFlush == 0 {
		t.Fatal("checkpoint flushed no dirty pages")
	}
}

// TestPagedOmitsEmptiedUser revokes a user's only view under both paths
// that reach a committed generation besides an explicit checkpoint of
// the running engine — WAL replay when the directory reopens, whose
// opening checkpoint commits the replayed revoke, and a statement
// applied to the reopened engine afterwards — then checkpoints and
// reopens: the user must be absent from the committed views.authdb, and
// `show permissions` must read the same throughout.
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
	m, err := OpenDurable(dir, core.DefaultOptions(), 0)
	if err != nil {
		t.Fatal(err)
	}
	exec(m, durableScenario...)
	exec(m, `permit VP to Ghost`, `revoke VP from Ghost`)
	want := show(m)
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	p, err := OpenDurable(dir, core.DefaultOptions(), 0)
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

	back, err := OpenDurable(dir, core.DefaultOptions(), 0)
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
// the committed schema.authdb and views.authdb byte-identical to the
// in-memory engine's meta-database.
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
		e, err := OpenDurable(dir, core.DefaultOptions(), testCachePages)
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
		meta := ref.head.Load().metaFiles()
		for _, name := range []string{"schema.authdb", "views.authdb"} {
			if got, want := string(committedFile(t, dir, e, name)), string(meta[name]); got != want {
				t.Fatalf("%s: committed %s differs:\ngot:\n%s\nwant:\n%s", step, name, got, want)
			}
		}
	}

	e := open()
	exec(e, setup)
	// Checkpoint first, so the deletes shadow committed pages.
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
	// next open replays it into the trees and checkpoints, and a second
	// open reads that checkpoint back.
	exec(e, []string{`delete from ITEM where LO < 10`})
	closeEngine(e)
	closeEngine(open())
	e = open()
	defer closeEngine(e)
	compare(e, "after the WAL-replayed delete")
}

// TestPagedRebuildCrashSweep fails each filesystem operation in turn
// while a checkpointed paged directory adopts a replication snapshot —
// the rebuild that repopulates the page store and the checkpoint that
// commits it — then reopens: the directory must hold exactly the old
// state or the new one. The rebuild must therefore never write a page
// the committed ROOT can still reach.
func TestPagedRebuildCrashSweep(t *testing.T) {
	snapshot := func(prefix string) (map[string][]byte, uint64, string) {
		src := New(core.DefaultOptions())
		script := "relation R (A, B) key (A);\n"
		for i := 0; i < 400; i++ {
			script += fmt.Sprintf("insert into R values (%s%04d, %d);\n", prefix, i, i)
		}
		if _, err := src.NewSession("admin", true).ExecScript(script); err != nil {
			t.Fatal(err)
		}
		files, lsn, _, err := src.ReplSnapshot()
		if err != nil {
			t.Fatal(err)
		}
		return files, lsn, fingerprint(t, src)
	}
	oldFiles, oldLSN, oldFP := snapshot("old")
	newFiles, newLSN, newFP := snapshot("new")

	base := t.TempDir()
	for k := 0; ; k++ {
		if k > 1000 {
			t.Fatal("sweep did not terminate; fault never stopped tripping")
		}
		dir := filepath.Join(base, fmt.Sprintf("crash-%d", k))
		fs := faultfs.NewFaulty(faultfs.OS())
		e, err := OpenDurableFS(fs, dir, core.DefaultOptions(), testCachePages)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.ResetFromSnapshot(oldFiles, oldLSN); err != nil {
			t.Fatal(err)
		}
		fs.Arm(k)
		resetErr := e.ResetFromSnapshot(newFiles, newLSN)
		tripped := fs.Tripped()
		e.Close()

		re, err := OpenDurable(dir, core.DefaultOptions(), testCachePages)
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

// renderRows renders tuples canonically, one sorted line per tuple.
func renderRows(rows [][]value.Value) string {
	lines := make([]string, len(rows))
	for i, vs := range rows {
		parts := make([]string, len(vs))
		for k, v := range vs {
			parts[k] = v.String()
		}
		lines[i] = strings.Join(parts, "|")
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// checkTreesFollowHead requires the page store to hold one tree per
// relation of the head version, each scanning to exactly that
// relation's tuples.
func checkTreesFollowHead(t *testing.T, e *Engine, step string) {
	t.Helper()
	v := e.head.Load()
	names := v.sch.Names()
	if got := e.pstore.Relations(); len(got) != len(names) {
		t.Fatalf("%s: page store holds %v, head defines %v", step, got, names)
	}
	for i, name := range names {
		var tree [][]value.Value
		if err := e.pstore.ScanRelation(name, func(vs []value.Value) error {
			tree = append(tree, vs)
			return nil
		}); err != nil {
			t.Fatalf("%s: scanning %s: %v", step, name, err)
		}
		var head [][]value.Value
		for _, tp := range v.rels[i].Tuples() {
			head = append(head, tp)
		}
		if got, want := renderRows(tree), renderRows(head); got != want {
			t.Fatalf("%s: tree %s differs from the head:\ntree:\n%s\nhead:\n%s", step, name, got, want)
		}
	}
}

// pageChurn generates seeded statements over relations R0..R3: relation
// definitions, inserts with payloads long enough to spread each tree
// over several pages, and deletes — by key (often of a row inserted
// since the last checkpoint), by range, and unqualified.
type pageChurn struct {
	rng   *rand.Rand
	rels  int
	fresh map[int][]int // keys inserted per relation since the last checkpoint
}

func (g *pageChurn) next() string {
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

// TestPageStoreFollowsHead runs seeded statement sequences on a durable
// directory with an 8-page cache, taking checkpoints, adopting snapshots
// and reopening between them, beside an in-memory engine fed the same
// statements. After every checkpoint each tree must hold exactly its
// relation's head revision, and the state must equal the reference.
func TestPageStoreFollowsHead(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		dir := t.TempDir()
		open := func() *Engine {
			t.Helper()
			e, err := OpenDurable(dir, core.DefaultOptions(), tinyCachePages)
			if err != nil {
				t.Fatalf("seed %d: open: %v", seed, err)
			}
			return e
		}
		e, ref := open(), New(core.DefaultOptions())
		var evictions uint64
		g := &pageChurn{rng: rand.New(rand.NewSource(seed)), fresh: map[int][]int{}}
		exec := func(en *Engine, stmt string) {
			t.Helper()
			if _, err := en.NewSession("admin", true).Exec(stmt); err != nil {
				t.Fatalf("seed %d: %s: %v", seed, stmt, err)
			}
		}
		check := func(step string) {
			t.Helper()
			step = fmt.Sprintf("seed %d, %s", seed, step)
			checkTreesFollowHead(t, e, step)
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
				files, lsn, _, err := ref.ReplSnapshot()
				if err != nil {
					t.Fatal(err)
				}
				if err := e.ResetFromSnapshot(files, lsn); err != nil {
					t.Fatalf("seed %d: adopting a snapshot: %v", seed, err)
				}
				check(fmt.Sprintf("snapshot adoption at op %d", op))
			case n < 10:
				evictions += e.PageStats().Evictions
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
		if evictions += e.PageStats().Evictions; evictions == 0 {
			t.Fatalf("seed %d: no evictions under an 8-page budget", seed)
		}
		e.Close()
	}

	// A page-file failure fails the checkpoint and nothing else: the old
	// generation stays committed, later writes are acknowledged from the
	// WAL, the next checkpoint reloads the store, and a reopen recovers
	// every acknowledged write.
	t.Run("page write failure", func(t *testing.T) {
		dir := t.TempDir()
		fs := faultfs.NewFaulty(faultfs.OS())
		e, err := OpenDurableFS(fs, dir, core.DefaultOptions(), tinyCachePages)
		if err != nil {
			t.Fatal(err)
		}
		ref := New(core.DefaultOptions())
		g := &pageChurn{rng: rand.New(rand.NewSource(7)), fresh: map[int][]int{}}
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
		fs.Arm(0) // the checkpoint's first write is a page of pages.db
		err = e.Checkpoint()
		if err == nil || !fs.Tripped() || !strings.Contains(err.Error(), storage.PagesFileName) {
			t.Fatalf("checkpoint with a failing page write: err %v, tripped %v", err, fs.Tripped())
		}
		fs.Disarm()
		if e.Generation() != gen {
			t.Fatalf("failed checkpoint moved the generation %d → %d", gen, e.Generation())
		}
		churn(60)
		if err := e.Checkpoint(); err != nil {
			t.Fatalf("checkpoint after the failure: %v", err)
		}
		checkTreesFollowHead(t, e, "checkpoint after the failure")

		fs.Arm(0)
		if err := e.Checkpoint(); err == nil {
			t.Fatal("second injected failure did not fail the checkpoint")
		}
		fs.Disarm()
		churn(60)
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
		back, err := OpenDurable(dir, core.DefaultOptions(), tinyCachePages)
		if err != nil {
			t.Fatal(err)
		}
		defer back.Close()
		checkTreesFollowHead(t, back, "reopen")
		if sortedFingerprint(t, back) != sortedFingerprint(t, ref) {
			t.Fatal("reopen lost acknowledged writes")
		}
	})
}

// TestClosePagedReleasesPageFile opens and closes a paged directory
// repeatedly: Close must release the page file as well as the log, so
// the process's open descriptors do not grow with the cycles.
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
		e, err := OpenDurable(dir, core.DefaultOptions(), testCachePages)
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
	e, err := OpenDurable(dir, core.DefaultOptions(), testCachePages)
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

// TestPagedRefusesVersion1Root opens a generation whose ROOT is in the
// earlier format: the open must fail and name the upgrade path.
func TestPagedRefusesVersion1Root(t *testing.T) {
	dir, snap := committedDir(t)
	rewriteSnapFile(t, snap, storage.RootName, []byte("AUTHDBROOT1\npagesize 4096\nnpages 2\nviewseq 0\ncatalog 0\ntable R 1 1 0\n"))
	back, err := OpenDurable(dir, core.DefaultOptions(), testCachePages)
	if err == nil {
		back.Close()
		t.Fatal("opened a version 1 ROOT")
	}
	for _, want := range []string{"AUTHDBROOT1", "earlier build", "-storage memory", "open it with this build"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not mention %q", err, want)
		}
	}
}

// TestOpenRejectsMalformedEpochAndLSN damages a committed generation's
// EPOCH or LSN file behind a MANIFEST that vouches for the damage: the
// open must fail rather than restart the epoch history at {1, 0} or
// the LSN count at zero. Only a missing file (a snapshot older than
// epochs or LSNs) falls back.
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
		if e, err := OpenDurable(dir, core.DefaultOptions(), testCachePages); err == nil {
			e.Close()
			t.Fatalf("%s %q: open succeeded", tc.file, tc.content)
		}
	}
}
