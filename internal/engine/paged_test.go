package engine

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"authdb/internal/core"
)

var pagedCfg = StorageConfig{Backend: StoragePaged, CachePages: 16}

// renderSorted serializes a retrieve's delivered relation in canonical
// order for byte-identical comparison across backends.
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

// TestPagedBackendDifferential converts a directory memory → paged →
// memory, checking at every step that the full state fingerprint and a
// masked per-user answer are byte-identical: the storage backend must be
// invisible to the algebra and the authorization model.
func TestPagedBackendDifferential(t *testing.T) {
	dir := t.TempDir()
	e, err := OpenDurableStorage(dir, core.DefaultOptions(), StorageConfig{})
	if err != nil {
		t.Fatal(err)
	}
	admin := e.NewSession("admin", true)
	for _, stmt := range durableScenario {
		if _, err := admin.Exec(stmt); err != nil {
			t.Fatalf("%s: %v", stmt, err)
		}
	}
	wantFP, wantAns := fingerprint(t, e), brownAnswer(t, e)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	// Convert to paged: the opening checkpoint rebuilds the page store
	// from the recovered head and commits a ROOT generation.
	p, err := OpenDurableStorage(dir, core.DefaultOptions(), pagedCfg)
	if err != nil {
		t.Fatal(err)
	}
	if p.StorageBackend() != StoragePaged {
		t.Fatalf("backend = %s, want paged", p.StorageBackend())
	}
	if got := fingerprint(t, p); got != wantFP {
		t.Fatalf("fingerprint differs after memory->paged conversion:\ngot:\n%s\nwant:\n%s", got, wantFP)
	}
	if got := brownAnswer(t, p); got != wantAns {
		t.Fatalf("masked answer differs after conversion: %q != %q", got, wantAns)
	}
	// Mutate under the paged backend, then round-trip paged -> paged.
	if _, err := p.NewSession("admin", true).Exec(`insert into PROJECT values (cd-77, Apex, 130000)`); err != nil {
		t.Fatal(err)
	}
	wantFP, wantAns = fingerprint(t, p), brownAnswer(t, p)
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	p2, err := OpenDurableStorage(dir, core.DefaultOptions(), pagedCfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := fingerprint(t, p2); got != wantFP {
		t.Fatalf("fingerprint differs after paged reopen:\ngot:\n%s\nwant:\n%s", got, wantFP)
	}
	if err := p2.Close(); err != nil {
		t.Fatal(err)
	}

	// An empty config is sticky: it adopts the committed generation's
	// format instead of converting it.
	s, err := OpenDurableStorage(dir, core.DefaultOptions(), StorageConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if s.StorageBackend() != StoragePaged {
		t.Fatalf("backend = %s, want paged (empty config keeps the on-disk format)", s.StorageBackend())
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Convert back to memory explicitly; the CSV generation must carry
	// everything.
	m, err := OpenDurableStorage(dir, core.DefaultOptions(), StorageConfig{Backend: StorageMemory})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if m.StorageBackend() != StorageMemory {
		t.Fatalf("backend = %s, want memory", m.StorageBackend())
	}
	if got := fingerprint(t, m); got != wantFP {
		t.Fatalf("fingerprint differs after paged->memory conversion:\ngot:\n%s\nwant:\n%s", got, wantFP)
	}
	if got := brownAnswer(t, m); got != wantAns {
		t.Fatalf("masked answer differs after conversion back: %q != %q", got, wantAns)
	}
}

// TestPagedTinyCacheWorkload drives a paged engine whose resident set
// far exceeds the buffer cache: correctness must not depend on the
// budget, and the pager must actually evict.
func TestPagedTinyCacheWorkload(t *testing.T) {
	dir := t.TempDir()
	cfg := StorageConfig{Backend: StoragePaged, CachePages: 8}
	e, err := OpenDurableStorage(dir, core.DefaultOptions(), cfg)
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
	if st.Pages <= uint32(cfg.CachePages) {
		t.Fatalf("resident set did not exceed the cache budget: %d pages", st.Pages)
	}
	want := fingerprint(t, e)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	back, err := OpenDurableStorage(dir, core.DefaultOptions(), cfg)
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
	e, err := OpenDurableStorage(dir, core.DefaultOptions(), pagedCfg)
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
// that write the paged catalog — the rebuild when a memory directory
// converts, and write-through afterwards — then checkpoints and reopens:
// the user must be absent from the stored permits, and `show
// permissions` must read the same throughout.
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
	checkCatalog := func(e *Engine, ghost string) {
		t.Helper()
		cat, err := e.pstore.LoadCatalog()
		if err != nil {
			t.Fatal(err)
		}
		if len(cat.Permits) == 0 {
			t.Fatal("no permits stored")
		}
		for _, p := range cat.Permits {
			if strings.Contains(p, ghost) {
				t.Fatalf("stored permits name the emptied user %s: %v", ghost, cat.Permits)
			}
		}
	}

	m, err := OpenDurableStorage(dir, core.DefaultOptions(), StorageConfig{})
	if err != nil {
		t.Fatal(err)
	}
	exec(m, durableScenario...)
	exec(m, `permit VP to Ghost`, `revoke VP from Ghost`)
	want := show(m)
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	p, err := OpenDurableStorage(dir, core.DefaultOptions(), pagedCfg)
	if err != nil {
		t.Fatal(err)
	}
	checkCatalog(p, "Ghost")
	if got := show(p); got != want {
		t.Fatalf("show permissions after conversion:\n%s\nbefore:\n%s", got, want)
	}
	exec(p, `permit VP to Wraith`, `revoke VP from Wraith`)
	if err := p.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	checkCatalog(p, "Wraith")
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	back, err := OpenDurableStorage(dir, core.DefaultOptions(), pagedCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer back.Close()
	if got := show(back); got != want {
		t.Fatalf("show permissions after paged reopen:\n%s\nbefore:\n%s", got, want)
	}
}
