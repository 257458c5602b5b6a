package engine

import (
	"bytes"
	"fmt"
	"path/filepath"
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
	files, err := e.snapshotFiles()
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
	e, err := OpenDurable(dir, core.DefaultOptions(), 0)
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
	e, err := OpenDurable(dir, core.DefaultOptions(), 0)
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

	back, err := OpenDurable(dir, core.DefaultOptions(), 0)
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
	e, err := OpenDurable(dir, core.DefaultOptions(), 0)
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
	back, err := OpenDurable(dir, core.DefaultOptions(), 0)
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
	e, err := OpenDurable(dir, core.DefaultOptions(), 0)
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
// operation — during the opening checkpoint (page flush, ROOT, CURRENT)
// and during every WAL append of the scenario — and checks that
// reopening the directory always recovers a consistent prefix of the
// statement history, never a torn or fabricated state. It runs with the
// default buffer cache, so no page is evicted before the flush.
func TestCrashRecoverySweep(t *testing.T) {
	crashSweep(t, false, 0, false)
}

// TestCrashRecoverySweepShortWrites repeats the sweep with the tripping
// write persisting half its payload, modelling torn sector writes: a
// torn page must be rejected via the page CRC (shadow paging keeps the
// committed tree clean), a torn WAL record via the record CRC.
func TestCrashRecoverySweepShortWrites(t *testing.T) {
	crashSweep(t, true, 0, false)
}

// TestCrashRecoverySweepPaged runs the sweep with a tiny buffer cache,
// so evictions write dirty pages back while a checkpoint syncs the page
// store and the kill points land mid-page-flush as well as in the
// ROOT/CURRENT dance and the WAL.
func TestCrashRecoverySweepPaged(t *testing.T) {
	crashSweep(t, false, crashCachePages, false)
}

// TestCrashRecoverySweepPagedShortWrites adds torn page writes to the
// tiny-cache sweep: the tripping WriteAt persists half a page, which
// recovery must reject via the page CRC.
func TestCrashRecoverySweepPagedShortWrites(t *testing.T) {
	crashSweep(t, true, crashCachePages, false)
}

// TestCrashRecoverySweepAsyncBatch runs the scenario from an
// async-commit session that ends in one WaitDurable, so the whole
// scenario is one WAL batch with one sync. Torn writes included, every
// kill point must recover a prefix of that batch, and the whole of it
// once WaitDurable has returned.
func TestCrashRecoverySweepAsyncBatch(t *testing.T) {
	crashSweep(t, true, 0, true)
}

// crashCachePages gives the tiny-cache sweeps their buffer cache.
const crashCachePages = 8

// crashSweep runs the sweep with the given buffer cache size (0 means
// DefaultCachePages), for the crashed process and the recovering one.
// With async, the scenario runs from an async-commit session and is
// acknowledged by one WaitDurable at its end.
func crashSweep(t *testing.T, short bool, cachePages int, async bool) {
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
		e, err := OpenDurableFS(fs, dir, core.DefaultOptions(), cachePages)
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
		re, err := OpenDurable(dir, core.DefaultOptions(), cachePages)
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

	d, err := OpenDurable(dir, core.DefaultOptions(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.NewSession("admin", true).Exec(`insert into P values (2, Apex)`); err != nil {
		t.Fatal(err)
	}
	d.Close()

	back, err := OpenDurable(dir, core.DefaultOptions(), 0)
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
