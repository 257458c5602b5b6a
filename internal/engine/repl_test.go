package engine

// Engine-level tests of the replication surface (repl.go, commit.go):
// LSN persistence, WAL-tail vs snapshot bootstrap, group-commit
// equivalence, the commit feed's slow-subscriber policy, and the
// observability gauges. The full network protocol is exercised by
// internal/replica's end-to-end tests.

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"

	"authdb/internal/core"
)

// TestLSNPersistsAcrossReopen: the LSN counts mutating statements over
// the engine's entire history — checkpoints and reopens must continue
// the count, never restart it (a replica's resume position depends on
// it).
func TestLSNPersistsAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	e, err := OpenDurable(dir, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if got := e.LSN(); got != 0 {
		t.Fatalf("fresh engine LSN = %d, want 0", got)
	}
	admin := e.NewSession("admin", true)
	for _, stmt := range durableScenario {
		if _, err := admin.Exec(stmt); err != nil {
			t.Fatalf("%s: %v", stmt, err)
		}
	}
	want := uint64(len(durableScenario))
	if got := e.LSN(); got != want {
		t.Fatalf("LSN = %d, want %d", got, want)
	}
	if got := e.DurableLSN(); got != want {
		t.Fatalf("DurableLSN = %d, want %d", got, want)
	}

	// A checkpoint rotates the generation but not the count.
	gen := e.Generation()
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if e.Generation() != gen+1 {
		t.Fatalf("generation = %d after checkpoint, want %d", e.Generation(), gen+1)
	}
	if got := e.LSN(); got != want {
		t.Fatalf("LSN = %d after checkpoint, want %d", got, want)
	}
	if _, err := admin.Exec(`insert into EMPLOYEE values (Adams, clerk, 20000)`); err != nil {
		t.Fatal(err)
	}
	want++
	e.Close()

	back, err := OpenDurable(dir, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer back.Close()
	if got := back.LSN(); got != want {
		t.Fatalf("LSN = %d after reopen, want %d", got, want)
	}
	if got := back.DurableLSN(); got != want {
		t.Fatalf("DurableLSN = %d after reopen, want %d", got, want)
	}
}

// TestWALTailAndSnapshotBootstrap walks both follower bootstrap paths
// against a live engine: the WAL tail while the position is covered by
// the current generation, the snapshot fallback once a checkpoint
// rotated it away, and tail-following from the snapshot's position.
func TestWALTailAndSnapshotBootstrap(t *testing.T) {
	e1, err := OpenDurable(t.TempDir(), core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer e1.Close()
	admin := e1.NewSession("admin", true)
	const split = 7
	for _, stmt := range durableScenario[:split] {
		if _, err := admin.Exec(stmt); err != nil {
			t.Fatalf("%s: %v", stmt, err)
		}
	}

	tail, ok, err := e1.WALTail(0)
	if err != nil || !ok {
		t.Fatalf("WALTail(0) = ok %v, err %v; want the full tail", ok, err)
	}
	if len(tail) != split {
		t.Fatalf("tail has %d statements, want %d", len(tail), split)
	}
	for i, c := range tail {
		if c.LSN != uint64(i+1) {
			t.Fatalf("tail[%d].LSN = %d, want %d", i, c.LSN, i+1)
		}
	}

	// After a checkpoint the WAL restarts empty; a position before the
	// snapshot base needs the snapshot.
	if err := e1.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := e1.WALTail(0); ok || err != nil {
		t.Fatalf("WALTail(0) after checkpoint = ok %v, err %v; want snapshot fallback", ok, err)
	}

	stmts, lsn, err := e1.ReplSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if lsn != split {
		t.Fatalf("snapshot LSN = %d, want %d", lsn, split)
	}
	e2 := New(core.DefaultOptions())
	if err := e2.ResetFromSnapshot(stmts, lsn, nil); err != nil {
		t.Fatal(err)
	}
	if e2.LSN() != lsn {
		t.Fatalf("replica LSN = %d after snapshot install, want %d", e2.LSN(), lsn)
	}
	if got, want := fingerprint(t, e2), fingerprint(t, e1); got != want {
		t.Fatalf("snapshot install diverged:\nreplica:\n%s\nprimary:\n%s", got, want)
	}

	// The tail from the snapshot's position carries the rest.
	for _, stmt := range durableScenario[split:] {
		if _, err := admin.Exec(stmt); err != nil {
			t.Fatalf("%s: %v", stmt, err)
		}
	}
	tail, ok, err = e1.WALTail(lsn)
	if err != nil || !ok {
		t.Fatalf("WALTail(%d) = ok %v, err %v", lsn, ok, err)
	}
	if len(tail) != len(durableScenario)-split {
		t.Fatalf("tail has %d statements, want %d", len(tail), len(durableScenario)-split)
	}
	applier := e2.NewSession("admin", true)
	for _, c := range tail {
		if c.LSN != e2.LSN()+1 {
			t.Fatalf("tail gap: statement at LSN %d, replica at %d", c.LSN, e2.LSN())
		}
		if _, err := applier.Exec(c.Stmt); err != nil {
			t.Fatalf("applying %s: %v", c.Stmt, err)
		}
	}
	if e2.LSN() != e1.LSN() {
		t.Fatalf("replica LSN = %d, primary %d", e2.LSN(), e1.LSN())
	}
	if got, want := fingerprint(t, e2), fingerprint(t, e1); got != want {
		t.Fatalf("tail replay diverged:\nreplica:\n%s\nprimary:\n%s", got, want)
	}
}

// TestResetFromSnapshotDropsClosure: adopting a snapshot starts a fresh
// mask closure, so no entry keeps the discarded state's revisions and
// answers resident, and the next read is computed on the adopted state.
func TestResetFromSnapshotDropsClosure(t *testing.T) {
	src := New(core.DefaultOptions())
	if _, err := src.NewSession("admin", true).ExecScript(strings.Join(durableScenario, ";\n")); err != nil {
		t.Fatal(err)
	}
	stmts, lsn, err := src.ReplSnapshot()
	if err != nil {
		t.Fatal(err)
	}

	e := New(core.DefaultOptions())
	admin := e.NewSession("admin", true)
	for _, stmt := range durableScenario {
		if _, err := admin.Exec(stmt); err != nil {
			t.Fatalf("%s: %v", stmt, err)
		}
	}
	if _, err := admin.Exec(`insert into PROJECT values (zz-99, Acme, 1)`); err != nil {
		t.Fatal(err)
	}
	acme := func(e *Engine) string {
		t.Helper()
		res, err := e.NewSession("Brown", false).Exec(
			`retrieve (PROJECT.NUMBER, PROJECT.BUDGET) where PROJECT.SPONSOR = Acme`)
		if err != nil {
			t.Fatal(err)
		}
		return renderSorted(t, res)
	}
	if got := acme(e); !strings.Contains(got, "zz-99") {
		t.Fatalf("Brown's answer lacks the extra row: %q", got)
	}
	if e.MaskClosureStats().Entries == 0 {
		t.Fatal("the read left no closure entry")
	}
	if err := e.ResetFromSnapshot(stmts, lsn, nil); err != nil {
		t.Fatal(err)
	}
	if n := e.MaskClosureStats().Entries; n != 0 {
		t.Fatalf("%d closure entries survived the snapshot adoption", n)
	}
	if got, want := acme(e), acme(src); got != want {
		t.Fatalf("answer after adoption %q, want %q", got, want)
	}
}

// sortedFingerprint canonicalizes an engine fingerprint up to row
// order, for comparing states built by concurrent writers whose
// interleaving (and hence stored row order) legitimately differs.
func sortedFingerprint(t *testing.T, e *Engine) string {
	lines := strings.Split(fingerprint(t, e), "\n")
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// TestGroupCommitEquivalence runs the same inserts from 8 concurrent
// writers, which share fsyncs while checkpoints rotate the log under
// them, and from one session, which pays one per statement: the final
// states, LSNs, and the states recovered by a reopen must be identical
// — sharing a sync changes the fsync schedule, never the contents. One
// of the concurrent writers commits asynchronously and waits once at
// the end, so checkpoints also meet records staged but not yet written.
func TestGroupCommitEquivalence(t *testing.T) {
	const writers, perWriter = 8, 25
	stmt := func(w, i int) string { return fmt.Sprintf("insert into WRITES values (w%d_%d, v)", w, i) }
	run := func(concurrent bool) (string, uint64, string) {
		dir := t.TempDir()
		e, err := OpenDurable(dir, core.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		admin := e.NewSession("admin", true)
		if _, err := admin.Exec(`relation WRITES (K, V) key (K)`); err != nil {
			t.Fatal(err)
		}
		if concurrent {
			stop := make(chan struct{})
			checkpointed := make(chan struct{})
			go func() {
				defer close(checkpointed)
				for {
					select {
					case <-stop:
						return
					default:
					}
					if err := e.Checkpoint(); err != nil {
						t.Errorf("checkpoint: %v", err)
						return
					}
				}
			}()
			var wg sync.WaitGroup
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					sess := e.NewSession("admin", true)
					sess.SetAsyncCommit(w == 0)
					for i := 0; i < perWriter; i++ {
						if _, err := sess.Exec(stmt(w, i)); err != nil {
							t.Errorf("%s: %v", stmt(w, i), err)
							return
						}
					}
					if err := e.WaitDurable(e.LSN()); err != nil {
						t.Error(err)
					}
				}(w)
			}
			wg.Wait()
			close(stop)
			<-checkpointed
		} else {
			for w := 0; w < writers; w++ {
				for i := 0; i < perWriter; i++ {
					if _, err := admin.Exec(stmt(w, i)); err != nil {
						t.Fatalf("%s: %v", stmt(w, i), err)
					}
				}
			}
		}
		state := sortedFingerprint(t, e)
		lsn := e.LSN()
		e.Close()
		back, err := OpenDurable(dir, core.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		defer back.Close()
		if back.LSN() != lsn {
			t.Fatalf("concurrent=%v: reopen LSN = %d, want %d", concurrent, back.LSN(), lsn)
		}
		return state, lsn, sortedFingerprint(t, back)
	}

	oneState, oneLSN, oneReopen := run(false)
	manyState, manyLSN, manyReopen := run(true)
	if oneLSN != manyLSN {
		t.Fatalf("LSN differs: one session %d, %d writers %d", oneLSN, writers, manyLSN)
	}
	if wantLSN := uint64(1 + writers*perWriter); oneLSN != wantLSN {
		t.Fatalf("LSN = %d, want %d", oneLSN, wantLSN)
	}
	if oneState != manyState {
		t.Fatal("final states differ between one session and concurrent writers")
	}
	if oneReopen != oneState || manyReopen != manyState {
		t.Fatal("reopened state differs from the live state")
	}
}

// TestSlowSubscriberDisconnect: a commit subscriber that stops draining
// is cut off (channel closed) instead of stalling the publisher, and
// the disconnect is counted.
func TestSlowSubscriberDisconnect(t *testing.T) {
	e, err := OpenDurable(t.TempDir(), core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	admin := e.NewSession("admin", true)
	if _, err := admin.Exec(`relation R (K) key (K)`); err != nil {
		t.Fatal(err)
	}

	sub := e.SubscribeCommits(1)
	defer e.UnsubscribeCommits(sub)
	for i := 0; i < 3; i++ {
		if _, err := admin.Exec(fmt.Sprintf("insert into R values (k%d)", i)); err != nil {
			t.Fatal(err)
		}
	}
	// Buffer 1: the first insert is buffered, the second overflows and
	// closes the channel.
	if c, live := <-sub.C(); !live || c.Stmt == "" {
		t.Fatalf("first commit = %+v, live %v; want the buffered statement", c, live)
	}
	if _, live := <-sub.C(); live {
		t.Fatal("subscriber channel still live after overflow; want disconnect")
	}
	if txt := e.Metrics().Text(); !strings.Contains(txt, "authdb_repl_slow_subscriber_disconnects_total 1") {
		t.Errorf("slow-subscriber disconnect not counted:\n%s", txt)
	}
}

// TestInMemoryCommitFeed: in-memory engines feed subscribers too (an
// in-memory primary can serve followers, which bootstrap by snapshot).
func TestInMemoryCommitFeed(t *testing.T) {
	e := New(core.DefaultOptions())
	admin := e.NewSession("admin", true)
	sub := e.SubscribeCommits(8)
	defer e.UnsubscribeCommits(sub)
	if _, err := admin.Exec(`relation R (K) key (K)`); err != nil {
		t.Fatal(err)
	}
	if _, err := admin.Exec(`insert into R values (k)`); err != nil {
		t.Fatal(err)
	}
	c := <-sub.C()
	if c.LSN != 1 || !strings.Contains(c.Stmt, "relation R") {
		t.Fatalf("first commit = %+v, want the relation statement at LSN 1", c)
	}
	c = <-sub.C()
	if c.LSN != 2 || !strings.Contains(c.Stmt, "insert into R") {
		t.Fatalf("second commit = %+v, want the insert at LSN 2", c)
	}
}

// TestReplicationGauges: the LSN, durable LSN, and snapshot generation
// ride the metrics registry for /metrics and \stats.
func TestReplicationGauges(t *testing.T) {
	e, err := OpenDurable(t.TempDir(), core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	admin := e.NewSession("admin", true)
	if _, err := admin.Exec(`relation R (K) key (K)`); err != nil {
		t.Fatal(err)
	}
	if _, err := admin.Exec(`insert into R values (k)`); err != nil {
		t.Fatal(err)
	}
	txt := e.Metrics().Text()
	for _, want := range []string{
		"authdb_wal_lsn 2",
		"authdb_wal_durable_lsn 2",
		"authdb_snapshot_generation 1",
	} {
		if !strings.Contains(txt, want) {
			t.Errorf("metrics missing %q:\n%s", want, txt)
		}
	}
}
