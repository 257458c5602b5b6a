package engine

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"authdb/internal/core"
	"authdb/internal/cview"
	"authdb/internal/faultfs"
	"authdb/internal/parser"
	"authdb/internal/value"
	"authdb/internal/wal"
)

// TestAsyncBatchSharesOneSync: on a durable engine with default
// settings, an async-commit session's n statements followed by one
// WaitDurable cost exactly one WAL sync — the batching a bulk loader
// relies on.
func TestAsyncBatchSharesOneSync(t *testing.T) {
	const n = 50
	dir := t.TempDir()
	e, err := OpenDurable(dir, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	admin := e.NewSession("admin", true)
	if _, err := admin.Exec(`relation R (K) key (K)`); err != nil {
		t.Fatal(err)
	}
	syncs := e.Metrics().Counter("authdb_wal_group_commits_total")
	before := syncs.Value()
	async := e.NewSession("admin", true)
	async.SetAsyncCommit(true)
	for i := 0; i < n; i++ {
		if _, err := async.Exec(fmt.Sprintf(`insert into R values (k%d)`, i)); err != nil {
			t.Fatal(err)
		}
	}
	if e.DurableLSN() >= e.LSN() {
		t.Errorf("async statements durable before the wait: durable %d, lsn %d", e.DurableLSN(), e.LSN())
	}
	if err := e.WaitDurable(e.LSN()); err != nil {
		t.Fatal(err)
	}
	if got := syncs.Value() - before; got != 1 {
		t.Fatalf("%d async statements and one WaitDurable cost %d syncs, want 1", n, got)
	}
	if e.DurableLSN() != e.LSN() {
		t.Fatalf("after WaitDurable: durable %d, lsn %d", e.DurableLSN(), e.LSN())
	}
	want := fingerprint(t, e)
	e.Close()
	back, err := OpenDurable(dir, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer back.Close()
	if got := fingerprint(t, back); got != want {
		t.Fatal("reopened state differs from the state made durable by WaitDurable")
	}
}

// TestCheckpointDrainsStagedRecords: a checkpoint writes the records
// an async session staged into the generation it retires, so the new
// generation's WAL starts empty, its LSN file counts each statement
// once, and a reopen continues from that count.
func TestCheckpointDrainsStagedRecords(t *testing.T) {
	dir := t.TempDir()
	e, err := OpenDurable(dir, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	async := e.NewSession("admin", true)
	async.SetAsyncCommit(true)
	if _, err := async.ExecScript("relation R (K) key (K);\ninsert into R values (k1);\n"); err != nil {
		t.Fatal(err)
	}
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := e.WaitDurable(e.LSN()); err != nil {
		t.Fatal(err)
	}
	gen, want := e.Generation(), fingerprint(t, e)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	recs, err := walStmts(filepath.Join(dir, walName(gen)))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("the checkpointed generation's WAL holds %d records, want 0: %q", len(recs), recs)
	}
	if lsn, err := readSnapLSN(faultfs.OS(), filepath.Join(dir, snapName(gen))); err != nil || lsn != 2 {
		t.Fatalf("the checkpointed generation embodies lsn %d (%v), want 2", lsn, err)
	}
	back, err := OpenDurable(dir, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer back.Close()
	if back.LSN() != 2 || fingerprint(t, back) != want {
		t.Fatalf("reopened at lsn %d, want 2 and the checkpointed state", back.LSN())
	}
}

// TestWaitDurableFutureLSN: waiting for an LSN no statement has staged
// fails at once instead of blocking forever, on durable and in-memory
// engines alike.
func TestWaitDurableFutureLSN(t *testing.T) {
	durable, err := OpenDurable(t.TempDir(), core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer durable.Close()
	for name, e := range map[string]*Engine{"durable": durable, "memory": New(core.DefaultOptions())} {
		if _, err := e.NewSession("admin", true).Exec(`relation R (K) key (K)`); err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() { done <- e.WaitDurable(e.LSN() + 1) }()
		select {
		case err := <-done:
			if err == nil {
				t.Errorf("%s: WaitDurable(LSN()+1) succeeded", name)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("%s: WaitDurable(LSN()+1) still blocked after 2s", name)
		}
		if err := e.WaitDurable(e.LSN()); err != nil {
			t.Errorf("%s: WaitDurable(LSN()): %v", name, err)
		}
	}
}

// TestSharedSyncFailure fails the sync of a batch holding async
// statements and one synchronous statement: both the synchronous
// statement and WaitDurable report the error, the engine refuses
// further mutations, and — once the unsynced bytes are lost, as a power
// cut would lose them — a reopen recovers the state before the batch.
func TestSharedSyncFailure(t *testing.T) {
	dir := t.TempDir()
	fs := faultfs.NewFaulty(faultfs.OS())
	e, err := OpenDurableFS(fs, dir, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	admin := e.NewSession("admin", true)
	if _, err := admin.ExecScript("relation R (K) key (K);\ninsert into R values (k0);\n"); err != nil {
		t.Fatal(err)
	}
	want := fingerprint(t, e)
	walPath := filepath.Join(dir, walName(e.Generation()))
	st, err := os.Stat(walPath)
	if err != nil {
		t.Fatal(err)
	}

	async := e.NewSession("admin", true)
	async.SetAsyncCommit(true)
	for i := 1; i <= 3; i++ {
		if _, err := async.Exec(fmt.Sprintf(`insert into R values (k%d)`, i)); err != nil {
			t.Fatal(err)
		}
	}
	// The batch's Write is operation 0 and its Sync operation 1.
	fs.Arm(1)
	_, err = admin.Exec(`insert into R values (k4)`)
	if !errors.Is(err, faultfs.ErrInjected) || !strings.Contains(err.Error(), "sync") {
		t.Fatalf("synchronous statement in the failed batch: err = %v, want the injected sync failure", err)
	}
	if err := e.WaitDurable(e.LSN()); !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("WaitDurable after the failed batch: err = %v, want the injected failure", err)
	}
	if _, err := admin.Exec(`insert into R values (k5)`); err == nil || !strings.Contains(err.Error(), "durable log failed") {
		t.Fatalf("mutation after the failed batch: err = %v, want the durable-log-failed error", err)
	}
	e.Close()

	if err := os.Truncate(walPath, st.Size()); err != nil {
		t.Fatal(err)
	}
	back, err := OpenDurable(dir, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer back.Close()
	if got := fingerprint(t, back); got != want {
		t.Fatalf("reopen after the failed batch:\n%s\nwant the pre-batch state:\n%s", got, want)
	}
}

// TestWriteProtocol pins the protocol every mutating statement follows,
// for each of the seven kinds on a durable engine: a change moves the
// LSN, the head version and the WAL by exactly one; a no-op (duplicate
// insert, zero-row delete) and a failure (unknown name, arity mismatch,
// not authorized) move none of them; and once a sync failure has broken
// the log, every kind fails with the durable error and moves nothing.
func TestWriteProtocol(t *testing.T) {
	dir := t.TempDir()
	fs := faultfs.NewFaulty(faultfs.OS())
	e, err := OpenDurableFS(fs, dir, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	admin, user := e.NewSession("admin", true), e.NewSession("u", false)
	if _, err := admin.ExecScript(`
		relation R (A, B) key (A);
		insert into R values (h, sec);
		view V (R.A, R.B) where R.B = pub;
		permit V to u;
	`); err != nil {
		t.Fatal(err)
	}
	type position struct {
		lsn, seq uint64
		records  int
	}
	at := func() position {
		t.Helper()
		seq, _ := e.DBVersion()
		n, err := wal.Replay(faultfs.OS(), filepath.Join(dir, walName(e.Generation())), func(int, string) error { return nil })
		if err != nil {
			t.Fatal(err)
		}
		return position{e.lsn.Load(), seq, n}
	}
	const (
		change = iota
		noop
		fail
	)
	for _, c := range []struct {
		s    *Session
		stmt string
		want int
	}{
		{admin, `relation S (A)`, change},
		{admin, `relation S (B)`, fail},
		{user, `relation T (A)`, fail},
		{admin, `insert into R values (a1, pub)`, change},
		{user, `insert into R values (a2, pub)`, change},
		{admin, `insert into R values (a1, pub)`, noop},
		{user, `insert into R values (a2, pub)`, noop},
		{admin, `insert into Nope values (a3, pub)`, fail},
		{admin, `insert into R values (a3)`, fail},
		{user, `insert into R values (a3, sec)`, fail},
		{admin, `delete from R where A = a1`, change},
		{user, `delete from R where A = a2`, change},
		{admin, `delete from R where A = a1`, noop},
		{user, `delete from R where A = nobody`, noop},
		{admin, `delete from Nope where A = a1`, fail},
		{admin, `view W (R.A)`, change},
		{admin, `view X (Nope.A)`, fail},
		{user, `view Y (R.A)`, fail},
		{admin, `permit W to u`, change},
		{admin, `permit Nope to u`, fail},
		{user, `permit V to u`, fail},
		{admin, `revoke W from u`, change},
		{admin, `revoke W from u`, fail},
		{user, `revoke V from u`, fail},
		{admin, `drop view W`, change},
		{admin, `drop view W`, fail},
		{user, `drop view V`, fail},
	} {
		before := at()
		_, err := c.s.Exec(c.stmt)
		after := at()
		moved := position{after.lsn - before.lsn, after.seq - before.seq, after.records - before.records}
		want := position{}
		if c.want == change {
			want = position{1, 1, 1}
		}
		if (err != nil) != (c.want == fail) || moved != want {
			t.Errorf("%s as %s: err %v; moved %+v, want %+v", c.stmt, c.s.User(), err, moved, want)
		}
	}

	// Break the log as TestSharedSyncFailure does: an async batch whose
	// shared sync fails under a synchronous statement.
	async := e.NewSession("admin", true)
	async.SetAsyncCommit(true)
	if _, err := async.Exec(`insert into R values (b1, pub)`); err != nil {
		t.Fatal(err)
	}
	fs.Arm(1)
	if _, err := admin.Exec(`insert into R values (b2, pub)`); !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("statement in the failed batch: err = %v, want the injected failure", err)
	}
	for _, stmt := range []string{
		`relation Z (A)`,
		`insert into R values (b3, pub)`,
		`delete from R where A = h`,
		`view Z (R.A)`,
		`permit V to z`,
		`revoke V from u`,
		`drop view V`,
	} {
		before := at()
		_, err := admin.Exec(stmt)
		if err == nil || !strings.Contains(err.Error(), "durable log failed") {
			t.Errorf("%s on a broken log: err = %v, want the durable-log-failed error", stmt, err)
		}
		if after := at(); after != before {
			t.Errorf("%s on a broken log moved %+v to %+v", stmt, before, after)
		}
	}
}

// TestConcurrentAcksSurviveSyncFailure: eight writers share syncs until
// an injected failure breaks the log at a varying point; every
// statement acknowledged before the failure must survive a reopen —
// whichever waiter wrote the batch that held it.
func TestConcurrentAcksSurviveSyncFailure(t *testing.T) {
	const writers, perWriter = 8, 25
	for k := 1; k < 60; k += 7 {
		dir := t.TempDir()
		fs := faultfs.NewFaulty(faultfs.OS())
		e, err := OpenDurableFS(fs, dir, core.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.NewSession("admin", true).Exec(`relation W (K) key (K)`); err != nil {
			t.Fatal(err)
		}
		fs.Arm(k)
		var mu sync.Mutex
		var acked []string
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				sess := e.NewSession("admin", true)
				for i := 0; i < perWriter; i++ {
					key := fmt.Sprintf("w%d_%d", w, i)
					if _, err := sess.Exec(`insert into W values (` + key + `)`); err != nil {
						return
					}
					mu.Lock()
					acked = append(acked, key)
					mu.Unlock()
				}
			}(w)
		}
		wg.Wait()
		e.Close()
		back, err := OpenDurable(dir, core.DefaultOptions())
		if err != nil {
			t.Fatalf("k=%d: recovery failed: %v", k, err)
		}
		admin := back.NewSession("admin", true)
		for _, key := range acked {
			res, err := admin.Exec(`retrieve (W.K) where W.K = ` + key)
			if err != nil {
				t.Fatal(err)
			}
			if res.Relation.Len() != 1 {
				t.Fatalf("k=%d: acknowledged insert of %s lost by recovery", k, key)
			}
		}
		back.Close()
	}
}

// TestRefuseUnjournalableStatement executes statements holding a
// constant without a literal form (a string with a double quote, a
// null), which only code can build. On an in-memory engine and on a
// durable one, each must be refused before it changes anything: the
// state and the LSN stay put, the log has no gap (the next ordinary
// insert takes the next LSN and, on the durable engine, the next WAL
// record), and that insert survives a reopen.
func TestRefuseUnjournalableStatement(t *testing.T) {
	quoted := value.String(`say "hi"`)
	bad := []parser.Stmt{
		parser.Insert{Rel: "R", Values: []value.Value{value.Int(2), quoted}},
		parser.Insert{Rel: "R", Values: []value.Value{value.Int(2), value.Null()}},
		parser.Delete{Rel: "R", Where: []cview.Cond{{L: cview.ColRef{Alias: "R", Attr: "B"}, Op: value.EQ, R: cview.ConstTerm(quoted)}}},
	}
	for _, durable := range []bool{false, true} {
		t.Run(fmt.Sprintf("durable=%v", durable), func(t *testing.T) {
			dir := t.TempDir()
			e := New(core.DefaultOptions())
			if durable {
				var err error
				if e, err = OpenDurable(dir, core.DefaultOptions()); err != nil {
					t.Fatal(err)
				}
				defer e.Close()
			}
			admin := e.NewSession("admin", true)
			if _, err := admin.ExecScript(`relation R (A, B) key (A); insert into R values (1, x);`); err != nil {
				t.Fatal(err)
			}
			before, lsn := fingerprint(t, e), e.LSN()
			for _, p := range bad {
				if _, err := admin.ExecStmtContext(context.Background(), p); err == nil || !strings.Contains(err.Error(), "no literal form") {
					t.Fatalf("%#v: err = %v, want a refusal", p, err)
				}
			}
			if got := fingerprint(t, e); got != before || e.LSN() != lsn {
				t.Fatalf("refused statements changed the state (lsn %d → %d):\n%s", lsn, e.LSN(), got)
			}
			if _, err := admin.Exec(`insert into R values (3, y)`); err != nil {
				t.Fatalf("ordinary insert after the refusals: %v", err)
			}
			if e.LSN() != lsn+1 {
				t.Fatalf("the ordinary insert took lsn %d, want %d", e.LSN(), lsn+1)
			}
			if !durable {
				return
			}
			want, gen := fingerprint(t, e), e.Generation()
			if err := e.Close(); err != nil {
				t.Fatal(err)
			}
			// The opening checkpoint left generation gen's WAL empty at
			// lsn 0, so its records are lsns 1, 2, ….
			recs, err := walStmts(filepath.Join(dir, walName(gen)))
			if err != nil {
				t.Fatal(err)
			}
			if uint64(len(recs)) != lsn+1 || recs[lsn] != "insert into R values (3, y)" {
				t.Fatalf("WAL records %q, want %d ending with the ordinary insert", recs, lsn+1)
			}
			back, err := OpenDurable(dir, core.DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			defer back.Close()
			if got := fingerprint(t, back); got != want {
				t.Fatalf("reopened state:\n%s\nwant:\n%s", got, want)
			}
		})
	}
}

// TestLSNPersistsAcrossReopen: the LSN counts mutating statements over
// the engine's entire history — checkpoints and reopens must continue
// the count, never restart it.
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

// TestReplicationGauges: the LSN, durable LSN, and snapshot generation
// ride the metrics registry for /metrics and \stats, and no replication
// series does.
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
	if strings.Contains(txt, "authdb_repl_") {
		t.Errorf("metrics carry a replication series:\n%s", txt)
	}
}

// walStmts collects the statements of a log's valid prefix.
func walStmts(path string) ([]string, error) {
	var out []string
	_, err := wal.Replay(faultfs.OS(), path, func(_ int, stmt string) error {
		out = append(out, stmt)
		return nil
	})
	return out, err
}
