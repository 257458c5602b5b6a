package engine

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"authdb/internal/core"
	"authdb/internal/faultfs"
	"authdb/internal/wal"
)

// TestAsyncBatchSharesOneSync: on a durable engine with default
// settings, an async-commit session's n statements followed by one
// WaitDurable cost exactly one WAL sync — the batching the replication
// applier relies on.
func TestAsyncBatchSharesOneSync(t *testing.T) {
	const n = 50
	dir := t.TempDir()
	e, err := OpenDurable(dir, core.DefaultOptions(), 0)
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
	back, err := OpenDurable(dir, core.DefaultOptions(), 0)
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
// generation's WAL starts empty and the commit feed carries each
// statement once.
func TestCheckpointDrainsStagedRecords(t *testing.T) {
	dir := t.TempDir()
	e, err := OpenDurable(dir, core.DefaultOptions(), 0)
	if err != nil {
		t.Fatal(err)
	}
	sub := e.SubscribeCommits(64)
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
	gen := e.Generation()
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	recs, err := wal.ReplayAll(faultfs.OS(), filepath.Join(dir, walName(gen)))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("the checkpointed generation's WAL holds %d records, want 0: %q", len(recs), recs)
	}
	for want := uint64(1); want <= 2; want++ {
		if c := <-sub.C(); c.LSN != want {
			t.Fatalf("commit feed delivered lsn %d, want %d", c.LSN, want)
		}
	}
	select {
	case c := <-sub.C():
		t.Fatalf("commit feed delivered lsn %d twice", c.LSN)
	default:
	}
}

// TestWaitDurableFutureLSN: waiting for an LSN no statement has staged
// fails at once instead of blocking forever, on durable and in-memory
// engines alike.
func TestWaitDurableFutureLSN(t *testing.T) {
	durable, err := OpenDurable(t.TempDir(), core.DefaultOptions(), 0)
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
	e, err := OpenDurableFS(fs, dir, core.DefaultOptions(), 0)
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
	back, err := OpenDurable(dir, core.DefaultOptions(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer back.Close()
	if got := fingerprint(t, back); got != want {
		t.Fatalf("reopen after the failed batch:\n%s\nwant the pre-batch state:\n%s", got, want)
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
		e, err := OpenDurableFS(fs, dir, core.DefaultOptions(), 0)
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
		back, err := OpenDurable(dir, core.DefaultOptions(), 0)
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
