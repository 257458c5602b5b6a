// Snapshot bootstrap over the batch stream: a snapshot is statements,
// sent after the handshake reply in REPL_BATCH frames with From zero,
// so its size is bounded by nothing but the follower's memory, and a
// follower installs it only once it holds every statement.
package replica_test

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"authdb"
	"authdb/internal/core"
	"authdb/internal/engine"
	"authdb/internal/replica"
	"authdb/internal/server"
	"authdb/internal/wire"
)

// answerKinds renders user's answer to query on e, every cell tagged
// with its kind, followed by the inferred permits.
func answerKinds(t *testing.T, e *engine.Engine, user, query string) string {
	t.Helper()
	res, err := e.NewSession(user, false).Exec(query)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	writeCells(&b, res.Relation)
	for _, p := range res.Permits {
		fmt.Fprintf(&b, "%s\n", p)
	}
	return b.String()
}

// startFollower follows primary with eng until the test ends.
func startFollower(t *testing.T, eng *engine.Engine, cfg replica.Config) *replica.Replica {
	t.Helper()
	rep := replica.Start(eng, cfg)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		rep.Stop(ctx)
	})
	return rep
}

// TestFollowerBootstrapsPastMaxFrame holds a state whose snapshot
// statements alone exceed wire.MaxFrame — about 2 200 rows of 8 KiB
// strings — and bootstraps an in-memory follower and a durable one from
// it through a real hub. Each must deliver u the primary's answers with
// the primary's kinds.
func TestFollowerBootstrapsPastMaxFrame(t *testing.T) {
	const rows = 2200
	db := authdb.Open(authdb.DefaultOptions())
	t.Cleanup(func() { db.Close() })
	admin := db.Admin()
	admin.MustExecScript(`
		relation BLOB (K, V) key (K);
		view VB (BLOB.K, BLOB.V) where BLOB.K < 1500;
		permit VB to u;
	`)
	pad := strings.Repeat("x", 8<<10)
	for i := 0; i < rows; i++ {
		admin.MustExec(fmt.Sprintf(`insert into BLOB values (%d, "%s%d")`, i, pad, i))
	}
	pe := db.Engine()
	stmts, _, err := pe.ReplSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	size := 0
	for _, s := range stmts {
		size += len(s)
	}
	if size <= wire.MaxFrame {
		t.Fatalf("the snapshot's statements hold %d bytes, not more than MaxFrame (%d)", size, wire.MaxFrame)
	}
	stmts = nil
	srv := startServer(t, db, server.Config{})
	const query = `retrieve (BLOB.K, BLOB.V)`
	want := answerKinds(t, pe, "u", query)

	durable, err := authdb.OpenDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { durable.Close() })
	for i, fe := range []*engine.Engine{engine.New(core.DefaultOptions()), durable.Engine()} {
		rep := startFollower(t, fe, followCfg(srv.Addr().String()))
		waitLSN(t, fe, pe.LSN())
		if got := answerKinds(t, fe, "u", query); got != want {
			t.Errorf("follower %d answers u differently (%d bytes, primary %d)", i, len(got), len(want))
		}
		if !stateEqual(t, pe, fe) {
			t.Errorf("follower %d holds another state", i)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		rep.Stop(ctx)
		cancel()
	}
	if n := db.Metrics().Counter("authdb_repl_snapshots_sent_total").Value(); n != 2 {
		t.Fatalf("the hub sent %v snapshots, want 2", n)
	}
}

// followPair serves db and follows it with a fresh in-memory engine,
// which bootstraps by snapshot. It returns the follower's engine once
// it has caught up.
func followPair(t *testing.T, db *authdb.DB) *engine.Engine {
	t.Helper()
	srv := startServer(t, db, server.Config{})
	fe := engine.New(core.DefaultOptions())
	startFollower(t, fe, followCfg(srv.Addr().String()))
	waitLSN(t, fe, db.Engine().LSN())
	if n := db.Metrics().Counter("authdb_repl_snapshots_sent_total").Value(); n != 1 {
		t.Fatalf("the hub sent %v snapshots, want 1", n)
	}
	return fe
}

// TestFollowerKeepsInvalidUTF8 holds strings that are not UTF-8, which
// the statement language accepts inside quotes, and replicates them by
// snapshot and by tail: the follower must hold the primary's bytes. A
// JSON batch replaced each invalid byte with U+FFFD.
func TestFollowerKeepsInvalidUTF8(t *testing.T) {
	db := authdb.Open(authdb.DefaultOptions())
	t.Cleanup(func() { db.Close() })
	admin := db.Admin()
	admin.MustExecScript(`
		relation S (K, V) key (K);
		view VS (S.K, S.V);
		permit VS to u;
	`)
	admin.MustExec("insert into S values (1, \"a\xffb\")")
	pe := db.Engine()
	fe := followPair(t, db)
	admin.MustExec("insert into S values (2, \"c\xfe\xed\xa0\x80d\")")
	waitLSN(t, fe, pe.LSN())
	if !stateEqual(t, pe, fe) {
		t.Fatal("the follower holds another state than the primary")
	}
	const query = `retrieve (S.K, S.V)`
	want := answerKinds(t, pe, "u", query)
	if !strings.Contains(want, "a\\xffb") || !strings.Contains(want, "c\\xfe\\xed\\xa0\\x80d") {
		t.Fatalf("the primary's answer lacks its own bytes:\n%s", want)
	}
	if got := answerKinds(t, fe, "u", query); got != want {
		t.Fatalf("the follower answers\n%s\nthe primary\n%s", got, want)
	}
}

// TestControlBytesPastJSONFrame replicates about 3 MiB of strings of
// control bytes, first by snapshot and then by tail. Under a batch bound
// of 4 MiB of statement text each run fits one batch; JSON wrote each
// control byte as six, a frame past wire.MaxFrame that the hub failed to
// send on every retry.
func TestControlBytesPastJSONFrame(t *testing.T) {
	db := authdb.Open(authdb.DefaultOptions())
	t.Cleanup(func() { db.Close() })
	admin := db.Admin()
	admin.MustExec(`relation BLOB (K, V) key (K)`)
	ctl := strings.Repeat("\x01", 1<<20)
	insert := func(from int) {
		for k := from; k < from+3; k++ {
			admin.MustExec(fmt.Sprintf("insert into BLOB values (%d, \"%s\")", k, ctl))
		}
	}
	insert(0)
	pe := db.Engine()
	fe := followPair(t, db)
	insert(3)
	waitLSN(t, fe, pe.LSN())
	if !stateEqual(t, pe, fe) {
		t.Fatal("the follower holds another state than the primary")
	}
	r, err := fe.Relation("BLOB")
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 6 {
		t.Fatalf("the follower holds %d tuples, want 6", r.Len())
	}
}

// TestSnapshotCutLeavesFollowerAsItWas cuts a follower's first stream
// after the handshake reply and k snapshot batches. The follower holds
// a state of its own: its answers and LSN must be exactly those it had
// before the handshake, and the next dial must bootstrap it.
func TestSnapshotCutLeavesFollowerAsItWas(t *testing.T) {
	const k = 2
	db := authdb.Open(authdb.DefaultOptions())
	t.Cleanup(func() { db.Close() })
	admin := db.Admin()
	admin.MustExecScript(`
		relation R (A, B) key (A);
		view V (R.A, R.B) where R.A < 100;
		permit V to u;
	`)
	// Four batches of snapshot statements at the least.
	for i := 0; i < 2000; i++ {
		admin.MustExec(fmt.Sprintf(`insert into R values (%d, b%d)`, i, i))
	}
	srv := startServer(t, db, server.Config{})
	pe := db.Engine()

	fe := engine.New(core.DefaultOptions())
	if _, err := fe.NewSession("admin", true).ExecScript(`
		relation R (A, B) key (A);
		insert into R values (7, own);
		view V (R.A, R.B);
		permit V to u;
	`); err != nil {
		t.Fatal(err)
	}
	const query = `retrieve (R.A, R.B)`
	beforeLSN, before := fe.LSN(), answerKinds(t, fe, "u", query)

	var mu sync.Mutex
	dials, forwarded := 0, 0
	redialed, proceed := make(chan struct{}), make(chan struct{})
	cfg := followCfg(srv.Addr().String())
	cfg.Dial = func(ctx context.Context, addr string) (net.Conn, error) {
		mu.Lock()
		dials++
		n := dials
		mu.Unlock()
		if n == 2 {
			close(redialed)
		}
		if n >= 2 {
			select {
			case <-proceed:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		var d net.Dialer
		up, err := d.DialContext(ctx, "tcp", addr)
		if err != nil || n >= 2 {
			return up, err
		}
		// The first connection: forward the reply and k snapshot
		// batches, then cut both directions.
		follower, proxy := net.Pipe()
		go io.Copy(up, proxy)
		go func() {
			defer up.Close()
			defer proxy.Close()
			br := bufio.NewReader(up)
			for i := 0; i <= k; i++ {
				payload, err := wire.ReadFrame(br)
				if err != nil {
					return
				}
				if i > 0 {
					var b wire.ReplBatch
					if wire.Decode(payload, &b) != nil || b.From != 0 {
						t.Errorf("frame %d after the reply is not a snapshot batch: %.80s", i, payload)
						return
					}
				}
				if err := wire.WriteFrame(proxy, payload); err != nil {
					return
				}
				mu.Lock()
				forwarded++
				mu.Unlock()
			}
		}()
		return follower, nil
	}
	startFollower(t, fe, cfg)

	select {
	case <-redialed:
	case <-time.After(15 * time.Second):
		t.Fatal("the follower never redialed after its stream was cut")
	}
	mu.Lock()
	if forwarded != k+1 {
		t.Errorf("the cut stream carried %d frames, want the reply and %d snapshot batches", forwarded, k)
	}
	mu.Unlock()
	if got := fe.LSN(); got != beforeLSN {
		t.Errorf("a cut snapshot moved the follower from lsn %d to %d", beforeLSN, got)
	}
	if got := answerKinds(t, fe, "u", query); got != before {
		t.Errorf("a cut snapshot changed u's answer:\n%s\nbefore:\n%s", got, before)
	}
	close(proceed)
	waitLSN(t, fe, pe.LSN())
	if !stateEqual(t, pe, fe) {
		t.Fatal("the next dial did not bootstrap the follower to the primary's state")
	}
	if got, want := answerKinds(t, fe, "u", query), answerKinds(t, pe, "u", query); got != want {
		t.Fatalf("the bootstrapped follower answers u:\n%.300s\nprimary:\n%.300s", got, want)
	}
}

// TestTailRefusesSnapshotBatch: a batch with From zero after a
// tail-mode reply fails the stream. Its statements have no LSNs, so
// the follower applies none of them and acks nothing.
func TestTailRefusesSnapshotBatch(t *testing.T) {
	fe := engine.New(core.DefaultOptions())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	result := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		ln.Close()
		if err != nil {
			result <- err
			return
		}
		defer conn.Close()
		br, bw := bufio.NewReader(conn), bufio.NewWriter(conn)
		var hello wire.ReplHello
		if err := wire.ReadMsg(br, &hello); err != nil {
			result <- err
			return
		}
		wire.WriteMsg(bw, &wire.ReplHelloReply{Epoch: 1})
		wire.WriteMsg(bw, &wire.ReplBatch{From: 0, Epoch: 1,
			Stmts: []string{"relation A (X)", "relation B (Y)"}})
		if err := bw.Flush(); err != nil {
			result <- err
			return
		}
		var ack wire.ReplAck
		if err := wire.ReadMsg(br, &ack); err == nil {
			result <- fmt.Errorf("the follower acked lsn %d", ack.Applied)
			return
		}
		result <- nil
	}()
	startFollower(t, fe, followCfg(ln.Addr().String()))
	select {
	case err := <-result:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("the follower neither acked nor dropped the stream")
	}
	if lsn := fe.LSN(); lsn != 0 {
		t.Fatalf("the follower applied a snapshot batch in the tail: lsn %d", lsn)
	}
	for _, rel := range []string{"A", "B"} {
		if _, err := fe.Relation(rel); err == nil {
			t.Fatalf("the follower defined %s from a snapshot batch in the tail", rel)
		}
	}
}

// TestSnapshotBootstrapWritesOneGeneration bootstraps a durable follower
// by snapshot from a primary at epoch 2: the state and the epoch history
// land in one checkpoint, so the follower's generation advances by
// exactly one. Two checkpoints would leave a window in which a crash
// keeps epoch-2 statements under the epoch-1 history.
func TestSnapshotBootstrapWritesOneGeneration(t *testing.T) {
	pdb, err := authdb.OpenDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pdb.Close() })
	pdb.Admin().MustExecScript("relation FEED (K, V) key (K);\ninsert into FEED values (before, v);\n")
	if _, err := pdb.Engine().BumpEpoch(); err != nil {
		t.Fatal(err)
	}
	pdb.Admin().MustExec("insert into FEED values (after, v)")
	srv := startServer(t, pdb, server.Config{})

	fdb, err := authdb.OpenDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fdb.Close() })
	fe := fdb.Engine()
	gen := fe.Generation()
	rep := startFollower(t, fe, followCfg(srv.Addr().String()))
	deadline := time.Now().Add(15 * time.Second)
	for !rep.Bootstrapped() {
		if time.Now().After(deadline) {
			t.Fatal("the follower never bootstrapped")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if n := fdb.Metrics().Counter("authdb_repl_snapshots_installed_total").Value(); n != 1 {
		t.Fatalf("the follower installed %v snapshots, want 1", n)
	}
	if fe.Epoch() != 2 || fe.LSN() != pdb.Engine().LSN() {
		t.Fatalf("follower at epoch %d, lsn %d; want epoch 2, lsn %d", fe.Epoch(), fe.LSN(), pdb.Engine().LSN())
	}
	if got := fe.Generation(); got != gen+1 {
		t.Errorf("bootstrap moved the follower from generation %d to %d, want %d", gen, got, gen+1)
	}
}
