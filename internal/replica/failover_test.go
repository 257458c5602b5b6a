// Failover tests: promotion, epoch fencing, divergence quarantine, and
// the slow-follower disconnect path. These drive the same production
// stack as replica_test.go — real servers over loopback TCP — plus a
// net.Pipe harness for the hub's backpressure behavior, which needs a
// connection whose writes block until the peer reads.
package replica_test

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"authdb"
	"authdb/internal/replica"
	"authdb/internal/server"
	"authdb/internal/wire"
	"authdb/pkg/client"
)

// rawWriteProbe sends one mutating statement over a raw wire
// connection (no client-side hint following) and returns the server's
// error, nil on success.
func rawWriteProbe(t *testing.T, addr, stmt string) *wire.Error {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	br, bw := bufio.NewReader(nc), bufio.NewWriter(nc)
	if err := wire.WriteMsg(bw, &wire.Hello{
		Proto: wire.ProtoVersion, User: "root", Admin: true, Token: replToken,
	}); err != nil {
		t.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	var hr wire.HelloReply
	if err := wire.ReadMsg(br, &hr); err != nil || hr.Error != nil {
		t.Fatalf("probe handshake: %+v, %v", hr, err)
	}
	if err := wire.WriteMsg(bw, &wire.Request{ID: 1, Stmt: stmt}); err != nil {
		t.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	var resp wire.Response
	if err := wire.ReadMsg(br, &resp); err != nil {
		t.Fatal(err)
	}
	return resp.Error
}

// newClusterReplica boots a durable replica node wired for failover:
// its server follows peers (so \promote and /readyz work) and rejoins
// through them. Returns the node and its durable directory (for
// quarantine inspection).
func newClusterReplica(t *testing.T, peers ...string) (*authdb.DB, *server.Server, string) {
	t.Helper()
	dir := t.TempDir()
	db, err := authdb.OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	srv := startServer(t, db, server.Config{
		Replica:     true,
		Peers:       peers,
		Follow:      fastFollow,
		MetricsAddr: "127.0.0.1:0",
	})
	return db, srv, dir
}

// TestPromoteFailover is the planned-failover path: the primary dies,
// an administrator promotes replica 1, and replica 2 — configured with
// both addresses — finds the new leader by rotation, adopts the bumped
// epoch, and keeps replicating. Writes accepted by the new primary
// reach it; the epoch is 2 everywhere.
func TestPromoteFailover(t *testing.T) {
	pdir := t.TempDir()
	pdb, err := authdb.OpenDir(pdir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pdb.Close() })
	admin := pdb.Admin()
	admin.MustExecScript("relation FEED (K, V) key (K);\n")
	for i := 0; i < 10; i++ {
		admin.MustExec(fmt.Sprintf("insert into FEED values (k%d, v)", i))
	}
	psrv := server.New(pdb, server.Config{AdminToken: replToken})
	if err := psrv.Start(); err != nil {
		t.Fatal(err)
	}
	paddr := psrv.Addr().String()

	rdb1, rsrv1, _ := newClusterReplica(t, paddr)
	r1addr := rsrv1.Addr().String()
	rdb2, rsrv2, _ := newClusterReplica(t, paddr, r1addr)
	waitLSN(t, rdb1.Engine(), pdb.Engine().LSN())
	waitLSN(t, rdb2.Engine(), pdb.Engine().LSN())

	// A non-administrator must not be able to promote.
	pleb := dial(t, r1addr, client.WithUser("Brown"))
	var se *client.ServerError
	if _, err := pleb.Exec(context.Background(), `\promote`); !errors.As(err, &se) || se.Code != wire.CodeNotAuthorized {
		t.Fatalf(`non-admin \promote: err %v, want %s`, err, wire.CodeNotAuthorized)
	}

	// The primary dies.
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := psrv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	// Promote replica 1.
	op := dial(t, r1addr, client.WithAdmin("root", replToken))
	res, err := op.Exec(context.Background(), `\promote`)
	if err != nil {
		t.Fatalf(`\promote: %v`, err)
	}
	if !strings.Contains(res.Text, "epoch 2") {
		t.Fatalf(`\promote answered %q, want the new epoch`, res.Text)
	}
	if rsrv1.Role() != "primary" || rdb1.Engine().Epoch() != 2 {
		t.Fatalf("after promote: role %s epoch %d, want primary epoch 2",
			rsrv1.Role(), rdb1.Engine().Epoch())
	}
	// Promoting an existing primary is a no-op, not a second bump.
	if _, err := op.Exec(context.Background(), `\promote`); err != nil {
		t.Fatalf(`re-\promote: %v`, err)
	}
	if got := rdb1.Engine().Epoch(); got != 2 {
		t.Fatalf("re-promote bumped the epoch to %d", got)
	}

	// The new primary accepts writes; replica 2 rotates to it and adopts
	// the new epoch.
	if _, err := op.Exec(context.Background(), "insert into FEED values (post-failover, v)"); err != nil {
		t.Fatalf("write on promoted primary: %v", err)
	}
	waitLSN(t, rdb2.Engine(), rdb1.Engine().LSN())
	if got := rdb2.Engine().Epoch(); got != 2 {
		t.Fatalf("replica 2 epoch %d, want 2", got)
	}
	if !stateEqual(t, rdb1.Engine(), rdb2.Engine()) {
		t.Fatal("replica 2 state differs from the promoted primary")
	}
	if rsrv2.Role() != "replica" {
		t.Fatalf("replica 2 role %s, want replica", rsrv2.Role())
	}

	// Writes against replica 2 are refused with a hint at the promoted
	// leader (raw probe: the client would follow the hint)...
	we := rawWriteProbe(t, rsrv2.Addr().String(), "insert into FEED values (nope, v)")
	if we == nil || we.Code != wire.CodeReadOnly {
		t.Fatalf("raw write on replica 2: %+v, want %s", we, wire.CodeReadOnly)
	}
	if we.Leader != r1addr {
		t.Errorf("leader hint %q, want %q", we.Leader, r1addr)
	}
	// ...and a cluster client pointed only at replica 2 lands the write
	// on the leader by following that hint (plain Dial clients stay
	// pinned and surface the refusal — see TestReplicaRefusesWrites).
	w, err := client.DialCluster([]string{rsrv2.Addr().String()}, client.WithAdmin("root", replToken))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })
	if _, err := w.Exec(context.Background(), "insert into FEED values (via-hint, v)"); err != nil {
		t.Fatalf("hint-following write: %v", err)
	}
	if w.Addr() != r1addr {
		t.Errorf("hint-following client connected to %q, want the leader %q", w.Addr(), r1addr)
	}
}

// TestFencedExPrimaryQuarantinesAndRejoins is the split-brain path: B
// is promoted while A still believes it is the primary, A accepts a
// divergent write under its stale epoch, and then a higher-epoch
// follower contacts A. A must demote (STALE_PRIMARY to clients, with a
// leader hint), quarantine the divergent suffix — never silently drop
// it — and rejoin the cluster as a follower of B, converging
// byte-identically.
func TestFencedExPrimaryQuarantinesAndRejoins(t *testing.T) {
	adir := t.TempDir()
	adb, err := authdb.OpenDir(adir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { adb.Close() })
	adb.Admin().MustExecScript("relation FEED (K, V) key (K);\n")
	adb.Admin().MustExec("insert into FEED values (shared, v)")

	// A knows no peers: its demote path takes the leader from the fence
	// itself, so the fencing hello naming B is all its rejoin needs.
	asrv := server.New(adb, server.Config{AdminToken: replToken, Follow: fastFollow})
	if err := asrv.Start(); err != nil {
		t.Fatal(err)
	}
	aaddr := asrv.Addr().String()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		asrv.Shutdown(ctx)
	})

	bdb, bsrv, _ := newClusterReplica(t, aaddr)
	baddr := bsrv.Addr().String()
	waitLSN(t, bdb.Engine(), adb.Engine().LSN())

	if _, err := bsrv.Promote(context.Background()); err != nil {
		t.Fatalf("promoting B: %v", err)
	}
	if bdb.Engine().Epoch() != 2 {
		t.Fatalf("B epoch %d, want 2", bdb.Engine().Epoch())
	}
	// B moves on without A: a write lands on the new timeline.
	bdb.Admin().MustExec("insert into FEED values (new-timeline, v)")

	// A, oblivious, accepts a divergent write under epoch 1.
	adb.Admin().MustExec("insert into FEED values (divergent, v)")
	divergentLSN := adb.Engine().LSN()

	// A higher-epoch follower contacts A — the moment A learns it was
	// superseded. Simulate it with a raw replication hello carrying
	// epoch 2 and B as leader.
	nc, err := net.Dial("tcp", aaddr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	bw := bufio.NewWriter(nc)
	if err := wire.WriteMsg(bw, &wire.ReplHello{
		Proto: wire.ProtoVersion, Token: replToken,
		From: bdb.Engine().LSN(), Epoch: 2, Leader: baddr,
	}); err != nil {
		t.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	var reply wire.ReplHelloReply
	if err := wire.ReadMsg(bufio.NewReader(nc), &reply); err != nil {
		t.Fatal(err)
	}
	if reply.Error == nil || reply.Error.Code != wire.CodeStalePrimary {
		t.Fatalf("fencing hello got %+v, want a %s refusal", reply, wire.CodeStalePrimary)
	}

	// A is demoted: clients get STALE_PRIMARY with B as the leader hint.
	if asrv.Role() != "replica" {
		t.Fatalf("fenced A role %s, want replica", asrv.Role())
	}
	we := rawWriteProbe(t, aaddr, "insert into FEED values (nope, v)")
	if we == nil || we.Code != wire.CodeStalePrimary {
		t.Fatalf("raw write on fenced A: %+v, want %s", we, wire.CodeStalePrimary)
	}
	if we.Leader != baddr {
		t.Errorf("fenced A's leader hint %q, want %q", we.Leader, baddr)
	}

	// A rejoins B as a follower: the divergent write is quarantined, the
	// states converge, the epoch is adopted. The follower installs B's
	// snapshot before it adopts B's epoch history, so the state can match
	// while the epoch still reads 1: wait for both.
	waitLSN(t, adb.Engine(), bdb.Engine().LSN())
	deadline := time.Now().Add(15 * time.Second)
	for !stateEqual(t, adb.Engine(), bdb.Engine()) || adb.Engine().Epoch() != 2 {
		if time.Now().After(deadline) {
			t.Fatalf("A never converged with B after rejoining (epoch %d, want 2)", adb.Engine().Epoch())
		}
		time.Sleep(10 * time.Millisecond)
	}
	matches, err := filepath.Glob(filepath.Join(adir, "diverged-*"))
	if err != nil || len(matches) == 0 {
		t.Fatalf("no quarantine directory in %s (err %v): the divergent write was silently dropped", adir, err)
	}
	info, err := os.ReadFile(filepath.Join(matches[0], "INFO"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(info), fmt.Sprintf("lsn %d", divergentLSN)) {
		t.Errorf("quarantine INFO %q does not record the divergent LSN %d", info, divergentLSN)
	}
	// The divergent tuple must be gone from A's serving state...
	res, err := dial(t, aaddr, client.WithAdmin("root", replToken)).
		Exec(context.Background(), "retrieve (FEED.K) where FEED.K = divergent")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(res.Rendered, "divergent") {
		t.Error("divergent tuple still visible after rejoin")
	}
	// ...and the failover counter visible in A's metrics.
	if !strings.Contains(adb.Metrics().Text(), `authdb_failover_total{kind="demote"} 1`) {
		t.Error("demotion not counted in authdb_failover_total")
	}
}

// TestReadyz drives the /readyz satellite: a primary reports ready with
// role and epoch; a replica is unready until bootstrapped and ready
// once following.
func TestReadyz(t *testing.T) {
	pdb, psrv := newPrimary(t)
	pdb.Admin().MustExecScript("relation FEED (K, V) key (K);\n")
	paddr := psrv.Addr().String()

	// The primary has no MetricsAddr in newPrimary; start a fresh one.
	psrv2 := startServer(t, pdb, server.Config{MetricsAddr: "127.0.0.1:0"})
	get := func(srv *server.Server) (int, string) {
		t.Helper()
		resp, err := http.Get(fmt.Sprintf("http://%s/readyz", srv.MetricsAddr()))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}
	code, body := get(psrv2)
	if code != http.StatusOK || !strings.Contains(body, "role=primary") || !strings.Contains(body, "epoch=1") {
		t.Fatalf("primary /readyz = %d %q", code, body)
	}

	// A replica whose peers are unreachable is unready.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := ln.Addr().String()
	ln.Close()
	_, orphan, _ := newClusterReplica(t, dead)
	if code, body := get(orphan); code != http.StatusServiceUnavailable {
		t.Fatalf("replica with unreachable peers /readyz = %d %q, want 503", code, body)
	}

	// A following replica becomes ready once bootstrapped and caught up.
	rdb, rsrv, _ := newClusterReplica(t, paddr)
	waitLSN(t, rdb.Engine(), pdb.Engine().LSN())
	deadline := time.Now().Add(15 * time.Second)
	for {
		code, body = get(rsrv)
		if code == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica /readyz never ready: %d %q", code, body)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !strings.Contains(body, "role=replica") || !strings.Contains(body, "epoch=1") {
		t.Fatalf("replica /readyz body %q, want role=replica at epoch=1", body)
	}

	// A primary fenced by a higher-epoch hello that names no leader,
	// with no peers of its own, follows nobody and stays unready.
	fdb, err := authdb.OpenDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fdb.Close() })
	fsrv := startServer(t, fdb, server.Config{MetricsAddr: "127.0.0.1:0"})
	nc, err := net.Dial("tcp", fsrv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	bw := bufio.NewWriter(nc)
	if err := wire.WriteMsg(bw, &wire.ReplHello{
		Proto: wire.ProtoVersion, Token: replToken, Epoch: 2,
	}); err != nil {
		t.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	var reply wire.ReplHelloReply
	if err := wire.ReadMsg(bufio.NewReader(nc), &reply); err != nil {
		t.Fatal(err)
	}
	if reply.Error == nil || reply.Error.Code != wire.CodeStalePrimary {
		t.Fatalf("higher-epoch hello: %+v, want STALE_PRIMARY", reply.Error)
	}
	code, body = get(fsrv)
	if code != http.StatusServiceUnavailable || !strings.Contains(body, "fenced with no peers to follow") {
		t.Fatalf("fenced peerless node /readyz = %d %q, want 503 fenced with no peers", code, body)
	}
}

// TestSlowFollowerDisconnectsAndCatchesUp pins the backpressure
// contract: a follower that stops reading is disconnected — by commit
// feed overflow or a blocked write, whichever hits first — rather than
// wedging the primary, and a reconnecting follower catches up cleanly
// via snapshot or tail. net.Pipe gives the unbuffered connection the
// blocked-write half needs.
func TestSlowFollowerDisconnectsAndCatchesUp(t *testing.T) {
	db, err := authdb.OpenDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	admin := db.Admin()
	admin.MustExecScript("relation FEED (K, V) key (K);\n")

	hub := replica.NewHub(db.Engine())
	hub.SetFollowerBuffer(4)
	hub.SetWriteTimeout(200 * time.Millisecond)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		hub.Shutdown(ctx)
	})

	fside, pside := net.Pipe()
	t.Cleanup(func() { fside.Close(); pside.Close() })
	done := make(chan struct{})
	go func() {
		defer close(done)
		hub.HandleConn(pside, bufio.NewReader(pside), wire.ReplHello{
			Proto: wire.ProtoVersion,
			From:  db.Engine().DurableLSN(), Epoch: db.Engine().Epoch(),
		})
	}()
	var reply wire.ReplHelloReply
	if err := wire.ReadMsg(bufio.NewReader(fside), &reply); err != nil || reply.Error != nil {
		t.Fatalf("handshake: %+v, %v", reply, err)
	}
	// The follower now stops reading entirely. Keep writing on the
	// primary until the hub gives up on it.
	for i := 0; i < 5000; i++ {
		select {
		case <-done:
		default:
			admin.MustExec(fmt.Sprintf("insert into FEED values (k%d, v)", i))
			time.Sleep(time.Millisecond)
			continue
		}
		break
	}
	select {
	case <-done:
	case <-time.After(15 * time.Second):
		t.Fatal("hub never disconnected the stalled follower")
	}
	txt := db.Metrics().Text()
	if !strings.Contains(txt, "authdb_repl_follower_disconnects_total") {
		t.Error("slow-follower disconnect not counted")
	}

	// The primary was never wedged: it kept accepting writes above. Now a
	// real follower catches up from disk — no stream gap, identical state.
	srv := startServer(t, db, server.Config{})
	rdb, _ := newReplicaNode(t, srv.Addr().String())
	waitLSN(t, rdb.Engine(), db.Engine().LSN())
	if !stateEqual(t, db.Engine(), rdb.Engine()) {
		t.Fatal("follower state differs after slow-follower recovery")
	}
}
