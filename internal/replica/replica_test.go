// End-to-end tests of WAL-shipping replication: a primary server plus
// real replicas over loopback TCP, driven through pkg/client. The core
// property is the paper's: masking is a pure function of the replicated
// meta-database and the query, so every node returns byte-identical
// masked answers — including the withheld markers and the inferred
// permit footer — before and after permits change. The failure tests
// cover crash-resume from the replica's own persisted LSN, torn WAL
// tails, checkpoint rotation racing bootstrap, and primary restarts.
package replica_test

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"authdb"
	"authdb/internal/core"
	"authdb/internal/engine"
	"authdb/internal/faultfs"
	"authdb/internal/relation"
	"authdb/internal/replica"
	"authdb/internal/server"
	"authdb/internal/wire"
	"authdb/internal/workload"
	"authdb/pkg/client"
)

const replToken = "repl-e2e-token"

func startServer(t *testing.T, db *authdb.DB, cfg server.Config) *server.Server {
	t.Helper()
	cfg.AdminToken = replToken
	s := server.New(db, cfg)
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return s
}

// newPrimary boots a durable primary server.
func newPrimary(t *testing.T) (*authdb.DB, *server.Server) {
	t.Helper()
	db, err := authdb.OpenDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db, startServer(t, db, server.Config{})
}

// fastFollow is the test follower tuning: fast reconnects so failure
// tests converge quickly.
var fastFollow = replica.Tuning{
	BackoffMin: 10 * time.Millisecond,
	BackoffMax: 250 * time.Millisecond,
}

// followCfg is the configuration of an engine-level test follower.
func followCfg(primary string) replica.Config {
	return replica.Config{Primaries: []string{primary}, Token: replToken, Tuning: fastFollow}
}

// newReplicaNode boots a durable replica node: a server configured as a
// replica of primaryAddr, which follows it on its own engine and serves
// read-only.
func newReplicaNode(t *testing.T, primaryAddr string) (*authdb.DB, *server.Server) {
	t.Helper()
	db, err := authdb.OpenDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	srv := startServer(t, db, server.Config{Replica: true, Peers: []string{primaryAddr}, Follow: fastFollow})
	return db, srv
}

// waitLSN blocks until eng reaches LSN want (or the test deadline).
func waitLSN(t *testing.T, eng *engine.Engine, want uint64) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for eng.LSN() < want {
		if time.Now().After(deadline) {
			t.Fatalf("engine stuck at LSN %d, want %d", eng.LSN(), want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func dial(t *testing.T, addr string, opts ...client.Option) *client.Client {
	t.Helper()
	c, err := client.Dial(addr, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// stateEqual compares two engines' complete states byte-for-byte via
// their replication snapshots.
func stateEqual(t *testing.T, a, b *engine.Engine) bool {
	t.Helper()
	as, alsn, err := a.ReplSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	bs, blsn, err := b.ReplSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	return alsn == blsn && slices.Equal(as, bs)
}

// TestPrimaryTwoReplicasByteIdentical is the headline property: a
// primary and two replicas answer every principal's queries with
// byte-identical rendered output — cells, withheld markers, inferred
// permit footer — and stay identical as permits are granted and
// revoked on the primary.
func TestPrimaryTwoReplicasByteIdentical(t *testing.T) {
	db, srv := newPrimary(t)
	db.Admin().MustExecScript(workload.PaperScript)
	// Checkpoint so the first replica bootstraps by snapshot; the WAL
	// tail and live-feed paths are exercised by the statements below.
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	paddr := srv.Addr().String()

	rdb1, rsrv1 := newReplicaNode(t, paddr)
	rdb2, rsrv2 := newReplicaNode(t, paddr)
	waitLSN(t, rdb1.Engine(), db.Engine().LSN())
	waitLSN(t, rdb2.Engine(), db.Engine().LSN())

	addrs := map[string]string{
		"primary":  paddr,
		"replica1": rsrv1.Addr().String(),
		"replica2": rsrv2.Addr().String(),
	}
	queries := []string{
		"retrieve (EMPLOYEE.NAME, EMPLOYEE.SALARY)",
		"retrieve (EMPLOYEE.NAME, EMPLOYEE.TITLE, EMPLOYEE.SALARY)",
		"retrieve (PROJECT.NUMBER, PROJECT.SPONSOR, PROJECT.BUDGET)",
		"retrieve (EMPLOYEE.NAME, PROJECT.NUMBER) where EMPLOYEE.NAME = ASSIGNMENT.E_NAME and PROJECT.NUMBER = ASSIGNMENT.P_NO",
	}
	compareAll := func(tag string) {
		t.Helper()
		for _, user := range []string{"Brown", "Klein", "Nobody"} {
			clients := make(map[string]*client.Client, len(addrs))
			for node, addr := range addrs {
				clients[node] = dial(t, addr, client.WithUser(user))
			}
			for _, q := range queries {
				want, err := clients["primary"].Exec(context.Background(), q)
				if err != nil {
					t.Fatalf("%s: primary %s for %s: %v", tag, q, user, err)
				}
				for _, node := range []string{"replica1", "replica2"} {
					got, err := clients[node].Exec(context.Background(), q)
					if err != nil {
						t.Fatalf("%s: %s %s for %s: %v", tag, node, q, user, err)
					}
					if got.Rendered != want.Rendered {
						t.Errorf("%s: %s diverges for %s on %q:\nreplica:\n%s\nprimary:\n%s",
							tag, node, user, q, got.Rendered, want.Rendered)
					}
					if fmt.Sprint(got.Permits) != fmt.Sprint(want.Permits) {
						t.Errorf("%s: %s permit footer for %s on %q: %v, want %v",
							tag, node, user, q, got.Permits, want.Permits)
					}
					if got.Denied != want.Denied || got.FullyAuthorized != want.FullyAuthorized {
						t.Errorf("%s: %s flags for %s on %q: (denied %v, full %v), want (%v, %v)",
							tag, node, user, q, got.Denied, got.FullyAuthorized, want.Denied, want.FullyAuthorized)
					}
				}
			}
		}
	}
	compareAll("bootstrap")

	// Permit propagation: a new view and grant on the primary must
	// change every node's masking identically.
	admin := dial(t, paddr, client.WithAdmin("root", replToken))
	for _, stmt := range []string{
		"view NTV (EMPLOYEE.NAME, EMPLOYEE.TITLE)",
		"permit NTV to Nobody",
	} {
		if _, err := admin.Exec(context.Background(), stmt); err != nil {
			t.Fatalf("%s: %v", stmt, err)
		}
	}
	waitLSN(t, rdb1.Engine(), db.Engine().LSN())
	waitLSN(t, rdb2.Engine(), db.Engine().LSN())
	nobody := dial(t, rsrv1.Addr().String(), client.WithUser("Nobody"))
	if res, err := nobody.Exec(context.Background(), "retrieve (EMPLOYEE.NAME, EMPLOYEE.TITLE)"); err != nil || res.Denied {
		t.Fatalf("replica did not apply the new permit: res %+v, err %v", res, err)
	}
	compareAll("after permit")

	// Revoke propagation closes the grant everywhere.
	if _, err := admin.Exec(context.Background(), "revoke NTV from Nobody"); err != nil {
		t.Fatal(err)
	}
	waitLSN(t, rdb1.Engine(), db.Engine().LSN())
	waitLSN(t, rdb2.Engine(), db.Engine().LSN())
	compareAll("after revoke")

	if !stateEqual(t, db.Engine(), rdb1.Engine()) || !stateEqual(t, db.Engine(), rdb2.Engine()) {
		t.Error("replica state not byte-identical to the primary")
	}
}

// TestReplicaRefusesWrites: every mutating statement on a replica —
// even from an administrator — fails with READ_ONLY naming the
// primary.
func TestReplicaRefusesWrites(t *testing.T) {
	db, srv := newPrimary(t)
	db.Admin().MustExecScript(workload.PaperScript)
	paddr := srv.Addr().String()
	rdb, rsrv := newReplicaNode(t, paddr)
	waitLSN(t, rdb.Engine(), db.Engine().LSN())

	for _, tc := range []struct {
		opts []client.Option
		stmt string
	}{
		{[]client.Option{client.WithUser("Brown")}, "insert into EMPLOYEE values (Evil, clerk, 1)"},
		{[]client.Option{client.WithAdmin("root", replToken)}, "insert into EMPLOYEE values (Evil, clerk, 1)"},
		{[]client.Option{client.WithAdmin("root", replToken)}, "permit SAE to Nobody"},
	} {
		c := dial(t, rsrv.Addr().String(), tc.opts...)
		_, err := c.Exec(context.Background(), tc.stmt)
		var se *client.ServerError
		if !errors.As(err, &se) || se.Code != wire.CodeReadOnly {
			t.Fatalf("%s on replica: err %v, want code %s", tc.stmt, err, wire.CodeReadOnly)
		}
		if !strings.Contains(se.Message, paddr) {
			t.Errorf("READ_ONLY message %q does not name the primary %s", se.Message, paddr)
		}
		// Reads on the same connection still work.
		if res, err := c.Exec(context.Background(), "retrieve (EMPLOYEE.NAME)"); err != nil || res.Rendered == "" {
			t.Fatalf("read after refused write: res %+v, err %v", res, err)
		}
	}
}

// TestReplicaKillMidBatchResumes crashes a replica in the middle of
// applying a batch — a torn record on its own WAL, via fault
// injection — then reopens the directory and verifies the stream
// resumes from the persisted LSN: no statement re-applied (the LSNs
// would diverge), none skipped (the gap check would fail the stream),
// final state byte-identical.
func TestReplicaKillMidBatchResumes(t *testing.T) {
	db, srv := newPrimary(t)
	admin := db.Admin()
	admin.MustExecScript("relation FEED (K, V) key (K);\n")
	paddr := srv.Addr().String()

	dir := t.TempDir()
	fs := faultfs.NewFaulty(faultfs.OS())
	fs.ShortWrites = true
	eng, err := engine.OpenDurableFS(fs, dir, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	rep := replica.Start(eng, followCfg(paddr))
	waitLSN(t, eng, db.Engine().LSN())

	// Arm the fault a few filesystem operations out, then keep writing:
	// some apply's WAL append dies partway (a short write — exactly a
	// torn tail), the engine fails stop, and the stream drops.
	fs.Arm(3)
	for i := 0; !fs.Tripped(); i++ {
		if i > 1000 {
			t.Fatal("fault never tripped")
		}
		if _, err := admin.Exec(fmt.Sprintf("insert into FEED values (k%d, v)", i)); err != nil {
			t.Fatal(err)
		}
		time.Sleep(2 * time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := rep.Stop(ctx); err != nil {
		t.Fatal(err)
	}
	crashLSN := eng.LSN()
	eng.Close()

	// "Restart the process": reopen the directory on the real
	// filesystem. Recovery keeps the valid WAL prefix and drops the torn
	// record, so the persisted LSN may trail the crash point.
	recovered, err := engine.OpenDurable(dir, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { recovered.Close() })
	if got := recovered.LSN(); got > crashLSN {
		t.Fatalf("recovered LSN %d exceeds crash LSN %d", got, crashLSN)
	}

	rep2 := replica.Start(recovered, followCfg(paddr))
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		rep2.Stop(ctx)
	})
	// More primary writes after the restart land too.
	for i := 0; i < 5; i++ {
		if _, err := admin.Exec(fmt.Sprintf("insert into FEED values (post%d, v)", i)); err != nil {
			t.Fatal(err)
		}
	}
	waitLSN(t, recovered, db.Engine().LSN())
	if recovered.LSN() != db.Engine().LSN() {
		t.Fatalf("replica LSN %d, primary %d: a statement was re-applied or skipped",
			recovered.LSN(), db.Engine().LSN())
	}
	if !stateEqual(t, db.Engine(), recovered) {
		t.Fatal("replica state differs from the primary after crash-resume")
	}
}

// TestReplicaWALTruncatedAtPartialRecord cuts the replica's own WAL
// mid-record while it is down — the torn-tail shape a crash leaves —
// and verifies the reopen recovers the valid prefix and the stream
// refills the difference.
func TestReplicaWALTruncatedAtPartialRecord(t *testing.T) {
	db, srv := newPrimary(t)
	admin := db.Admin()
	admin.MustExecScript("relation FEED (K, V) key (K);\n")
	for i := 0; i < 10; i++ {
		if _, err := admin.Exec(fmt.Sprintf("insert into FEED values (k%d, v)", i)); err != nil {
			t.Fatal(err)
		}
	}

	dir := t.TempDir()
	eng, err := engine.OpenDurable(dir, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	rep := replica.Start(eng, followCfg(srv.Addr().String()))
	waitLSN(t, eng, db.Engine().LSN())
	before := eng.LSN()
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := rep.Stop(ctx); err != nil {
		t.Fatal(err)
	}
	eng.Close()

	// Truncate the current generation's WAL into the middle of its last
	// record.
	cur, err := os.ReadFile(filepath.Join(dir, "CURRENT"))
	if err != nil {
		t.Fatal(err)
	}
	var gen uint64
	if _, err := fmt.Sscanf(strings.TrimSpace(string(cur)), "snap-%d", &gen); err != nil {
		t.Fatalf("malformed CURRENT %q: %v", cur, err)
	}
	walPath := filepath.Join(dir, fmt.Sprintf("wal-%06d.log", gen))
	info, err := os.Stat(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if info.Size() < 4 {
		t.Fatalf("replica WAL only %d bytes; expected the applied stream", info.Size())
	}
	if err := os.Truncate(walPath, info.Size()-3); err != nil {
		t.Fatal(err)
	}

	recovered, err := engine.OpenDurable(dir, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { recovered.Close() })
	if got := recovered.LSN(); got != before-1 {
		t.Fatalf("recovered LSN %d, want %d (valid prefix without the torn record)", got, before-1)
	}

	rep2 := replica.Start(recovered, followCfg(srv.Addr().String()))
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		rep2.Stop(ctx)
	})
	waitLSN(t, recovered, db.Engine().LSN())
	if !stateEqual(t, db.Engine(), recovered) {
		t.Fatal("replica state differs from the primary after torn-tail recovery")
	}
}

// TestBootstrapRacesCheckpoints attaches replicas while the primary is
// writing and checkpointing concurrently, so bootstrap races
// generation rotation (the WALTail stability loop and its snapshot
// fallback). Run under -race this also exercises the locking.
func TestBootstrapRacesCheckpoints(t *testing.T) {
	db, srv := newPrimary(t)
	admin := db.Admin()
	admin.MustExecScript("relation FEED (K, V) key (K);\n")
	paddr := srv.Addr().String()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			if _, err := admin.Exec(fmt.Sprintf("insert into FEED values (k%d, v)", i)); err != nil {
				t.Errorf("writer: %v", err)
				return
			}
			if i%20 == 19 {
				if err := db.Checkpoint(); err != nil {
					t.Errorf("checkpoint: %v", err)
					return
				}
			}
		}
	}()
	rdb1, _ := newReplicaNode(t, paddr)
	time.Sleep(20 * time.Millisecond)
	rdb2, _ := newReplicaNode(t, paddr)
	wg.Wait()

	waitLSN(t, rdb1.Engine(), db.Engine().LSN())
	waitLSN(t, rdb2.Engine(), db.Engine().LSN())
	if !stateEqual(t, db.Engine(), rdb1.Engine()) || !stateEqual(t, db.Engine(), rdb2.Engine()) {
		t.Fatal("replica state differs after bootstrap raced checkpoints")
	}
}

// TestReplicaReconnectsAfterPrimaryRestart stops the primary's server,
// keeps writing, restarts a server for the same engine on the same
// address, and verifies the replica reconnects (jittered backoff) and
// catches up from its position — the WAL-tail resume path.
func TestReplicaReconnectsAfterPrimaryRestart(t *testing.T) {
	db, err := authdb.OpenDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	admin := db.Admin()
	admin.MustExecScript("relation FEED (K, V) key (K);\n")
	srv1 := server.New(db, server.Config{AdminToken: replToken})
	if err := srv1.Start(); err != nil {
		t.Fatal(err)
	}
	paddr := srv1.Addr().String()

	rdb, _ := newReplicaNode(t, paddr)
	waitLSN(t, rdb.Engine(), db.Engine().LSN())

	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := srv1.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	// Writes continue while no server is listening.
	for i := 0; i < 5; i++ {
		if _, err := admin.Exec(fmt.Sprintf("insert into FEED values (down%d, v)", i)); err != nil {
			t.Fatal(err)
		}
	}
	// Rebind the same address (retrying briefly for the port to free).
	var srv2 *server.Server
	for attempt := 0; ; attempt++ {
		srv2 = server.New(db, server.Config{Addr: paddr, AdminToken: replToken})
		if err := srv2.Start(); err == nil {
			break
		} else if attempt > 50 {
			t.Fatalf("rebinding %s: %v", paddr, err)
		}
		time.Sleep(100 * time.Millisecond)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		srv2.Shutdown(ctx)
	})

	waitLSN(t, rdb.Engine(), db.Engine().LSN())
	if !stateEqual(t, db.Engine(), rdb.Engine()) {
		t.Fatal("replica state differs after primary restart")
	}
	if !strings.Contains(rdb.Metrics().Text(), "authdb_repl_reconnects_total") {
		t.Error("reconnect not counted in the replica's metrics")
	}
}

// TestReplicationMetrics spot-checks the replication gauges and
// counters on both sides of a live stream.
func TestReplicationMetrics(t *testing.T) {
	db, srv := newPrimary(t)
	db.Admin().MustExecScript(workload.PaperScript)
	rdb, _ := newReplicaNode(t, srv.Addr().String())
	waitLSN(t, rdb.Engine(), db.Engine().LSN())

	// The applier counts a batch only after it is durable, which can be
	// after the lag reads zero: wait for the count as well.
	caughtUp := func() bool {
		txt := rdb.Metrics().Text()
		return strings.Contains(txt, "authdb_repl_connected 1") && strings.Contains(txt, "authdb_repl_lag_lsns 0") &&
			rdb.Metrics().Counter("authdb_repl_batches_applied_total").Value() >= 1
	}
	deadline := time.Now().Add(15 * time.Second)
	for !caughtUp() {
		if time.Now().After(deadline) {
			t.Fatal("replica never reported connected with zero lag and a batch applied")
		}
		time.Sleep(5 * time.Millisecond)
	}
	ptxt := db.Metrics().Text()
	for _, want := range []string{"authdb_repl_followers 1", "authdb_repl_batches_sent_total"} {
		if !strings.Contains(ptxt, want) {
			t.Errorf("primary metrics missing %q", want)
		}
	}
	rtxt := rdb.Metrics().Text()
	for _, want := range []string{"authdb_repl_connected 1", "authdb_repl_lag_lsns 0", "authdb_repl_batches_applied_total"} {
		if !strings.Contains(rtxt, want) {
			t.Errorf("replica metrics missing %q", want)
		}
	}
}

// TestMalformedAckEndsStream: a frame on the follower → primary stream
// that is not a well-formed ack or fence ends that follower's stream,
// as a malformed request ends a session and a malformed batch ends a
// follower's: garbage, a protocol-6 JSON ack, an ack with a trailing
// byte, and a frame of another kind. A well-formed ack before it keeps
// the stream.
func TestMalformedAckEndsStream(t *testing.T) {
	db, srv := newPrimary(t)
	db.Admin().MustExec("relation FEED (K) key (K)")
	hub := srv.Hub()
	acks := db.Metrics().Counter("authdb_repl_acks_total")
	for i, frame := range [][]byte{
		{0x42},
		[]byte(`{"kind":"repl_ack","applied":1}`),
		append(wire.Append(nil, &wire.ReplAck{Applied: 1}), 0),
		wire.Append(nil, &wire.ReplBatch{From: 1}),
	} {
		nc, err := net.Dial("tcp", srv.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer nc.Close()
		if err := wire.WriteMsg(nc, &wire.ReplHello{Proto: wire.ProtoVersion, Token: replToken,
			From: db.Engine().DurableLSN(), Epoch: db.Engine().Epoch()}); err != nil {
			t.Fatal(err)
		}
		var reply wire.ReplHelloReply
		if err := wire.ReadMsg(bufio.NewReader(nc), &reply); err != nil || reply.Error != nil || reply.Snapshot {
			t.Fatalf("handshake: %+v, %v", reply, err)
		}
		if err := wire.WriteMsg(nc, &wire.ReplAck{Applied: db.Engine().DurableLSN()}); err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(5 * time.Second)
		for acks.Value() < int64(i+1) {
			if time.Now().After(deadline) {
				t.Fatalf("frame %d: the hub never counted the well-formed ack", i)
			}
			time.Sleep(time.Millisecond)
		}
		if n := hub.FollowerCount(); n != 1 {
			t.Fatalf("frame %d: %d followers after a well-formed ack, want 1", i, n)
		}
		if err := wire.WriteFrame(nc, frame); err != nil {
			t.Fatal(err)
		}
		for hub.FollowerCount() != 0 {
			if time.Now().After(deadline) {
				t.Fatalf("frame %q left the follower's stream open", frame)
			}
			time.Sleep(time.Millisecond)
		}
	}
}

// TestReplicaBatchSharesOneSync: a default-configured durable replica
// applies one REPL_BATCH of k statements with one WAL sync. The primary
// is scripted over loopback so the batch boundaries are exact.
func TestReplicaBatchSharesOneSync(t *testing.T) {
	const k = 20
	eng, err := engine.OpenDurable(t.TempDir(), core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	syncs := eng.Metrics().Counter("authdb_wal_group_commits_total")
	before := syncs.Value()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	acked := make(chan uint64, 1)
	go func() {
		defer close(acked)
		conn, err := ln.Accept()
		if err != nil {
			t.Error(err)
			return
		}
		defer conn.Close()
		br, bw := bufio.NewReader(conn), bufio.NewWriter(conn)
		var hello wire.ReplHello
		if err := wire.ReadMsg(br, &hello); err != nil {
			t.Error(err)
			return
		}
		stmts := []string{"relation FEED (K) key (K)"}
		for i := 1; i < k; i++ {
			stmts = append(stmts, fmt.Sprintf("insert into FEED values (k%d)", i))
		}
		wire.WriteMsg(bw, &wire.ReplHelloReply{Epoch: 1})
		wire.WriteMsg(bw, &wire.ReplBatch{From: hello.From + 1, Stmts: stmts, Epoch: 1})
		if err := bw.Flush(); err != nil {
			t.Error(err)
			return
		}
		var ack wire.ReplAck
		if err := wire.ReadMsg(br, &ack); err != nil {
			t.Error(err)
			return
		}
		acked <- ack.Applied
	}()

	rep := replica.Start(eng, followCfg(ln.Addr().String()))
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		rep.Stop(ctx)
	}()
	select {
	case applied := <-acked:
		if applied != k {
			t.Fatalf("replica acked lsn %d, want %d", applied, k)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("replica never acked the batch")
	}
	if got := syncs.Value() - before; got != 1 {
		t.Fatalf("applying one batch of %d statements cost %d syncs, want 1", k, got)
	}
}

// kindsAnswers renders, for the pair test, u's answers to two retrieves
// and the base relation R, every cell tagged with its kind: a node that
// holds "5" where another holds 5, or null where another holds "",
// renders differently.
func kindsAnswers(t *testing.T, e *engine.Engine) string {
	t.Helper()
	var b strings.Builder
	cells := func(r *relation.Relation) { writeCells(&b, r) }
	u := e.NewSession("u", false)
	for _, q := range []string{`retrieve (R.A, R.B) where R.B = 5`, `retrieve (R.A, R.B)`} {
		res, err := u.Exec(q)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "%s\n", q)
		cells(res.Relation)
		for _, p := range res.Permits {
			fmt.Fprintf(&b, "%s\n", p)
		}
	}
	r, err := e.Relation("R")
	if err != nil {
		t.Fatal(err)
	}
	b.WriteString("R\n")
	cells(r)
	return b.String()
}

// writeCells writes r's tuples in Sorted order, one a line, every cell
// tagged with its kind.
func writeCells(b *strings.Builder, r *relation.Relation) {
	for _, tup := range r.Sorted() {
		for _, v := range tup {
			fmt.Fprintf(b, "%s:%q ", v.Kind(), v.String())
		}
		b.WriteByte('\n')
	}
}

// TestKindsSameOnEveryNode holds a state whose strings look like other
// kinds — "5" beside 5, and "" — to one answer on every node that can
// hold it: the primary, a Save → Load copy, a ReplSnapshot →
// ResetFromSnapshot copy, a follower bootstrapped by snapshot through
// the hub, and the state/ dump of a quarantine loaded back. Each must
// deliver u the same answers with the same kinds, tuple by tuple.
func TestKindsSameOnEveryNode(t *testing.T) {
	db, srv := newPrimary(t)
	pe := db.Engine()
	if _, err := pe.NewSession("admin", true).ExecScript(`
		relation R (A, B) key (A);
		insert into R values (1, "5");
		insert into R values (2, "");
		insert into R values (3, 5);
		view V (R.A, R.B);
		permit V to u;
	`); err != nil {
		t.Fatal(err)
	}
	// Folding the WAL into a generation makes a follower at LSN 0
	// bootstrap by snapshot.
	if err := pe.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	want := kindsAnswers(t, pe)
	if !strings.Contains(want, "where R.B = 5\nint:\"3\" int:\"5\" \nretrieve") {
		t.Fatalf("the primary's answer to R.B = 5 is not row 3 alone:\n%s", want)
	}
	nodes := map[string]*engine.Engine{}

	dir := t.TempDir()
	if err := pe.Save(dir); err != nil {
		t.Fatal(err)
	}
	loaded, err := engine.Load(dir, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	nodes["Save → Load"] = loaded

	stmts, lsn, err := pe.ReplSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	reset := engine.New(core.DefaultOptions())
	if err := reset.ResetFromSnapshot(stmts, lsn, nil); err != nil {
		t.Fatal(err)
	}
	nodes["ReplSnapshot → ResetFromSnapshot"] = reset

	rdb, _ := newReplicaNode(t, srv.Addr().String())
	waitLSN(t, rdb.Engine(), pe.LSN())
	if n := db.Metrics().Counter("authdb_repl_snapshots_sent_total").Value(); n != 1 {
		t.Fatalf("the hub sent %d snapshots, want 1", n)
	}
	nodes["follower"] = rdb.Engine()

	qdir, err := pe.QuarantineDiverged(0)
	if err != nil || qdir == "" {
		t.Fatalf("quarantine: %q, %v", qdir, err)
	}
	dumped, err := engine.Load(filepath.Join(qdir, "state"), core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	nodes["quarantine state/"] = dumped

	for name, e := range nodes {
		if got := kindsAnswers(t, e); got != want {
			t.Errorf("%s answers differently:\n%s\nprimary:\n%s", name, got, want)
		}
	}
}
