// The jepsen-lite suite: a three-node cluster whose replication links
// run through chaosnet proxies, driven through seeded schedules of
// partitions, latency, mid-message cuts, duplicate connects, and a
// promotion while the old primary is still accepting writes. After the
// network heals and the ex-primary is fenced, three invariants must
// hold:
//
//	(a) durability: every acknowledged write is in the surviving
//	    timeline or preserved in a DIVERGED quarantine — never silently
//	    lost;
//	(b) the paper's property: every surviving node answers every
//	    principal's queries byte-identically (masking is a pure function
//	    of the replicated meta-database);
//	(c) fencing: no two nodes accepted origin writes in the same epoch.
//
// A deliberately un-fenced build (UnsafeNoFencing) must fail check (c)
// — proving the detector has teeth.
//
// Set CHAOS_SEED to replay one schedule; set CHAOS_HISTORY_DIR to dump
// per-schedule operation histories as JSON lines.
package chaosnet_test

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"authdb"
	"authdb/internal/chaosnet"
	"authdb/internal/engine"
	"authdb/internal/replica"
	"authdb/internal/server"
	"authdb/internal/wire"
	"authdb/internal/workload"
	"authdb/pkg/client"
	"math/rand"
)

const chaosToken = "chaos-token"

// node is one cluster member: a durable engine behind a wire server.
type node struct {
	name string
	dir  string
	db   *authdb.DB
	srv  *server.Server
}

func (n *node) addr() string              { return n.srv.Addr().String() }
func (n *node) eng() *engine.Engine       { return n.db.Engine() }
func (n *node) String() string            { return n.name }
func (n *node) epoch() uint64             { return n.eng().Epoch() }
func (n *node) role() (r string)          { return n.srv.Role() }
func (n *node) metricsText() string       { return n.db.Metrics().Text() }
func (n *node) lsn() (lsn uint64)         { return n.eng().LSN() }
func (n *node) origin() map[uint64]uint64 { return n.eng().OriginWritesByEpoch() }

// startNode boots one durable node. cfg.AdminToken and cfg.Follow are
// forced: a replica follows its (proxied) peers with fast failure
// detection, so schedules converge in test time.
func startNode(t *testing.T, name string, cfg server.Config) *node {
	t.Helper()
	dir := t.TempDir()
	db, err := authdb.OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	cfg.AdminToken = chaosToken
	cfg.Follow = replica.Tuning{
		DialTimeout: time.Second,
		BackoffMin:  10 * time.Millisecond,
		BackoffMax:  250 * time.Millisecond,
	}
	srv := server.New(db, cfg)
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	// Fast failure detection so schedules converge in test time.
	srv.Hub().SetWriteTimeout(250 * time.Millisecond)
	srv.Hub().SetFollowerBuffer(128)
	return &node{name: name, dir: dir, db: db, srv: srv}
}

// history records every operation of one schedule for post-mortems.
type history struct {
	seed    int64
	entries []histEntry
}

type histEntry struct {
	Phase string `json:"phase"`
	Node  string `json:"node"`
	Stmt  string `json:"stmt,omitempty"`
	Event string `json:"event,omitempty"`
	Acked bool   `json:"acked"`
	Err   string `json:"err,omitempty"`
}

func (h *history) op(phase, node, stmt string, err error) {
	e := histEntry{Phase: phase, Node: node, Stmt: stmt, Acked: err == nil}
	if err != nil {
		e.Err = err.Error()
	}
	h.entries = append(h.entries, e)
}

func (h *history) event(phase, desc string) {
	h.entries = append(h.entries, histEntry{Phase: phase, Event: desc, Acked: true})
}

// dump writes the history as JSON lines into CHAOS_HISTORY_DIR (no-op
// when unset); CI uploads these as artifacts on failure.
func (h *history) dump(t *testing.T) {
	dir := os.Getenv("CHAOS_HISTORY_DIR")
	if dir == "" {
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Logf("chaos history: %v", err)
		return
	}
	path := filepath.Join(dir, fmt.Sprintf("history-seed-%d.jsonl", h.seed))
	f, err := os.Create(path)
	if err != nil {
		t.Logf("chaos history: %v", err)
		return
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	for _, e := range h.entries {
		enc.Encode(e)
	}
	t.Logf("chaos history written to %s", path)
}

// adminExec runs one statement on addr as an administrator (no hint
// following: the client is pinned to one node so the history records
// which node acked).
func adminExec(addr, stmt string) error {
	c, err := client.Dial(addr, client.WithAdmin("root", chaosToken),
		client.WithDialTimeout(2*time.Second))
	if err != nil {
		return err
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_, err = c.Exec(ctx, stmt)
	return err
}

// fenceNode delivers the out-of-band fencing signal a monitor would: a
// replication hello announcing the new epoch and leader. The target
// demotes itself and rejoins.
func fenceNode(t *testing.T, target *node, epoch uint64, leader string) {
	t.Helper()
	nc, err := net.Dial("tcp", target.addr())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	bw := bufio.NewWriter(nc)
	if err := wire.WriteMsg(bw, &wire.ReplHello{
		Proto: wire.ProtoVersion, Token: chaosToken,
		Epoch: epoch, Leader: leader,
	}); err != nil {
		t.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	var reply wire.ReplHelloReply
	wire.ReadMsg(bufio.NewReader(nc), &reply)
}

// duplicateConnect opens a second replication stream from an existing
// follower's position, then abandons it — the hub must treat it as
// just another stream and survive its death.
func duplicateConnect(t *testing.T, target *node) {
	t.Helper()
	nc, err := net.Dial("tcp", target.addr())
	if err != nil {
		return // target unreachable mid-chaos: that IS chaos
	}
	defer nc.Close()
	bw := bufio.NewWriter(nc)
	wire.WriteMsg(bw, &wire.ReplHello{
		Proto: wire.ProtoVersion, Token: chaosToken,
		From: target.eng().DurableLSN(), Epoch: target.epoch(),
	})
	bw.Flush()
	var reply wire.ReplHelloReply
	wire.ReadMsg(bufio.NewReader(nc), &reply)
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, d time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// adminQuery runs one retrieve as an administrator and returns the
// rendered answer.
func adminQuery(t *testing.T, addr, stmt string) string {
	t.Helper()
	c, err := client.Dial(addr, client.WithAdmin("root", chaosToken),
		client.WithDialTimeout(2*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	res, err := c.Exec(ctx, stmt)
	if err != nil {
		t.Fatalf("%s on %s: %v", stmt, addr, err)
	}
	return res.Rendered
}

// quarantineBlob concatenates everything under a node's diverged-*
// quarantine directories.
func quarantineBlob(t *testing.T, n *node) string {
	t.Helper()
	var b strings.Builder
	matches, err := filepath.Glob(filepath.Join(n.dir, "diverged-*"))
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range matches {
		filepath.Walk(q, func(path string, info os.FileInfo, err error) error {
			if err != nil || info.IsDir() {
				return nil
			}
			data, err := os.ReadFile(path)
			if err == nil {
				b.Write(data)
			}
			return nil
		})
	}
	return b.String()
}

// dualPrimaryViolation implements invariant (c): it returns a
// description of any epoch in which more than one node accepted origin
// (non-replicated) writes, or "" when the invariant holds.
func dualPrimaryViolation(nodes []*node) string {
	writers := map[uint64][]string{}
	for _, n := range nodes {
		for ep, cnt := range n.origin() {
			if cnt > 0 {
				writers[ep] = append(writers[ep], n.name)
			}
		}
	}
	for ep, who := range writers {
		if len(who) > 1 {
			return fmt.Sprintf("epoch %d accepted origin writes on %v", ep, who)
		}
	}
	return ""
}

// chaosSeeds returns the schedule seeds: CHAOS_SEED pins one, else the
// five distinct default schedules.
func chaosSeeds(t *testing.T) []int64 {
	if s := os.Getenv("CHAOS_SEED"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("CHAOS_SEED %q: %v", s, err)
		}
		return []int64{v}
	}
	return []int64{1, 2, 3, 4, 5}
}

// TestChaosSchedules runs the fenced build through every seeded
// schedule and checks all three invariants after convergence.
func TestChaosSchedules(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos schedules are slow")
	}
	for _, seed := range chaosSeeds(t) {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runChaosSchedule(t, seed)
		})
	}
}

func runChaosSchedule(t *testing.T, seed int64) {
	t.Logf("CHAOS_SEED=%d (set the env var to replay this schedule)", seed)
	rng := rand.New(rand.NewSource(seed))
	hist := &history{seed: seed}
	defer hist.dump(t)

	// Topology: A starts as primary; B and C follow it through chaos
	// proxies. C also knows B's (proxied) address for re-homing after
	// the failover. Each proxy exists before the node that dials
	// through it.
	a := startNode(t, "A", server.Config{})
	pBA, err := chaosnet.New("B->A", a.addr(), seed)
	if err != nil {
		t.Fatal(err)
	}
	defer pBA.Close()
	pCA, err := chaosnet.New("C->A", a.addr(), seed+1)
	if err != nil {
		t.Fatal(err)
	}
	defer pCA.Close()
	b := startNode(t, "B", server.Config{Replica: true, Peers: []string{pBA.Addr()}})
	pCB, err := chaosnet.New("C->B", b.addr(), seed+2)
	if err != nil {
		t.Fatal(err)
	}
	defer pCB.Close()
	c := startNode(t, "C", server.Config{Replica: true, Peers: []string{pCA.Addr(), pCB.Addr()}})
	nodes := []*node{a, b, c}

	// Phase 1: baseline load — the paper's schema plus a write feed —
	// replicated to everyone, under mild random chaos.
	a.db.Admin().MustExecScript(workload.PaperScript)
	a.db.Admin().MustExecScript("relation FEED (K, V) key (K);\n")
	if rng.Intn(2) == 0 {
		lat := time.Duration(rng.Intn(10)+1) * time.Millisecond
		pBA.SetLatency(lat, lat)
		hist.event("p1", fmt.Sprintf("latency %v on B->A", lat))
	}
	if rng.Intn(2) == 0 {
		pCA.CutAfter(int64(rng.Intn(200) + 50))
		hist.event("p1", "armed mid-message cut on C->A")
	}
	var acked []string
	write := func(phase, addr, nodeName, key string) {
		stmt := fmt.Sprintf("insert into FEED values (%s, v)", key)
		err := adminExec(addr, stmt)
		hist.op(phase, nodeName, stmt, err)
		if err == nil {
			acked = append(acked, key)
		}
	}
	for i := 0; i < 5+rng.Intn(5); i++ {
		write("p1", a.addr(), "A", fmt.Sprintf("p1-%d", i))
	}
	if rng.Intn(2) == 0 {
		duplicateConnect(t, a)
		hist.event("p1", "duplicate follower connect to A")
	}
	waitFor(t, "replicas catching up", 20*time.Second, func() bool {
		return b.lsn() == a.lsn() && c.lsn() == a.lsn()
	})
	pBA.Heal()
	pCA.Heal()

	// Phase 2: partition A away from both followers, then keep writing
	// to it — acknowledged writes that can no longer replicate.
	pBA.Partition()
	pCA.Partition()
	hist.event("p2", "partitioned A from B and C")
	for i := 0; i < 3+rng.Intn(4); i++ {
		write("p2", a.addr(), "A", fmt.Sprintf("split-%d", i))
	}

	// Phase 3: promote B; the cluster moves on without A.
	if err := adminExec(b.addr(), `\promote`); err != nil {
		t.Fatalf("promoting B: %v", err)
	}
	hist.event("p3", "promoted B")
	waitFor(t, "B serving as primary", 10*time.Second, func() bool { return b.role() == "primary" })
	for i := 0; i < 3+rng.Intn(4); i++ {
		write("p3", b.addr(), "B", fmt.Sprintf("new-%d", i))
	}
	if rng.Intn(2) == 0 {
		pCB.CutAfter(int64(rng.Intn(300) + 100))
		hist.event("p3", "armed mid-message cut on C->B")
	}
	if rng.Intn(2) == 0 {
		duplicateConnect(t, b)
		hist.event("p3", "duplicate follower connect to B")
	}

	// Phase 4: heal the network and fence the stale primary. A must
	// demote, quarantine its divergent suffix, and rejoin under B.
	pBA.Heal()
	pCA.Heal()
	pCB.Heal()
	hist.event("p4", "healed all links")
	fenceNode(t, a, b.epoch(), b.addr())
	hist.event("p4", "fenced A")

	// Phase 5: convergence. Every node ends on B's epoch with
	// byte-identical state.
	waitFor(t, "cluster convergence", 30*time.Second, func() bool {
		if a.role() != "replica" || b.role() != "primary" || c.role() != "replica" {
			return false
		}
		if a.epoch() != b.epoch() || c.epoch() != b.epoch() {
			return false
		}
		if a.lsn() != b.lsn() || c.lsn() != b.lsn() {
			return false
		}
		return true
	})
	const feedQuery = "retrieve (FEED.K, FEED.V)"
	feedB := adminQuery(t, b.addr(), feedQuery)
	if got := adminQuery(t, a.addr(), feedQuery); got != feedB {
		t.Fatalf("A's FEED differs from B's after convergence:\nA: %s\nB: %s", got, feedB)
	}
	if got := adminQuery(t, c.addr(), feedQuery); got != feedB {
		t.Fatalf("C's FEED differs from B's after convergence:\nC: %s\nB: %s", got, feedB)
	}

	// Invariant (a): every acked write survives — in the final timeline
	// or in a quarantine.
	quarantines := quarantineBlob(t, a) + quarantineBlob(t, b) + quarantineBlob(t, c)
	for _, key := range acked {
		if !strings.Contains(feedB, key) && !strings.Contains(quarantines, key) {
			t.Errorf("acked write %q lost: not in the final state nor any quarantine", key)
		}
	}

	// Invariant (b): byte-identical masked answers per principal on
	// every node.
	queries := []string{
		"retrieve (EMPLOYEE.NAME, EMPLOYEE.SALARY)",
		"retrieve (PROJECT.NUMBER, PROJECT.SPONSOR, PROJECT.BUDGET)",
	}
	for _, user := range []string{"Brown", "Klein", "Nobody"} {
		for _, q := range queries {
			var want string
			for i, n := range nodes {
				cl, err := client.Dial(n.addr(), client.WithUser(user))
				if err != nil {
					t.Fatalf("dial %s: %v", n.name, err)
				}
				res, err := cl.Exec(context.Background(), q)
				cl.Close()
				if err != nil {
					t.Fatalf("%s on %s for %s: %v", q, n.name, user, err)
				}
				if i == 0 {
					want = res.Rendered
				} else if res.Rendered != want {
					t.Errorf("node %s answers %q differently for %s", n.name, q, user)
				}
			}
		}
	}

	// Invariant (c): no epoch has two origin-writers.
	if v := dualPrimaryViolation(nodes); v != "" {
		t.Errorf("dual primary: %s", v)
	}

	// The fenced ex-primary must have quarantined its split-brain
	// writes (they were acked under epoch 1 past the fork).
	if strings.Contains(strings.Join(acked, " "), "split-") &&
		!strings.Contains(quarantineBlob(t, a), "split-") {
		t.Error("A's divergent split-brain writes left no quarantine")
	}

	// Failover observability: epoch and role visible in metrics.
	if !strings.Contains(b.metricsText(), "authdb_repl_epoch 2") {
		t.Error("B's metrics do not report epoch 2")
	}
	if !strings.Contains(b.metricsText(), `authdb_role{role="primary"} 1`) {
		t.Error("B's metrics do not report the primary role")
	}
}

// TestChaosUnfencedBuildFailsDualPrimaryCheck proves the detector has
// teeth: with fencing disabled, a promotion during a partition yields
// two nodes accepting writes in the same epoch, and invariant (c)
// flags it.
func TestChaosUnfencedBuildFailsDualPrimaryCheck(t *testing.T) {
	a := startNode(t, "A", server.Config{UnsafeNoFencing: true})
	p, err := chaosnet.New("B->A", a.addr(), 42)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	b := startNode(t, "B", server.Config{
		Replica: true, Peers: []string{p.Addr()}, UnsafeNoFencing: true,
	})

	a.db.Admin().MustExecScript("relation FEED (K, V) key (K);\n")
	if err := adminExec(a.addr(), "insert into FEED values (base, v)"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "B catching up", 20*time.Second, func() bool { return b.lsn() == a.lsn() })

	p.Partition()
	// Promote B with no epoch bump (the unsafe build), then write on
	// BOTH sides of the partition.
	if err := adminExec(b.addr(), `\promote`); err != nil {
		t.Fatalf("promoting B: %v", err)
	}
	if err := adminExec(a.addr(), "insert into FEED values (a-side, v)"); err != nil {
		t.Fatalf("write on A: %v", err)
	}
	if err := adminExec(b.addr(), "insert into FEED values (b-side, v)"); err != nil {
		t.Fatalf("write on B: %v", err)
	}
	if a.epoch() != b.epoch() {
		t.Fatalf("unsafe build bumped the epoch (%d vs %d)", a.epoch(), b.epoch())
	}

	v := dualPrimaryViolation([]*node{a, b})
	if v == "" {
		t.Fatal("un-fenced split brain was NOT detected by the dual-primary check")
	}
	t.Logf("dual-primary check correctly flagged: %s", v)
}
