// Tests for the cluster-aware half of the client: address rotation,
// leader-hint following, and the jittered reconnect backoff.
package client

import (
	"bufio"
	"context"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"authdb/internal/wire"
)

// hintStub is a wire-protocol server that refuses every request with a
// READ_ONLY error naming another address — the shape a replica answers
// mutations with.
type hintStub struct {
	ln     net.Listener
	leader string
	hits   atomic.Int64
}

func startHintStub(t *testing.T, leader string) *hintStub {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := &hintStub{ln: ln, leader: leader}
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer nc.Close()
				br, bw := bufio.NewReader(nc), bufio.NewWriter(nc)
				var h wire.Hello
				if wire.ReadMsg(br, &h) != nil {
					return
				}
				if wire.WriteMsg(bw, &wire.HelloReply{Server: "hintstub"}) != nil || bw.Flush() != nil {
					return
				}
				for {
					var req wire.Request
					if wire.ReadMsg(br, &req) != nil {
						return
					}
					s.hits.Add(1)
					resp := &wire.Response{ID: req.ID, Error: &wire.Error{
						Code: wire.CodeReadOnly, Message: "read-only replica",
						Leader: s.leader, Retryable: true,
					}}
					if wire.WriteMsg(bw, resp) != nil || bw.Flush() != nil {
						return
					}
				}
			}()
		}
	}()
	t.Cleanup(func() { ln.Close() })
	return s
}

// TestClientFollowsLeaderHint: a mutation sent to a replica is refused
// with a leader hint, and the client transparently re-targets the
// leader — the refusal happens before the statement touches the
// engine, so the at-most-once contract is intact.
func TestClientFollowsLeaderHint(t *testing.T) {
	leader := startStub(t)
	replicaStub := startHintStub(t, leader.ln.Addr().String())

	c, err := DialCluster([]string{replicaStub.ln.Addr().String()}, WithUser("u"))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const stmt = `insert into R values (x)`
	res, err := c.Exec(context.Background(), stmt)
	if err != nil || res.Text != "ok" {
		t.Fatalf("hinted mutation = %v, %v; want success on the leader", res, err)
	}
	if got := c.Addr(); got != leader.ln.Addr().String() {
		t.Fatalf("client connected to %q, want the hinted leader %q", got, leader.ln.Addr())
	}
	if n := leader.count(stmt, 1); n != 1 {
		t.Fatalf("leader received the mutation %d times, want exactly 1", n)
	}
	if replicaStub.hits.Load() != 1 {
		t.Fatalf("replica answered %d requests, want 1", replicaStub.hits.Load())
	}
}

// TestPlainDialStaysPinned: a single-address Dial client does NOT
// follow leader hints — the refusal surfaces, with the hint on the
// error, so a caller pinned to one node sees that node's answer.
func TestPlainDialStaysPinned(t *testing.T) {
	leader := startStub(t)
	replicaStub := startHintStub(t, leader.ln.Addr().String())

	c, err := Dial(replicaStub.ln.Addr().String(), WithUser("u"))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	_, err = c.Exec(context.Background(), `insert into R values (x)`)
	var se *ServerError
	if !errors.As(err, &se) || se.Code != wire.CodeReadOnly {
		t.Fatalf("pinned mutation err = %v, want the READ_ONLY refusal", err)
	}
	if se.Leader != leader.ln.Addr().String() {
		t.Fatalf("refusal Leader = %q, want %q", se.Leader, leader.ln.Addr())
	}
	if n := leader.count(`insert into R values (x)`, 0); n != 0 {
		t.Fatalf("leader received %d requests from a pinned client, want 0", n)
	}
}

// TestDialClusterRotatesPastDeadNodes: the constructor tries each
// address until one accepts.
func TestDialClusterRotatesPastDeadNodes(t *testing.T) {
	live := startStub(t)
	var dials []string
	var mu sync.Mutex
	dialer := func(ctx context.Context, addr string) (net.Conn, error) {
		mu.Lock()
		dials = append(dials, addr)
		mu.Unlock()
		if addr == "dead.invalid:1" {
			return nil, errors.New("injected dial failure")
		}
		var d net.Dialer
		return d.DialContext(ctx, "tcp", addr)
	}
	c, err := DialCluster([]string{"dead.invalid:1", live.ln.Addr().String()},
		WithUser("u"), WithDialer(dialer))
	if err != nil {
		t.Fatalf("DialCluster: %v", err)
	}
	defer c.Close()
	if got := c.Addr(); got != live.ln.Addr().String() {
		t.Fatalf("connected to %q, want the live node", got)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(dials) != 2 || dials[0] != "dead.invalid:1" {
		t.Fatalf("dial sequence %v, want the dead node first, then the live one", dials)
	}
}

// TestReconnectBackoffDoublesCapsAndResets pins the client's use of the
// shared reconnect policy, whose doubling, cap and jitter TestRedial in
// internal/wire pins: WithBackoff sets its bounds, a backoff wait is
// abandoned when the context dies, and a successful handshake resets the
// backoff.
func TestReconnectBackoffDoublesCapsAndResets(t *testing.T) {
	s := startStub(t)
	var down atomic.Bool
	dialer := func(ctx context.Context, addr string) (net.Conn, error) {
		if down.Load() {
			return nil, errors.New("injected dial failure")
		}
		var d net.Dialer
		return d.DialContext(ctx, "tcp", addr)
	}
	c, err := Dial(s.ln.Addr().String(), WithUser("u"), WithDialer(dialer), WithBackoff(time.Hour, 8*time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.redial.Min != time.Hour || c.redial.Max != 8*time.Hour {
		t.Fatalf("backoff bounds = %v, %v; want 1h, 8h", c.redial.Min, c.redial.Max)
	}

	// A failed redial waits about an hour, unless the context dies.
	inject(t, c).failRead.Store(true)
	down.Store(true)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	if _, err := c.Exec(ctx, `retrieve (R.A)`); err == nil {
		t.Fatal("read with every dial failing succeeded")
	}
	if el := time.Since(start); el > 10*time.Second {
		t.Fatalf("Exec returned after %v: the backoff wait ignored the dead context", el)
	}

	// A successful handshake resets the backoff: grown to its 8h cap, it
	// draws around the 1h minimum again after the reconnect.
	c.redial.Delay()
	c.redial.Delay()
	down.Store(false)
	if _, err := c.Exec(context.Background(), `retrieve (R.A)`); err != nil {
		t.Fatalf("read across reconnect: %v", err)
	}
	if d := c.redial.Delay(); d >= 3*time.Hour/2 {
		t.Fatalf("wait after a successful reconnect = %v, want one drawn around the 1h minimum", d)
	}
}

// TestReconnectSurvivesInjectedDialFailures is the fault-injecting
// dialer test: a broken connection plus a failing redial must end in a
// successful retry (for reads) once the dialer recovers, with the
// backoff machinery in between.
func TestReconnectSurvivesInjectedDialFailures(t *testing.T) {
	s := startStub(t)
	var dialCount atomic.Int64
	dialer := func(ctx context.Context, addr string) (net.Conn, error) {
		if dialCount.Add(1) == 2 {
			return nil, errors.New("injected dial failure")
		}
		var d net.Dialer
		return d.DialContext(ctx, "tcp", addr)
	}
	c, err := Dial(s.ln.Addr().String(), WithUser("u"),
		WithDialer(dialer), WithBackoff(time.Millisecond, 4*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	fc := inject(t, c)
	fc.failRead.Store(true) // kill the live connection on first use

	res, err := c.Exec(context.Background(), `retrieve (R.A)`)
	if err != nil || res.Text != "ok" {
		t.Fatalf("read across dial failures = %v, %v; want success", res, err)
	}
	if n := dialCount.Load(); n != 3 {
		t.Fatalf("dialer called %d times, want 3 (initial, injected failure, recovery)", n)
	}
}
