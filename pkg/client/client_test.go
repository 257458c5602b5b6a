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

// stub is a minimal wire-protocol server that accepts every handshake,
// acknowledges every request unless silent, and records the statements
// it received.
type stub struct {
	ln     net.Listener
	silent atomic.Bool
	mu     sync.Mutex
	rx     []string
	conns  []net.Conn
}

func startStub(t *testing.T) *stub {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := &stub{ln: ln}
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			s.mu.Lock()
			s.conns = append(s.conns, nc)
			s.mu.Unlock()
			go s.serve(nc)
		}
	}()
	t.Cleanup(func() { ln.Close() })
	return s
}

func (s *stub) serve(nc net.Conn) {
	defer nc.Close()
	br := bufio.NewReader(nc)
	bw := bufio.NewWriter(nc)
	var h wire.Hello
	if wire.ReadMsg(br, &h) != nil {
		return
	}
	if wire.WriteMsg(bw, &wire.HelloReply{Server: "stub"}) != nil || bw.Flush() != nil {
		return
	}
	for {
		var req wire.Request
		if wire.ReadMsg(br, &req) != nil {
			return
		}
		s.mu.Lock()
		s.rx = append(s.rx, req.Stmt)
		s.mu.Unlock()
		if s.silent.Load() {
			continue
		}
		if wire.WriteMsg(bw, &wire.Response{ID: req.ID, Text: "ok"}) != nil || bw.Flush() != nil {
			return
		}
	}
}

// hangUp closes every connection the stub accepted.
func (s *stub) hangUp() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, nc := range s.conns {
		nc.Close()
	}
}

// count polls until the stub has received at least want copies of stmt
// (or the deadline passes) and returns the final count.
func (s *stub) count(stmt string, want int) int {
	deadline := time.Now().Add(2 * time.Second)
	for {
		s.mu.Lock()
		n := 0
		for _, r := range s.rx {
			if r == stmt {
				n++
			}
		}
		s.mu.Unlock()
		if n >= want || time.Now().After(deadline) {
			return n
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// faultConn injects transport failures around a live connection.
type faultConn struct {
	net.Conn
	failRead  atomic.Bool
	failWrite atomic.Bool
}

func (f *faultConn) Read(p []byte) (int, error) {
	if f.failRead.Load() {
		f.Conn.Close()
		return 0, errors.New("injected read failure")
	}
	return f.Conn.Read(p)
}

func (f *faultConn) Write(p []byte) (int, error) {
	if f.failWrite.Load() {
		f.Conn.Close()
		return 0, errors.New("injected write failure")
	}
	return f.Conn.Write(p)
}

// inject wraps the client's live connection in a faultConn; callers own
// the client exclusively.
func inject(t *testing.T, c *Client) *faultConn {
	t.Helper()
	if c.nc == nil {
		t.Fatal("client has no connection")
	}
	fc := &faultConn{Conn: c.nc}
	c.nc = fc
	c.br = bufio.NewReader(fc)
	c.bw = bufio.NewWriterSize(fc, 4096)
	return fc
}

// TestCancelUnblocksWait: a server that never replies holds Exec in its
// read until the caller's context is canceled, and the cancellation
// returns it promptly with an error.
func TestCancelUnblocksWait(t *testing.T) {
	s := startStub(t)
	s.silent.Store(true)
	c, err := Dial(s.ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Runs first: a failing run's Exec still holds the client.
	defer s.hangUp()
	const stmt = "retrieve (R.A)"
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := c.Exec(ctx, stmt)
		done <- err
	}()
	if s.count(stmt, 1) != 1 {
		t.Fatal("the request never reached the server")
	}
	canceled := time.Now()
	cancel()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("Exec succeeded against a server that never replies")
		}
		if d := time.Since(canceled); d > time.Second {
			t.Fatalf("Exec returned %v after the cancellation, want under 1s", d)
		}
	case <-time.After(time.Second):
		t.Fatal("Exec still waiting 1s after its context was canceled")
	}
}

// TestMutationNotRetriedAfterSend is the duplicate-apply hazard: the
// request reaches the server, the connection dies before the response,
// and the client must surface ErrUnknownOutcome instead of resending
// the mutation.
func TestMutationNotRetriedAfterSend(t *testing.T) {
	s := startStub(t)
	c, err := Dial(s.ln.Addr().String(), WithUser("u"))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	fc := inject(t, c)
	fc.failRead.Store(true) // the request goes out; the response is lost

	const stmt = `insert into R values (x, y)`
	_, err = c.Exec(context.Background(), stmt)
	if !errors.Is(err, ErrUnknownOutcome) {
		t.Fatalf("lost-response mutation error = %v, want ErrUnknownOutcome", err)
	}
	if n := s.count(stmt, 1); n != 1 {
		t.Fatalf("server received the mutation %d times, want exactly 1 (no auto-retry)", n)
	}

	// The client recovers: the next statement redials and succeeds.
	if _, err := c.Exec(context.Background(), `retrieve (R.A)`); err != nil {
		t.Fatalf("exec after unknown outcome: %v", err)
	}
}

// TestReadRetriedAfterTransportFailure: read-only statements keep the
// transparent retry — a lost response costs one reconnect, not an
// error.
func TestReadRetriedAfterTransportFailure(t *testing.T) {
	s := startStub(t)
	c, err := Dial(s.ln.Addr().String(), WithUser("u"))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	fc := inject(t, c)
	fc.failRead.Store(true)

	const stmt = `retrieve (R.A)`
	res, err := c.Exec(context.Background(), stmt)
	if err != nil || res.Text != "ok" {
		t.Fatalf("read-only retry = %v, %v; want transparent success", res, err)
	}
	// First attempt reached the stub before the injected read failure,
	// then the retry: two copies is the expected at-least-once shape.
	if n := s.count(stmt, 2); n != 2 {
		t.Fatalf("server received the retrieve %d times, want 2 (original + retry)", n)
	}
}

// TestMutationUnknownOnWriteFailure: a failure during the write phase
// is also "possibly sent" (large frames flush mid-write), so mutations
// stay conservative while reads retry.
func TestMutationUnknownOnWriteFailure(t *testing.T) {
	s := startStub(t)
	c, err := Dial(s.ln.Addr().String(), WithUser("u"))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	fc := inject(t, c)
	fc.failWrite.Store(true)

	if _, err := c.Exec(context.Background(), `delete from R where A = x`); !errors.Is(err, ErrUnknownOutcome) {
		t.Fatalf("write-failure mutation error = %v, want ErrUnknownOutcome", err)
	}
	if n := s.count(`delete from R where A = x`, 0); n != 0 {
		t.Fatalf("server received %d deletes, want 0", n)
	}

	res, err := c.Exec(context.Background(), `show meta`)
	if err != nil || res.Text != "ok" {
		t.Fatalf("read-only after write failure = %v, %v", res, err)
	}
}

func TestMutatingStmtClassifier(t *testing.T) {
	mutating := []string{
		`insert into R values (x)`,
		`  DELETE from R where A = 1`,
		`relation R (A, B) key (A)`,
		`view V (R.A)`,
		`drop view V`,
		`permit V to u`,
		`revoke V from u`,
		`garbage statement`, // unknown: conservative
	}
	readOnly := []string{
		`retrieve (R.A)`,
		`  Retrieve (R.A) where R.A = 1`,
		`show meta`,
		`explain retrieve (R.A)`,
		`\stats`,
		``,
		"-- note\nretrieve (R.A)",
	}
	for _, s := range mutating {
		if !mutatingStmt(s) {
			t.Errorf("mutatingStmt(%q) = false, want true", s)
		}
	}
	for _, s := range readOnly {
		if mutatingStmt(s) {
			t.Errorf("mutatingStmt(%q) = true, want false", s)
		}
	}
}
