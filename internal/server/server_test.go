// End-to-end tests of the network server, driven through pkg/client:
// masking parity with local sessions per authenticated principal,
// concurrent connections, structured error codes over the wire,
// backpressure, idle-timeout reconnects, graceful-shutdown durability,
// and the metrics endpoints.
package server_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"authdb"
	"authdb/bench/fixture"
	"authdb/internal/server"
	"authdb/internal/wire"
	"authdb/internal/workload"
	"authdb/pkg/client"
)

// startServer boots a server for db and tears it down with the test.
func startServer(t *testing.T, db *authdb.DB, cfg server.Config) *server.Server {
	t.Helper()
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

// paperDB loads the paper's Figure 1 fixture (EMPLOYEE/PROJECT/
// ASSIGNMENT, views SAE/ELP/EST/PSA, permits for Brown and Klein).
func paperDB(t *testing.T) *authdb.DB {
	t.Helper()
	db := authdb.Open()
	db.Admin().MustExecScript(workload.PaperScript)
	return db
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

func exec(t *testing.T, c *client.Client, stmt string) *client.Result {
	t.Helper()
	res, err := c.Exec(context.Background(), stmt)
	if err != nil {
		t.Fatalf("%s: %v", stmt, err)
	}
	return res
}

// rawConn speaks the wire protocol directly, so a test can look at the
// reply frames as the server sent them.
type rawConn struct {
	nc net.Conn
	br *bufio.Reader
	id uint64
}

func dialRaw(t *testing.T, addr string, hello wire.Hello) *rawConn {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	r := &rawConn{nc: nc, br: bufio.NewReader(nc)}
	if err := wire.WriteMsg(nc, &hello); err != nil {
		t.Fatal(err)
	}
	var reply wire.HelloReply
	if err := wire.ReadMsg(r.br, &reply); err != nil || reply.Error != nil {
		t.Fatalf("raw handshake as %s: %+v, %v", hello.User, reply, err)
	}
	return r
}

// frame sends stmt and returns the payload of the reply frame as the
// server sent it.
func (r *rawConn) frame(stmt string) ([]byte, error) {
	r.id++
	if err := wire.WriteMsg(r.nc, &wire.Request{ID: r.id, Stmt: stmt}); err != nil {
		return nil, err
	}
	return wire.ReadFrame(r.br)
}

// reply sends stmt and decodes the reply frame as the server sent it,
// with wire.DecodeResponse: a frame outside the protocol-3 format fails
// the test.
func (r *rawConn) reply(t *testing.T, stmt string) wire.Response {
	t.Helper()
	frame, err := r.frame(stmt)
	if err != nil {
		t.Fatalf("%s: %v", stmt, err)
	}
	var resp wire.Response
	if err := wire.DecodeResponse(frame, &resp); err != nil {
		t.Fatalf("%s: reply %q: %v", stmt, frame, err)
	}
	if resp.ID != r.id {
		t.Fatalf("%s: reply id %d, want %d", stmt, resp.ID, r.id)
	}
	return resp
}

// TestServeMatchesLocalPerUser is the core authorization property over
// the network: each connection's answers are exactly what a local
// session for that principal gets — same masks, same rendering — and
// the reply frame carries the answer once, structured, with the text
// rendered by the client.
func TestServeMatchesLocalPerUser(t *testing.T) {
	db := paperDB(t)
	s := startServer(t, db, server.Config{})
	addr := s.Addr().String()

	queries := []string{
		"retrieve (EMPLOYEE.NAME, EMPLOYEE.SALARY)",
		"retrieve (EMPLOYEE.NAME, EMPLOYEE.TITLE, EMPLOYEE.SALARY)",
		"retrieve (PROJECT.NUMBER, PROJECT.SPONSOR, PROJECT.BUDGET)",
		"retrieve (EMPLOYEE.NAME, PROJECT.NUMBER) where EMPLOYEE.NAME = ASSIGNMENT.E_NAME and PROJECT.NUMBER = ASSIGNMENT.P_NO",
		workload.Example3Query,
	}
	// Every reply shape must come up: seen counts them.
	seen := map[string]int{}
	for _, p := range []struct {
		user  string
		admin bool
		stmts []string
	}{
		{"Brown", false, queries},
		{"Klein", false, queries},
		{"Nobody", false, queries},
		{"root", true, []string{queries[0], "show permissions", `\stats`}},
	} {
		opt := client.WithUser(p.user)
		if p.admin {
			opt = client.WithAdmin(p.user, "")
		}
		c := dial(t, addr, opt)
		raw := dialRaw(t, addr, wire.Hello{Proto: wire.ProtoVersion, User: p.user, Admin: p.admin})
		local := db.SessionFor(p.user, p.admin)
		for _, q := range p.stmts {
			got := exec(t, c, q)
			want, err := local.Dispatch(context.Background(), q)
			if err != nil {
				t.Fatalf("local %s for %s: %v", q, p.user, err)
			}
			// \stats prints counters that move with every request, so
			// two executions never agree; its text is checked against
			// itself.
			if q == `\stats` {
				want.Text = got.Text
			}
			if got.Rendered != want.Render() {
				t.Errorf("user %s, %s:\nserver:\n%s\nlocal:\n%s", p.user, q, got.Rendered, want.Render())
			}
			if got.Denied != want.Denied || got.FullyAuthorized != want.FullyAuthorized {
				t.Errorf("user %s, %s: flags (denied %v, full %v) want (%v, %v)",
					p.user, q, got.Denied, got.FullyAuthorized, want.Denied, want.FullyAuthorized)
			}
			frame := raw.reply(t, q)
			if frame.Rendered != "" {
				t.Errorf("user %s, %s: reply frame carries rendered text: %s", p.user, q, frame.Rendered)
			}
			switch {
			case frame.Table == nil && got.Text != "":
				seen["text"]++
			case got.FullyAuthorized:
				seen["full"]++
			case got.Denied:
				seen["denied"]++
			case len(got.Permits) > 0:
				seen["partial"]++
			}
		}
	}
	for _, shape := range []string{"text", "full", "denied", "partial"} {
		if seen[shape] == 0 {
			t.Errorf("no %s reply among the statements: %v", shape, seen)
		}
	}
	// An error reply decodes too.
	raw := dialRaw(t, addr, wire.Hello{Proto: wire.ProtoVersion, User: "Brown"})
	if frame := raw.reply(t, "retrieve !"); frame.Error == nil || frame.Error.Code != wire.CodeParse {
		t.Errorf("parse failure replied without a parse error: %+v", frame)
	}

	// The unmasked administrator view, for contrast.
	admin := dial(t, addr, client.WithAdmin("root", ""))
	res := exec(t, admin, "retrieve (EMPLOYEE.NAME, EMPLOYEE.SALARY)")
	if !res.FullyAuthorized {
		t.Errorf("admin retrieve not fully authorized: %+v", res)
	}
	if len(res.Rows) != 3 {
		t.Errorf("admin rows = %d, want 3", len(res.Rows))
	}
	// And a denied principal really gets nothing.
	nobody := dial(t, addr, client.WithUser("Nobody"))
	if res := exec(t, nobody, "retrieve (EMPLOYEE.SALARY)"); !res.Denied {
		t.Errorf("unpermitted principal not denied: %+v", res)
	}
}

// TestNetworkCellsMatchInProcess: a network client gets every cell
// byte for byte as an in-process session does, and so the same
// rendering, even for bytes a text encoding would rewrite: invalid
// UTF-8, U+2028 and the HTML-significant <&>.
func TestNetworkCellsMatchInProcess(t *testing.T) {
	db := authdb.Open()
	db.Admin().MustExecScript("relation R (A, B) key (A);\n" +
		"insert into R values (1, \"x\xffy\");\n" +
		"insert into R values (2, \"\u2028<&>\");\n" +
		"view V (R.A, R.B);\n" +
		"permit V to u;\n")
	s := startServer(t, db, server.Config{})
	const q = "retrieve (R.A, R.B)"
	got := exec(t, dial(t, s.Addr().String(), client.WithUser("u")), q)
	want := db.Session("u").MustExec(q)
	if len(got.Rows) != len(want.Table.Rows) {
		t.Fatalf("%d rows over the network, %d in process", len(got.Rows), len(want.Table.Rows))
	}
	for i, row := range want.Table.Rows {
		for j, c := range row {
			if got.Rows[i][j] != c.String() {
				t.Errorf("row %d column %d: network %q, in process %q", i, j, got.Rows[i][j], c.String())
			}
		}
	}
	if got.Rendered != want.Render() {
		t.Errorf("rendered over the network:\n%s\nin process:\n%s", got.Rendered, want.Render())
	}
}

// TestServeConcurrentConnections drives 64 simultaneous clients, a mix
// of principals, each issuing several statements. Run under -race this
// is the concurrency audit of the whole stack (accept loop, sessions,
// mask closure, metrics).
func TestServeConcurrentConnections(t *testing.T) {
	db := paperDB(t)
	s := startServer(t, db, server.Config{MaxConns: 128})
	addr := s.Addr().String()

	const conns = 64
	users := []string{"Brown", "Klein", "Nobody"}
	var wg sync.WaitGroup
	errCh := make(chan error, conns)
	for i := 0; i < conns; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var c *client.Client
			var err error
			if i%8 == 0 {
				c, err = client.Dial(addr, client.WithAdmin("root", ""))
			} else {
				c, err = client.Dial(addr, client.WithUser(users[i%len(users)]))
			}
			if err != nil {
				errCh <- fmt.Errorf("conn %d: dial: %w", i, err)
				return
			}
			defer c.Close()
			stmts := []string{
				"retrieve (EMPLOYEE.NAME, EMPLOYEE.SALARY)",
				"retrieve (PROJECT.NUMBER, PROJECT.SPONSOR)",
				"retrieve (EMPLOYEE.NAME, EMPLOYEE.TITLE) where EMPLOYEE.SALARY >= 25000",
			}
			if i%8 == 0 {
				// Administrators also mutate, exercising the write path
				// and mask-cache invalidation under load.
				stmts = append(stmts, fmt.Sprintf("insert into EMPLOYEE values (extra%d, clerk, %d)", i, 20000+i))
			}
			for _, q := range stmts {
				if _, err := c.Exec(context.Background(), q); err != nil {
					errCh <- fmt.Errorf("conn %d: %s: %w", i, q, err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
}

// TestConcurrentFirstReadsShareSection has 16 connections, of 16
// principals holding the same views, read Example 3 on the benchmark's
// paper fixture at once from a cold closure: the first replies race to
// build the entry's encoded section. Every reply must be the frame the
// closure-off database writes, and the section kept must be a fresh
// encode of the same rows. Run with -race.
func TestConcurrentFirstReadsShareSection(t *testing.T) {
	const conns = 16
	script := fixture.PaperScript(fixture.DefaultPaper())
	for i := 0; i < conns; i++ {
		script += fmt.Sprintf("permit SAE to r%d;\npermit EST to r%d;\n", i, i)
	}
	on, off := authdb.Open(), authdb.Open(authdb.Options{})
	on.Admin().MustExecScript(script)
	off.Admin().MustExecScript(script)
	offReply, err := off.Session("r0").Reply(context.Background(), 1, fixture.Example3)
	if err != nil {
		t.Fatal(err)
	}
	want, err := wire.AppendResponse(nil, &offReply)
	if err != nil {
		t.Fatal(err)
	}

	addr := startServer(t, on, server.Config{MaxConns: 2 * conns}).Addr().String()
	raws := make([]*rawConn, conns)
	for i := range raws {
		raws[i] = dialRaw(t, addr, wire.Hello{Proto: wire.ProtoVersion, User: fmt.Sprintf("r%d", i)})
	}
	start := make(chan struct{})
	errCh := make(chan error, conns)
	var wg sync.WaitGroup
	for i, r := range raws {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			got, err := r.frame(fixture.Example3)
			switch {
			case err != nil:
				errCh <- fmt.Errorf("r%d: %w", i, err)
			case !bytes.Equal(got, want):
				errCh <- fmt.Errorf("r%d: a %d-byte reply, want the closure-off reply's %d bytes", i, len(got), len(want))
			}
		}()
	}
	close(start)
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}

	st := on.Engine().MaskClosureStats()
	if st.Entries != 1 {
		t.Fatalf("16 principals holding the same views fill %d closure entries, want 1: %+v", st.Entries, st)
	}
	resp, err := on.Session("r0").Reply(context.Background(), 1, fixture.Example3)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Table == nil || resp.Table.Section == nil {
		t.Fatalf("a closure hit replied without the entry's section: %+v", resp.Table)
	}
	fresh, err := wire.AppendTableSection(nil, offReply.Table)
	if err != nil {
		t.Fatal(err)
	}
	if kept := resp.Table.Section; !bytes.Equal(kept, fresh) || st.ReplyBytes != len(kept) {
		t.Errorf("kept section: %d bytes (%d counted), a fresh encode %d; equal: %v",
			len(kept), st.ReplyBytes, len(fresh), bytes.Equal(kept, fresh))
	}
}

// TestWireErrorCodes checks the statement-failure taxonomy as clients
// observe it: structured codes, parse positions, retryability.
func TestWireErrorCodes(t *testing.T) {
	db := paperDB(t)
	s := startServer(t, db, server.Config{})
	c := dial(t, s.Addr().String(), client.WithUser("Brown"))

	wantCode := func(stmt, code string) *client.ServerError {
		t.Helper()
		_, err := c.Exec(context.Background(), stmt)
		var se *client.ServerError
		if !errors.As(err, &se) || se.Code != code {
			t.Fatalf("%s: error = %v, want code %s", stmt, err, code)
		}
		return se
	}

	if se := wantCode("retrieve !", wire.CodeParse); se.Line != 1 || se.Col == 0 || se.Retryable {
		t.Errorf("parse error = %+v, want line 1 with a column, not retryable", se)
	}
	wantCode("view V (EMPLOYEE.NAME)", wire.CodeNotAuthorized)
	wantCode("retrieve (NOPE.A)", wire.CodeExec)
	wantCode(`\nonsense`, wire.CodeExec)

	// A server with a one-row budget turns any product into a
	// BUDGET_EXCEEDED; one with an already-expired statement timeout
	// turns everything into a retryable CANCELED.
	tight := startServer(t, paperDB(t), server.Config{Limits: authdb.Limits{MaxIntermediateRows: 1}})
	ct := dial(t, tight.Addr().String(), client.WithUser("Brown"))
	_, err := ct.Exec(context.Background(), "retrieve (EMPLOYEE:1.NAME, EMPLOYEE:2.NAME)")
	var se *client.ServerError
	if !errors.As(err, &se) || se.Code != wire.CodeBudget || se.Retryable {
		t.Errorf("budget error = %v, want %s, not retryable", err, wire.CodeBudget)
	}
	// The guard consults deadlines at tuple-batch (1024-row) granularity,
	// so the statement must produce more than one batch: ASSIGNMENT has 6
	// rows, a four-way self product is 1296.
	slow := startServer(t, paperDB(t), server.Config{Limits: authdb.Limits{Timeout: time.Nanosecond}})
	cs := dial(t, slow.Addr().String(), client.WithUser("Brown"))
	_, err = cs.Exec(context.Background(),
		"retrieve (ASSIGNMENT:1.E_NAME, ASSIGNMENT:2.E_NAME, ASSIGNMENT:3.E_NAME, ASSIGNMENT:4.E_NAME)")
	if !errors.As(err, &se) || se.Code != wire.CodeCanceled || !se.Retryable {
		t.Errorf("canceled error = %v, want retryable %s", err, wire.CodeCanceled)
	}
}

// TestHandshakeRejections covers the authentication gate: bad protocol
// version, a protocol-6 peer's JSON handshake either way, malformed
// user, bad admin token, good admin token.
func TestHandshakeRejections(t *testing.T) {
	db := paperDB(t)
	s := startServer(t, db, server.Config{AdminToken: "s3cret"})
	addr := s.Addr().String()

	// Wrong protocol version, spoken raw: an unknown one, version 8,
	// whose client would refuse a front-coded table, version 7, whose
	// REPL_HELLO carried a follower name, version 6, whose
	// handshakes and requests were JSON (a binary hello claiming it),
	// version 5, whose replication batches were JSON, version 4, whose
	// snapshots rode inside the handshake reply, version 3, whose
	// snapshots carried CSV, version 2, whose replies were JSON, and
	// version 1, whose replies carried rendered text.
	for _, proto := range []int{99, 8, 7, 6, 5, 4, 3, 2, 1} {
		nc, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer nc.Close()
		if err := wire.WriteMsg(nc, &wire.Hello{Proto: proto, User: "x"}); err != nil {
			t.Fatal(err)
		}
		var reply wire.HelloReply
		if err := wire.ReadMsg(bufio.NewReader(nc), &reply); err != nil {
			t.Fatal(err)
		}
		if reply.Error == nil || reply.Error.Code != wire.CodeProtocol {
			t.Errorf("proto %d reply = %+v, want %s", proto, reply, wire.CodeProtocol)
		}
	}

	// What a replication follower of earlier builds sends first: a
	// REPL_HELLO, tag 0xfb, in protocol 9's layout (Proto, Token, From,
	// Epoch, Leader) and in protocol 7's, which had a name after From.
	// No message has the tag now, so the server closes the connection
	// unanswered and no stream opens.
	str := func(p []byte, s string) []byte { return append(binary.AppendUvarint(p, uint64(len(s))), s...) }
	replHello := func(proto int64, name ...string) string {
		p := binary.AppendVarint([]byte{0xfb}, proto)
		p = binary.AppendUvarint(str(p, "s3cret"), 0) // Token, From
		for _, n := range name {
			p = str(p, n)
		}
		p = binary.AppendUvarint(p, 1) // Epoch
		return string(str(p, ""))      // Leader
	}
	// What a protocol-6 peer really sends: a JSON hello or repl_hello.
	// Neither opens with a tag, so the server closes the connection
	// without a reply, as it does on a hello cut short.
	for _, first := range []string{
		replHello(wire.ProtoVersion),
		replHello(7, "r1"),
		`{"proto":6,"user":"u"}`,
		`{"kind":"repl_hello","proto":6,"token":"s3cret","from":0,"epoch":1}`,
		string([]byte{byte(wire.KindHello), 14}),
	} {
		nc, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer nc.Close()
		if err := wire.WriteFrame(nc, []byte(first)); err != nil {
			t.Fatal(err)
		}
		nc.SetReadDeadline(time.Now().Add(5 * time.Second))
		br := bufio.NewReader(nc)
		replies := 0
		for ; ; replies++ {
			if _, err = wire.ReadFrame(br); err != nil {
				break
			}
		}
		if err != io.EOF || replies > 0 {
			t.Errorf("first frame %q: %d replies, then %v; want none, and the connection closed", first, replies, err)
		}
	}

	// A protocol-6 server answers a hello with a JSON HelloReply, which
	// is no HelloReply frame: Dial fails at the handshake.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		defer nc.Close()
		if _, err := wire.ReadFrame(bufio.NewReader(nc)); err == nil {
			wire.WriteFrame(nc, []byte(`{"ok":true,"server":"authdb/1"}`))
		}
	}()
	if _, err := client.Dial(ln.Addr().String(), client.WithUser("u")); err == nil ||
		!strings.Contains(err.Error(), "handshake") {
		t.Errorf("dialing a protocol-6 server: %v, want a handshake error", err)
	}

	if _, err := client.Dial(addr, client.WithUser("two words")); err == nil {
		t.Error("malformed user accepted")
	}
	var se *client.ServerError
	if _, err := client.Dial(addr, client.WithAdmin("root", "wrong")); !errors.As(err, &se) || se.Code != wire.CodeNotAuthorized {
		t.Errorf("bad admin token error = %v, want %s", err, wire.CodeNotAuthorized)
	}
	good := dial(t, addr, client.WithAdmin("root", "s3cret"))
	exec(t, good, "retrieve (EMPLOYEE.NAME)")
}

// TestAcceptBackpressure: with a single connection slot, a second dial
// waits in the kernel backlog (its handshake never answered) until the
// first connection departs.
func TestAcceptBackpressure(t *testing.T) {
	db := paperDB(t)
	s := startServer(t, db, server.Config{MaxConns: 1})
	addr := s.Addr().String()

	c1 := dial(t, addr, client.WithUser("Brown"))
	exec(t, c1, "retrieve (EMPLOYEE.NAME)")

	if _, err := client.Dial(addr, client.WithUser("Klein"),
		client.WithDialTimeout(250*time.Millisecond)); err == nil {
		t.Fatal("second connection served past the cap")
	}
	c1.Close()
	c3 := dial(t, addr, client.WithUser("Klein"))
	exec(t, c3, "retrieve (PROJECT.NUMBER)")
}

// TestIdleTimeoutAndReconnect: the server drops a silent connection;
// the client's next Exec transparently redials and succeeds.
func TestIdleTimeoutAndReconnect(t *testing.T) {
	db := paperDB(t)
	s := startServer(t, db, server.Config{IdleTimeout: 60 * time.Millisecond})
	c := dial(t, s.Addr().String(), client.WithUser("Brown"))

	first := exec(t, c, "retrieve (EMPLOYEE.NAME)")
	time.Sleep(250 * time.Millisecond) // let the server close the idle conn
	second := exec(t, c, "retrieve (EMPLOYEE.NAME)")
	if first.Rendered != second.Rendered {
		t.Errorf("answers diverged across reconnect:\n%s\nvs\n%s", first.Rendered, second.Rendered)
	}
}

// TestStatsOverWire: the \stats admin statement works over the wire and
// is refused to non-administrators — the same dispatch path the REPL
// uses.
func TestStatsOverWire(t *testing.T) {
	db := paperDB(t)
	s := startServer(t, db, server.Config{})
	addr := s.Addr().String()

	admin := dial(t, addr, client.WithAdmin("root", ""))
	exec(t, admin, "retrieve (EMPLOYEE.NAME)")
	res := exec(t, admin, `\stats`)
	for _, want := range []string{"authdb_requests_total", "authdb_server_connections_active", "authdb_exec_seconds"} {
		if !strings.Contains(res.Text, want) {
			t.Errorf("\\stats output missing %s", want)
		}
	}
	user := dial(t, addr, client.WithUser("Brown"))
	var se *client.ServerError
	if _, err := user.Exec(context.Background(), `\stats`); !errors.As(err, &se) || se.Code != wire.CodeNotAuthorized {
		t.Errorf("\\stats as user = %v, want %s", err, wire.CodeNotAuthorized)
	}
}

// TestMetricsHTTP scrapes /metrics, /healthz and /readyz: the metrics
// carry the server's and the engine's series and no replication or role
// series, and both probes answer ok.
func TestMetricsHTTP(t *testing.T) {
	db := paperDB(t)
	s := startServer(t, db, server.Config{MetricsAddr: "127.0.0.1:0"})
	c := dial(t, s.Addr().String(), client.WithUser("Brown"))
	exec(t, c, "retrieve (EMPLOYEE.NAME)")

	base := "http://" + s.MetricsAddr().String()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	for _, want := range []string{
		"authdb_server_accepted_total", "authdb_requests_total{kind=\"retrieve\"}",
		"authdb_exec_seconds_bucket", "authdb_mask_closure_plan_hits_total",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics missing %s", want)
		}
	}
	for _, gone := range []string{"authdb_repl_", "authdb_role", "authdb_failover_"} {
		if strings.Contains(string(body), gone) {
			t.Errorf("/metrics carries a %s series", gone)
		}
	}
	for _, probe := range []string{"/healthz", "/readyz"} {
		hz, err := http.Get(base + probe)
		if err != nil {
			t.Fatal(err)
		}
		hzBody, _ := io.ReadAll(hz.Body)
		hz.Body.Close()
		if hz.StatusCode != 200 || string(hzBody) != "ok\n" {
			t.Errorf("%s = %d %q, want 200 ok", probe, hz.StatusCode, hzBody)
		}
	}
}

// TestGracefulShutdownDurability is the drain contract end to end: a
// long statement in flight at Shutdown is canceled after the grace
// period with a retryable CANCELED whose response is still flushed, and
// every acknowledged mutation is present after reopening the same data
// directory.
func TestGracefulShutdownDurability(t *testing.T) {
	dir := t.TempDir()
	db, err := authdb.OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	s := server.New(db, server.Config{Grace: 100 * time.Millisecond})
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	addr := s.Addr().String()

	admin, err := client.Dial(addr, client.WithAdmin("root", ""))
	if err != nil {
		t.Fatal(err)
	}
	defer admin.Close()
	const acked = 60
	if _, err := admin.Exec(context.Background(), "relation R (A) key (A)"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < acked; i++ {
		if _, err := admin.Exec(context.Background(), fmt.Sprintf("insert into R values (r%03d)", i)); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}

	// A four-way self product (60^4 ≈ 13M tuples) cannot finish inside
	// the grace period; it must come back as a flushed, retryable
	// CANCELED response.
	long, err := client.Dial(addr, client.WithAdmin("root", ""))
	if err != nil {
		t.Fatal(err)
	}
	defer long.Close()
	longErr := make(chan error, 1)
	go func() {
		_, err := long.Exec(context.Background(), "retrieve (R:1.A, R:2.A, R:3.A, R:4.A)")
		longErr <- err
	}()
	time.Sleep(150 * time.Millisecond) // let the statement reach the engine

	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	select {
	case err := <-longErr:
		var se *client.ServerError
		if !errors.As(err, &se) || se.Code != wire.CodeCanceled || !se.Retryable {
			t.Errorf("in-flight statement error = %v, want retryable %s", err, wire.CodeCanceled)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("in-flight statement never resolved after shutdown")
	}
	if _, err := admin.Exec(context.Background(), "retrieve (R.A)"); err == nil {
		t.Error("statement succeeded after shutdown")
	}

	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := authdb.OpenDir(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer db2.Close()
	res, err := db2.Admin().Exec("retrieve (R.A)")
	if err != nil {
		t.Fatal(err)
	}
	if got := len(res.Table.Rows); got != acked {
		t.Errorf("recovered %d acknowledged rows, want %d", got, acked)
	}
}
