package wire

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"testing"

	"authdb/internal/core"
	"authdb/internal/engine"
	"authdb/internal/guard"
	"authdb/internal/parser"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	msgs := []any{
		&Hello{Proto: ProtoVersion, User: "Brown"},
		&Request{ID: 7, Stmt: "retrieve (EMPLOYEE.NAME)", TimeoutMS: 250},
		&Response{ID: 7, Table: &Table{Columns: []string{"NAME", "SALARY"}, Rows: [][]string{{"Brown", "-"}}},
			Permits: []string{"permit (NAME)"}},
	}
	for _, m := range msgs {
		if err := WriteMsg(&buf, m); err != nil {
			t.Fatal(err)
		}
	}
	r := bufio.NewReader(&buf)
	var h Hello
	if err := ReadMsg(r, &h); err != nil || h.User != "Brown" || h.Proto != ProtoVersion {
		t.Fatalf("hello round trip = %+v, %v", h, err)
	}
	var req Request
	if err := ReadMsg(r, &req); err != nil || req.ID != 7 || req.TimeoutMS != 250 {
		t.Fatalf("request round trip = %+v, %v", req, err)
	}
	var resp Response
	if err := ReadMsg(r, &resp); err != nil || resp.ID != 7 || len(resp.Permits) != 1 ||
		resp.Table == nil || len(resp.Table.Rows) != 1 || resp.Table.Rows[0][1] != "-" {
		t.Fatalf("response round trip = %+v, %v", resp, err)
	}
}

func TestReadFrameRejectsOversize(t *testing.T) {
	var buf bytes.Buffer
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], MaxFrame+1)
	buf.Write(hdr[:])
	if _, err := ReadFrame(bufio.NewReader(&buf)); err == nil {
		t.Fatal("oversize frame accepted")
	}
}

func TestErrorFor(t *testing.T) {
	// A real parse error carries line and column through to the code.
	_, perr := parser.Parse("retrieve !")
	cases := []struct {
		err       error
		code      string
		retryable bool
	}{
		{perr, CodeParse, false},
		{fmt.Errorf("wrapped: %w", guard.ErrCanceled), CodeCanceled, true},
		{fmt.Errorf("wrapped: %w", guard.ErrBudgetExceeded), CodeBudget, false},
		{fmt.Errorf("wrapped: %w", engine.ErrNotAuthorized), CodeNotAuthorized, false},
		{fmt.Errorf("wrapped: %w", engine.ErrInternal), CodeInternal, false},
		{fmt.Errorf("unknown relation NOPE"), CodeExec, false},
	}
	for _, c := range cases {
		we := ErrorFor(c.err)
		if we.Code != c.code || we.Retryable != c.retryable {
			t.Fatalf("ErrorFor(%v) = %+v, want code %s retryable %v", c.err, we, c.code, c.retryable)
		}
	}
	if we := ErrorFor(perr); we.Line != 1 || we.Col != 10 {
		t.Fatalf("parse error position = %d:%d, want 1:10", we.Line, we.Col)
	}
	if ErrorFor(nil) != nil {
		t.Fatal("ErrorFor(nil) != nil")
	}
}

func TestErrorForRealEngineErrors(t *testing.T) {
	// End to end: errors produced by actual session executions map to
	// the intended codes.
	e := engine.New(core.DefaultOptions())
	admin := e.NewSession("admin", true)
	mustExec(t, admin, `relation R (A, B) key (A)`)
	mustExec(t, admin, `insert into R values (x, y)`)

	user := e.NewSession("u", false)
	if _, err := user.Exec(`view V (R.A)`); ErrorFor(err).Code != CodeNotAuthorized {
		t.Fatalf("admin-only statement code = %v", ErrorFor(err))
	}
	big := e.NewSession("admin", true)
	big.SetLimits(guard.Limits{MaxIntermediateRows: 1})
	mustExec(t, admin, `insert into R values (x2, y2)`)
	if _, err := big.Exec(`retrieve (R:1.A, R:2.A)`); ErrorFor(err).Code != CodeBudget {
		t.Fatalf("budget code = %v", ErrorFor(err))
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := admin.ExecContext(ctx, `retrieve (R.A)`); ErrorFor(err).Code != CodeCanceled {
		t.Fatalf("cancel code = %v", ErrorFor(err))
	}
	if _, err := admin.Exec(`retrieve (NOPE.A)`); ErrorFor(err).Code != CodeExec {
		t.Fatalf("exec code = %v", ErrorFor(err))
	}
}

func mustExec(t *testing.T, s *engine.Session, stmt string) {
	t.Helper()
	if _, err := s.Exec(stmt); err != nil {
		t.Fatalf("%s: %v", stmt, err)
	}
}
