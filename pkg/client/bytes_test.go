package client_test

import (
	"context"
	"testing"
	"time"

	"authdb"
	"authdb/internal/server"
	"authdb/pkg/client"
)

// TestStatementArrivesByteForByte: string constants holding invalid
// UTF-8, U+2028 and a control byte, inserted and then retrieved through
// client.Exec, give every cell, the rows each constant matches, and
// the rendering an in-process session gets for the same statements.
// The request frame carries the statement as its bytes; a text
// encoding that replaced invalid UTF-8 would store and return other
// cells than the session's.
func TestStatementArrivesByteForByte(t *testing.T) {
	stmts := []string{
		"relation R (A, B) key (A)",
		"insert into R values (1, \"a\xffb\")",
		"insert into R values (2, \"\u2028x\")",
		"insert into R values (3, \"c\x01d\")",
		"retrieve (R.A, R.B)",
		"retrieve (R.A, R.B) where R.B = \"a\xffb\"",
		"retrieve (R.A) where R.B = \"\u2028x\"",
		"retrieve (R.A) where R.B = \"c\x01d\"",
		"retrieve (R.A) where R.B = \"a\xfeb\"",
	}
	remote := authdb.Open()
	t.Cleanup(func() { remote.Close() })
	srv := server.New(remote, server.Config{})
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	c, err := client.Dial(srv.Addr().String(), client.WithAdmin("admin", ""))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	local := authdb.Open()
	t.Cleanup(func() { local.Close() })
	sess := local.Admin()

	for _, stmt := range stmts {
		got, err := c.Exec(context.Background(), stmt)
		if err != nil {
			t.Fatalf("%q over the network: %v", stmt, err)
		}
		want := sess.MustExec(stmt)
		if want.Table == nil {
			continue
		}
		if len(got.Rows) != len(want.Table.Rows) {
			t.Fatalf("%q: %d rows over the network, %d in process", stmt, len(got.Rows), len(want.Table.Rows))
		}
		for i, row := range want.Table.Rows {
			for j, cell := range row {
				if got.Rows[i][j] != cell.String() {
					t.Errorf("%q row %d column %d: network %q, in process %q", stmt, i, j, got.Rows[i][j], cell.String())
				}
			}
		}
		if got.Rendered != want.Render() {
			t.Errorf("%q rendered over the network:\n%s\nin process:\n%s", stmt, got.Rendered, want.Render())
		}
	}
}
