package engine

import (
	"bytes"
	"context"
	"math"
	"slices"
	"testing"

	"authdb/internal/core"
	"authdb/internal/parser"
	"authdb/internal/value"
)

// FuzzSnapshotRoundTrip inserts fuzzed strings and integers, mixing the
// kinds within each column, and replays the state's snapshot statements
// (ReplSnapshot) into a fresh engine (ResetFromSnapshot): rendering the
// loaded state must give the same statements and the same snapshot
// files byte for byte, and every tuple must come back with its kinds. Strings
// without a literal form (a double quote) are refused at the insert, so
// they are not part of any state. A durable generation is these
// snapshot files, so this fuzzes the durable format itself.
func FuzzSnapshotRoundTrip(f *testing.F) {
	f.Add("", "5", int64(5), int64(math.MinInt64))
	f.Add("-", "\x00", int64(0), int64(-1))
	f.Add("aé", "a\nb", int64(math.MaxInt64), int64(42))
	f.Add("insert", "x; y -- z", int64(-5), int64(7))
	f.Add("\xff", "bq-45", int64(1), int64(1))
	f.Fuzz(func(t *testing.T, s1, s2 string, n1, n2 int64) {
		for _, s := range []string{s1, s2} {
			if !value.Representable(value.String(s)) {
				return
			}
		}
		e := New(core.DefaultOptions())
		admin := e.NewSession("admin", true)
		if _, err := admin.Exec(`relation R (A, B, C)`); err != nil {
			t.Fatal(err)
		}
		str, num := value.String, value.Int
		for _, tup := range [][]value.Value{
			{str(s1), num(n1), str(s2)},
			{num(n2), str(s2), str(s1)},
			{str(s2), str(s1), num(n1)},
			{num(n1), num(n2), str("")},
		} {
			if _, err := admin.ExecStmtContext(context.Background(), parser.Insert{Rel: "R", Values: tup}); err != nil {
				t.Fatal(err)
			}
		}
		stmts, lsn, err := e.ReplSnapshot()
		if err != nil {
			t.Fatal(err)
		}
		back := New(core.DefaultOptions())
		if err := back.ResetFromSnapshot(stmts, lsn, nil); err != nil {
			t.Fatalf("loading the snapshot: %v\n%q", err, stmts)
		}
		again, againLSN, err := back.ReplSnapshot()
		if err != nil {
			t.Fatal(err)
		}
		if againLSN != lsn || !slices.Equal(again, stmts) {
			t.Fatalf("statements after a round trip (lsn %d):\n%q\nbefore (lsn %d):\n%q", againLSN, again, lsn, stmts)
		}
		files, err := e.head.Load().snapshotFiles()
		if err != nil {
			t.Fatal(err)
		}
		againFiles, err := back.head.Load().snapshotFiles()
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range sortedPaths(files) {
			if !bytes.Equal(againFiles[p], files[p]) {
				t.Fatalf("%s after a round trip:\n%q\nbefore:\n%q", p, againFiles[p], files[p])
			}
		}
		want, got := e.head.Load().rels[0].Sorted(), back.head.Load().rels[0].Sorted()
		if len(got) != len(want) {
			t.Fatalf("%d tuples after a round trip, %d before", len(got), len(want))
		}
		for i := range want {
			for j := range want[i] {
				if got[i][j] != want[i][j] {
					t.Fatalf("tuple %d column %d: %#v after a round trip, %#v before", i, j, got[i][j], want[i][j])
				}
			}
		}
	})
}
