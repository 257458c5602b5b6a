package engine

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"authdb/internal/core"
	"authdb/internal/parser"
	"authdb/internal/relation"
	"authdb/internal/value"
)

// statements renders e's head version as the statements that rebuild
// it, in replay order.
func statements(t *testing.T, e *Engine) []string {
	t.Helper()
	s, err := e.head.Load().render()
	if err != nil {
		t.Fatal(err)
	}
	return slices.Concat(s[:]...)
}

// replayed replays e's statements into a fresh engine with e's options,
// the way a checkpoint's scripts load on open.
func replayed(t *testing.T, e *Engine) *Engine {
	t.Helper()
	back := New(e.opt)
	stmts := statements(t, e)
	if _, err := back.NewSession("admin", true).ExecScript(strings.Join(stmts, ";\n")); err != nil {
		t.Fatalf("replaying the state's statements: %v\n%q", err, stmts)
	}
	return back
}

// FuzzSnapshotRoundTrip inserts fuzzed strings and integers, mixing the
// kinds within each column, and replays the state's statements (the
// head version rendered) into a fresh engine: rendering the loaded
// state must give the same statements and the same snapshot
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
		stmts := statements(t, e)
		back := replayed(t, e)
		if again := statements(t, back); !slices.Equal(again, stmts) {
			t.Fatalf("statements after a round trip:\n%q\nbefore:\n%q", again, stmts)
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

// kindsAnswers renders u's answers to two retrieves and the base
// relation R, every cell tagged with its kind: an engine that holds "5"
// where another holds 5, or null where another holds "", renders
// differently.
func kindsAnswers(t *testing.T, e *Engine) string {
	t.Helper()
	var b strings.Builder
	cells := func(r *relation.Relation) {
		for _, tup := range r.Sorted() {
			for _, v := range tup {
				fmt.Fprintf(&b, "%s:%q ", v.Kind(), v.String())
			}
			b.WriteByte('\n')
		}
	}
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

// TestKindsSameOnEveryNode holds a state whose strings look like other
// kinds — "5" beside 5, and "" — to one answer in every engine that can
// hold it: the original, a Save → Load copy, its statements replayed
// into a fresh engine, and a durable directory reopened from its
// checkpoint. Each must deliver u the same answers with the same kinds,
// tuple by tuple.
func TestKindsSameOnEveryNode(t *testing.T) {
	const script = `
		relation R (A, B) key (A);
		insert into R values (1, "5");
		insert into R values (2, "");
		insert into R values (3, 5);
		view V (R.A, R.B);
		permit V to u;
	`
	e := New(core.DefaultOptions())
	if _, err := e.NewSession("admin", true).ExecScript(script); err != nil {
		t.Fatal(err)
	}
	want := kindsAnswers(t, e)
	if !strings.Contains(want, "where R.B = 5\nint:\"3\" int:\"5\" \nretrieve") {
		t.Fatalf("the answer to R.B = 5 is not row 3 alone:\n%s", want)
	}
	nodes := map[string]*Engine{}

	dir := t.TempDir()
	if err := e.Save(dir); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(dir, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	nodes["Save → Load"] = loaded
	nodes["statements replayed"] = replayed(t, e)

	ddir := t.TempDir()
	d, err := OpenDurable(ddir, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.NewSession("admin", true).ExecScript(script); err != nil {
		t.Fatal(err)
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	d.Close()
	reopened, err := OpenDurable(ddir, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	nodes["durable reopen"] = reopened

	for name, n := range nodes {
		if got := kindsAnswers(t, n); got != want {
			t.Errorf("%s answers differently:\n%s\noriginal:\n%s", name, got, want)
		}
	}
}
