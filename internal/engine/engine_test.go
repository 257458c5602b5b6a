package engine_test

import (
	"context"
	"strings"
	"testing"

	"authdb/internal/core"
	"authdb/internal/engine"
	"authdb/internal/parser"
	"authdb/internal/relation"
	"authdb/internal/value"
	"authdb/internal/workload"
)

func paperEngine(t *testing.T) *engine.Engine {
	t.Helper()
	e := engine.New(core.DefaultOptions())
	admin := e.NewSession("admin", true)
	if _, err := admin.ExecScript(workload.PaperScript); err != nil {
		t.Fatal(err)
	}
	return e
}

func TestAdminRetrieveUnmasked(t *testing.T) {
	e := paperEngine(t)
	res, err := e.NewSession("dba", true).Exec(`retrieve (EMPLOYEE.NAME, EMPLOYEE.SALARY)`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Relation.Len() != 3 {
		t.Fatalf("rows = %d", res.Relation.Len())
	}
}

func TestUserRetrieveMasked(t *testing.T) {
	e := paperEngine(t)
	res, err := e.NewSession("Klein", false).Exec(workload.Example2Query)
	if err != nil {
		t.Fatal(err)
	}
	if res.Decision == nil || res.Decision.FullyAuthorized {
		t.Fatal("expected a partial decision")
	}
	if len(res.Permits) == 0 {
		t.Fatal("permits missing")
	}
}

func TestEngineRelationSnapshot(t *testing.T) {
	e := paperEngine(t)
	r, err := e.Relation("EMPLOYEE")
	if err != nil {
		t.Fatal(err)
	}
	// A lineage started at the snapshot must not affect the engine.
	if _, err := relation.VersionedOf(r).Insert(relation.Tuple{value.String("Snapshot"), value.String("writer"), value.Int(1)}); err != nil {
		t.Fatal(err)
	}
	r2, _ := e.Relation("EMPLOYEE")
	if r2.Len() != 3 {
		t.Fatal("snapshot shares state")
	}
	if _, err := e.Relation("NOPE"); err == nil {
		t.Fatal("unknown relation accepted")
	}
}

func TestInsertArityAndDuplicates(t *testing.T) {
	e := paperEngine(t)
	admin := e.NewSession("admin", true)
	if _, err := admin.Exec(`insert into EMPLOYEE values (OnlyTwo, fields)`); err == nil {
		t.Fatal("arity mismatch accepted")
	}
	res, err := admin.Exec(`insert into EMPLOYEE values (Jones, manager, 26000)`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Text, "duplicate") {
		t.Fatalf("duplicate insert text: %q", res.Text)
	}
}

func TestDeleteWithPredicate(t *testing.T) {
	e := paperEngine(t)
	admin := e.NewSession("admin", true)
	res, err := admin.Exec(`delete from ASSIGNMENT where P_NO = vg-13`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Text, "deleted 2") {
		t.Fatalf("delete text: %q", res.Text)
	}
	if _, err := admin.Exec(`delete from ASSIGNMENT where PROJECT.NUMBER = vg-13`); err == nil {
		t.Fatal("delete referencing another relation accepted")
	}
}

func TestUpdateAuthorizationJoinWitness(t *testing.T) {
	// ELP covers every attribute of ASSIGNMENT (E_NAME and P_NO are both
	// starred); Klein may insert assignments only when the joined
	// EMPLOYEE and PROJECT rows exist and the budget clears 250,000.
	e := paperEngine(t)
	klein := e.NewSession("Klein", false)
	// Brown (an employee) onto sv-72 (450,000): within ELP.
	if _, err := klein.Exec(`insert into ASSIGNMENT values (Smith, sv-72)`); err != nil {
		t.Fatalf("insert within ELP failed: %v", err)
	}
	// vg-13 has budget 150,000 < 250,000: outside ELP.
	if _, err := klein.Exec(`insert into ASSIGNMENT values (Jones, vg-13)`); err == nil {
		t.Fatal("insert outside ELP's budget bound accepted")
	}
	// A nonexistent employee fails the join witness.
	if _, err := klein.Exec(`insert into ASSIGNMENT values (Nobody, sv-72)`); err == nil {
		t.Fatal("insert with no joining EMPLOYEE accepted")
	}
	// EMPLOYEE has an unstarred SALARY in ELP: no full coverage, so
	// employee rows are not insertable by Klein.
	if _, err := klein.Exec(`insert into EMPLOYEE values (New, clerk, 1000)`); err == nil {
		t.Fatal("insert into partially covered EMPLOYEE accepted")
	}
	// Deletes go through the same coverage: only covered tuples go.
	if res, err := klein.Exec(`delete from ASSIGNMENT where E_NAME = Smith and P_NO = sv-72`); err != nil || res.Text != "deleted 1 tuple(s) from ASSIGNMENT" {
		t.Fatalf("delete within ELP: %v, %v", res, err)
	}
	const vg13 = `retrieve (ASSIGNMENT.E_NAME) where ASSIGNMENT.P_NO = vg-13`
	before := rowCount(t, e, vg13)
	if res, err := klein.Exec(`delete from ASSIGNMENT where P_NO = vg-13`); err != nil || res.Text != "deleted 0 tuple(s) from ASSIGNMENT" {
		t.Fatalf("delete outside ELP: %v, %v", res, err)
	}
	if after := rowCount(t, e, vg13); before == 0 || after != before {
		t.Fatalf("vg-13 assignments: %d before the delete outside ELP, %d after", before, after)
	}
}

// updateEngine runs an admin script and returns the engine.
func updateEngine(t *testing.T, script string) *engine.Engine {
	t.Helper()
	e := engine.New(core.DefaultOptions())
	if _, err := e.NewSession("admin", true).ExecScript(script); err != nil {
		t.Fatal(err)
	}
	return e
}

// rowCount is the number of rows admin sees in a query.
func rowCount(t *testing.T, e *engine.Engine, query string) int {
	t.Helper()
	res, err := e.NewSession("admin", true).Exec(query)
	if err != nil {
		t.Fatal(err)
	}
	return res.Relation.Len()
}

func TestUpdateAuthorizationJoinsPartners(t *testing.T) {
	// S's only row joins T(c1, 2), which fails T.D = 1; T(c2, 1) passes
	// it but joins no S row. Checking each partner on its own finds a
	// witness in both, yet V has no row with R.B = b1.
	e := updateEngine(t, `
		relation R (A, B);
		relation S (B, C);
		relation T (C, D);
		insert into S values (b1, c1);
		insert into T values (c1, 2);
		insert into T values (c2, 1);
		view V (R.A, R.B) where R.B = S.B and S.C = T.C and T.D = 1;
		permit V to u;
	`)
	if _, err := e.NewSession("u", false).Exec(`insert into R values (a1, b1)`); err == nil {
		t.Fatalf("insert outside V accepted; V now has %d rows", rowCount(t, e, `retrieve (R.A, R.B) where R.B = S.B and S.C = T.C and T.D = 1`))
	}
}

// TestInsertChecksHiddenPartnerChain pins §6(1)'s insert rule: a
// covered insert evaluates the view with its join partners read from the
// current relations, the ones u cannot see included. The same insert is
// rejected while no partner chain puts (a1, b1) in V and accepted once
// one does, so a rejection tells u that no such chain exists, as
// PostgreSQL's WITH CHECK does.
func TestInsertChecksHiddenPartnerChain(t *testing.T) {
	const script = `
		relation R (A, B);
		relation S (B, C);
		relation T (C, D);
		insert into S values (b1, c1);
		insert into T values (c1, 2);
		view V (R.A, R.B) where R.B = S.B and S.C = T.C and T.D = 1;
		permit V to u;
	`
	if _, err := updateEngine(t, script).NewSession("u", false).Exec(`insert into R values (a1, b1)`); err == nil {
		t.Fatal("insert accepted with no partner chain")
	}
	e := updateEngine(t, script+"insert into T values (c1, 1);")
	if _, err := e.NewSession("u", false).Exec(`insert into R values (a1, b1)`); err != nil {
		t.Fatalf("insert rejected though the hidden chain S(b1, c1), T(c1, 1) exists: %v", err)
	}
}

// TestDeleteThroughView holds two states u's view V cannot tell apart,
// one with a hidden (x, sec) row and one without. A delete matching only
// that row must read the same in both, so a user's delete removes the
// matched rows V covers and leaves the hidden one in place.
func TestDeleteThroughView(t *testing.T) {
	const script = `
		relation R (A, B) key (A);
		insert into R values (y, pub);
		view V (R.A, R.B) where R.B = pub;
		permit V to u;
	`
	for _, st := range []struct {
		extra  string
		hidden int
	}{{"", 0}, {"insert into R values (x, sec);", 1}} {
		e := updateEngine(t, script+st.extra)
		res, err := e.NewSession("u", false).Exec(`delete from R where A = x`)
		if err != nil || res.Text != "deleted 0 tuple(s) from R" {
			t.Fatalf("with %q: delete as u: %v, %v", st.extra, res, err)
		}
		if n := rowCount(t, e, `retrieve (R.A) where R.B = sec`); n != st.hidden {
			t.Fatalf("with %q: %d hidden row(s) after u's delete, want %d", st.extra, n, st.hidden)
		}
	}
}

func TestUpdateAuthorizationPartnerComparison(t *testing.T) {
	// U.C < U.D compares two attributes only the partner U binds; its row
	// U(b1, 1, 5) satisfies it, so (a1, b1) lies in W.
	const script = `
		relation Q (A, B);
		relation U (B, C, D);
		insert into U values (b1, 1, 5);
		view W (Q.A, Q.B) where Q.B = U.B and U.C < U.D;
		permit W to u;
	`
	e := updateEngine(t, script)
	if _, err := e.NewSession("u", false).Exec(`insert into Q values (a1, b1)`); err != nil {
		t.Errorf("insert within W rejected: %v", err)
	}
	e = updateEngine(t, script+"insert into Q values (a1, b1);")
	if n := rowCount(t, e, `retrieve (Q.A, Q.B) where Q.B = U.B and U.C < U.D`); n != 1 {
		t.Fatalf("W has %d rows, want 1", n)
	}
	if _, err := e.NewSession("u", false).Exec(`delete from Q where A = a1`); err != nil {
		t.Errorf("delete within W rejected: %v", err)
	}
}

func TestSymbolicCmpGuardsUpdates(t *testing.T) {
	e := engine.New(core.DefaultOptions())
	admin := e.NewSession("admin", true)
	if _, err := admin.ExecScript(`
		relation T (A, B) key (A);
		view LT (T.A, T.B) where T.A < T.B;
		permit LT to u;
	`); err != nil {
		t.Fatal(err)
	}
	u := e.NewSession("u", false)
	if _, err := u.Exec(`insert into T values (1, 2)`); err != nil {
		t.Fatalf("insert satisfying A < B failed: %v", err)
	}
	if _, err := u.Exec(`insert into T values (5, 2)`); err == nil {
		t.Fatal("insert violating A < B accepted")
	}
}

func TestExecStmtUnknown(t *testing.T) {
	e := paperEngine(t)
	s := e.NewSession("admin", true)
	if _, err := s.Exec(`this is not a statement`); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := s.ExecStmtContext(context.Background(), parser.Show{What: "nonsense"}); err == nil {
		t.Fatal("unknown show target accepted")
	}
}

func TestExecScriptStopsAtError(t *testing.T) {
	e := engine.New(core.DefaultOptions())
	s := e.NewSession("admin", true)
	rs, err := s.ExecScript(`
		relation R (A);
		insert into NOPE values (1);
		relation S (B);
	`)
	if err == nil || err.Error() != "line 3: unknown relation NOPE" {
		t.Fatalf("script error = %v, want the failing statement's line", err)
	}
	if len(rs) != 1 {
		t.Fatalf("results before error = %d, want 1", len(rs))
	}
	if e.Schema().Lookup("S") != nil {
		t.Fatal("statement after the error executed")
	}
}

// TestExecScriptSyntaxErrorExecutesNothing checks that a script is
// parsed whole before anything runs: an error in its last statement,
// syntactic or lexical, leaves the relations and permissions as they
// were.
func TestExecScriptSyntaxErrorExecutesNothing(t *testing.T) {
	e := paperEngine(t)
	s := e.NewSession("admin", true)
	show := func() string {
		var out []string
		for _, stmt := range []string{"show relations", "show permissions"} {
			r, err := s.Exec(stmt)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, r.Text)
		}
		return strings.Join(out, "\n")
	}
	before := show()
	for _, script := range []string{
		"relation R (A);\nview V (R.A);\npermit V to u;\nrelation S (B",
		"relation R (A);\nview V (R.A);\npermit V to u;\ninsert into R values (\"x)",
	} {
		rs, err := s.ExecScript(script)
		if err == nil || !strings.HasPrefix(err.Error(), "line 4:") || rs != nil {
			t.Fatalf("%q: got %d results, error %v", script, len(rs), err)
		}
		if after := show(); after != before {
			t.Fatalf("%q changed the database:\n%s\nwant\n%s", script, after, before)
		}
	}
}

func TestOptionsAccessor(t *testing.T) {
	opt := core.DefaultOptions()
	opt.SelfJoins = false
	e := engine.New(opt)
	if e.Options().SelfJoins {
		t.Fatal("options not retained")
	}
	if e.Store() == nil || e.Schema() == nil {
		t.Fatal("accessors nil")
	}
}
