package core_test

import (
	"strings"
	"testing"

	"authdb/internal/core"
	"authdb/internal/parser"
	"authdb/internal/workload"
)

// disjFixture grants u a disjunctive view over PROJECT: Acme's projects,
// or any project with a budget of at least 400,000.
func disjFixture(t *testing.T) *workload.Fixture {
	t.Helper()
	f := workload.NewFixture()
	f.MustExec(`
		relation PROJECT (NUMBER, SPONSOR, BUDGET) key (NUMBER);
		insert into PROJECT values (bq-45, Acme, 300000);
		insert into PROJECT values (sv-72, Apex, 450000);
		insert into PROJECT values (vg-13, Summit, 150000);
	`)
	stmt, err := parser.Parse(`
		view BIG_OR_ACME (PROJECT.NUMBER, PROJECT.SPONSOR, PROJECT.BUDGET)
		  where PROJECT.SPONSOR = Acme
		  or PROJECT.BUDGET >= 400000`)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Store.DefineView(stmt.(parser.ViewStmt).Def); err != nil {
		t.Fatal(err)
	}
	if err := f.Store.Permit("BIG_OR_ACME", "u"); err != nil {
		t.Fatal(err)
	}
	return f
}

func TestDisjunctiveViewParses(t *testing.T) {
	s, err := parser.Parse(`
		view V (R.A) where R.A >= 1 and R.A <= 5 or R.A = 9 or R.A = 12`)
	if err != nil {
		t.Fatal(err)
	}
	def := s.(parser.ViewStmt).Def
	if len(def.Where) != 2 || len(def.Or) != 2 {
		t.Fatalf("branches: where=%v or=%v", def.Where, def.Or)
	}
	if !strings.Contains(def.String(), "or R.A = 9") {
		t.Fatalf("String() misses the disjunct:\n%s", def.String())
	}
}

func TestDisjunctiveQueryRejected(t *testing.T) {
	// Queries stay conjunctive — "or" after a retrieve is a parse error.
	if _, err := parser.Parse(`retrieve (R.A) where R.A = 1 or R.A = 2`); err == nil {
		t.Fatal("disjunctive retrieve accepted")
	}
}

func TestDisjunctiveViewBranches(t *testing.T) {
	f := disjFixture(t)
	bs := f.Store.Branches("BIG_OR_ACME")
	if len(bs) != 2 {
		t.Fatalf("branches = %d, want 2", len(bs))
	}
	if bs[0].Key == bs[1].Key {
		t.Fatal("branch provenance keys must differ")
	}
	if bs[0].Name != "BIG_OR_ACME" || bs[1].Name != "BIG_OR_ACME" {
		t.Fatal("branch names must stay the view's name")
	}
	if f.Store.ViewDef("BIG_OR_ACME") == nil {
		t.Fatal("original definition lost")
	}
}

func TestDisjunctiveViewMasksUnion(t *testing.T) {
	f := disjFixture(t)
	auth := core.NewAuthorizer(f.Store, f.Source, core.DefaultOptions())
	d, err := auth.Retrieve("u", workload.MustQuery(
		`retrieve (PROJECT.NUMBER, PROJECT.SPONSOR, PROJECT.BUDGET)`))
	if err != nil {
		t.Fatal(err)
	}
	// bq-45 via the Acme branch, sv-72 via the budget branch; vg-13
	// matches neither.
	if d.Masked.Len() != 2 {
		t.Fatalf("delivered rows:\n%s", d.Masked)
	}
	got := map[string]bool{}
	for _, row := range d.Masked.Tuples() {
		got[row[0].String()] = true
		for _, v := range row {
			if v.IsNull() {
				t.Fatalf("all columns are in the view head; none may be masked: %v", row)
			}
		}
	}
	if !got["bq-45"] || !got["sv-72"] || got["vg-13"] {
		t.Fatalf("delivered project set wrong: %v", got)
	}
	// Two permit statements, one per branch.
	var acme, budget bool
	for _, p := range d.Permits {
		if strings.Contains(p.String(), "SPONSOR = Acme") {
			acme = true
		}
		if strings.Contains(p.String(), "BUDGET >= 400000") {
			budget = true
		}
	}
	if !acme || !budget {
		t.Fatalf("permits = %v", d.Permits)
	}
}

func TestDisjunctiveViewWithSelection(t *testing.T) {
	f := disjFixture(t)
	auth := core.NewAuthorizer(f.Store, f.Source, core.DefaultOptions())
	// The query's own selection composes with both branches.
	d, err := auth.Retrieve("u", workload.MustQuery(`
		retrieve (PROJECT.NUMBER, PROJECT.SPONSOR, PROJECT.BUDGET)
		  where PROJECT.BUDGET >= 440000`))
	if err != nil {
		t.Fatal(err)
	}
	// Only sv-72 satisfies the query; the budget branch clears
	// (λ ⇒ μ), so the row is fully delivered.
	if d.Masked.Len() != 1 || d.Masked.Tuples()[0][0].String() != "sv-72" {
		t.Fatalf("delivered:\n%s", d.Masked)
	}
}

func TestDisjunctiveViewCrossRelationBranches(t *testing.T) {
	// Branches may reference different relation sets; each is
	// entirety-pruned independently.
	f := workload.Paper()
	stmt, err := parser.Parse(`
		view MIX (EMPLOYEE.NAME, EMPLOYEE.TITLE)
		  where EMPLOYEE.TITLE = engineer
		  or EMPLOYEE.NAME = ASSIGNMENT.E_NAME and ASSIGNMENT.P_NO = bq-45`)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Store.DefineView(stmt.(parser.ViewStmt).Def); err != nil {
		t.Fatal(err)
	}
	if err := f.Store.Permit("MIX", "u"); err != nil {
		t.Fatal(err)
	}
	auth := core.NewAuthorizer(f.Store, f.Source, core.DefaultOptions())
	// An EMPLOYEE-only query: only the first branch participates.
	d, err := auth.Retrieve("u", workload.MustQuery(`retrieve (EMPLOYEE.NAME, EMPLOYEE.TITLE)`))
	if err != nil {
		t.Fatal(err)
	}
	if d.Masked.Len() != 1 || d.Masked.Tuples()[0][0].String() != "Brown" {
		t.Fatalf("engineer branch delivery:\n%s", d.Masked)
	}
	// The full join query lets the second branch deliver bq-45's staff.
	d, err = auth.Retrieve("u", workload.MustQuery(`
		retrieve (EMPLOYEE.NAME, EMPLOYEE.TITLE)
		  where EMPLOYEE.NAME = ASSIGNMENT.E_NAME
		  and ASSIGNMENT.P_NO = bq-45`))
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, row := range d.Masked.Tuples() {
		names[row[0].String()] = true
	}
	if !names["Jones"] || !names["Smith"] {
		t.Fatalf("assignment branch delivery:\n%s", d.Masked)
	}
}

func TestDisjunctiveUpdateAuthorization(t *testing.T) {
	// Updates are authorized when ANY branch covers the tuple.
	f := disjFixture(t)
	// Build an engine over the same statements to exercise the session
	// path.
	db := newEngineFromFixtureScripts(t)
	u := db.NewSession("u", false)
	if _, err := u.Exec(`insert into PROJECT values (zz-1, Acme, 10)`); err != nil {
		t.Fatalf("Acme branch insert failed: %v", err)
	}
	if _, err := u.Exec(`insert into PROJECT values (zz-2, Apex, 500000)`); err != nil {
		t.Fatalf("budget branch insert failed: %v", err)
	}
	if _, err := u.Exec(`insert into PROJECT values (zz-3, Apex, 10)`); err == nil {
		t.Fatal("tuple outside both branches accepted")
	}
	_ = f
}

// TestDisjunctiveBranchLabels: R' and COMPARISON label each row with its
// branch's Key, so the second disjunct's rows read BIG_OR_ACME#1 and are
// told from the first's.
func TestDisjunctiveBranchLabels(t *testing.T) {
	f := disjFixture(t)
	var meta, cmp strings.Builder
	f.Store.RenderMeta(&meta, "PROJECT")
	f.Store.RenderComparison(&cmp)
	labels := map[string]bool{}
	for _, line := range strings.Split(meta.String(), "\n") {
		if cells := strings.Split(line, "|"); len(cells) > 2 {
			labels[strings.TrimSpace(cells[1])] = true
		}
	}
	if !labels["BIG_OR_ACME"] || !labels["BIG_OR_ACME#1"] {
		t.Fatalf("R' misses a branch label:\n%s", meta.String())
	}
	found := false
	for _, line := range strings.Split(cmp.String(), "\n") {
		if strings.Contains(line, ">=") && strings.Contains(line, "400000") {
			found = true
			if cells := strings.Split(line, "|"); strings.TrimSpace(cells[1]) != "BIG_OR_ACME#1" {
				t.Fatalf("the second branch's comparison is labelled %q:\n%s", cells[1], cmp.String())
			}
		}
	}
	if !found {
		t.Fatalf("COMPARISON misses the >= 400000 row:\n%s", cmp.String())
	}
}
