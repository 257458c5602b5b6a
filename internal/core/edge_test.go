package core_test

import (
	"strings"
	"testing"

	"authdb/internal/core"
	"authdb/internal/relation"
	"authdb/internal/value"
	"authdb/internal/workload"
)

// TestEmptyRelations: authorization over empty instances never errors and
// the full-grant classification stays structural (mask-based), not
// data-based.
func TestEmptyRelations(t *testing.T) {
	f := workload.NewFixture()
	f.MustExec(`
		relation R (A, B) key (A);
		view V (R.A, R.B);
		permit V to u;
	`)
	auth := core.NewAuthorizer(f.Store, f.Source, core.DefaultOptions())
	d, err := auth.Retrieve("u", workload.MustQuery(`retrieve (R.A, R.B)`))
	if err != nil {
		t.Fatal(err)
	}
	if !d.FullyAuthorized {
		t.Fatal("full grant must be recognised on an empty instance")
	}
	if referenceAnswer(t, f.Source, d.PSJ).Len() != 0 || d.Masked.Len() != 0 {
		t.Fatal("empty instance must yield empty relations")
	}
}

// TestNullDataInBaseRelation: no front end stores a null (the statement
// language has no null literal, and the engine refuses a built statement
// holding one), but core takes relations from any caller; masks must
// treat nulls as ordinary (smallest) values, never crash, and never
// confuse them with masked cells in a way that reveals more.
func TestNullDataInBaseRelation(t *testing.T) {
	f := workload.NewFixture()
	f.MustExec(`
		relation R (A, B) key (A);
		view V (R.A) where R.B >= 0;
		permit V to u;
	`)
	// Insert a tuple with a null B directly, below the engine.
	r := f.Rels["R"]
	if _, err := r.Insert(relation.Tuple{value.Int(1), value.Null()}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Insert(relation.Tuple{value.Int(2), value.Int(5)}); err != nil {
		t.Fatal(err)
	}
	auth := core.NewAuthorizer(f.Store, f.Source, core.DefaultOptions())
	d, err := auth.Retrieve("u", workload.MustQuery(`retrieve (R.A) where R.B >= 0`))
	if err != nil {
		t.Fatal(err)
	}
	// Null orders below every int, so the null row fails B >= 0; only
	// A=2 comes back.
	ans := referenceAnswer(t, f.Source, d.PSJ)
	if ans.Len() != 1 || ans.Tuples()[0][0].AsInt() != 2 {
		t.Fatalf("answer:\n%s", ans)
	}
	if !d.Masked.Equal(ans) {
		t.Fatalf("masked:\n%s", d.Masked)
	}
}

// TestAmbiguousAttributeRejected: a query whose bare attribute resolves
// to two scans must fail cleanly, not guess.
func TestAmbiguousAttributeRejected(t *testing.T) {
	f := workload.Paper()
	auth := core.NewAuthorizer(f.Store, f.Source, core.DefaultOptions())
	_, err := auth.Retrieve("Brown", workload.MustQuery(`
		retrieve (EMPLOYEE:1.NAME, EMPLOYEE:2.NAME)
		  where EMPLOYEE:1.TITLE = EMPLOYEE:2.TITLE`))
	if err != nil {
		t.Fatalf("disambiguated self-join must work: %v", err)
	}
}

// TestUnknownRelationInQuery surfaces as an error from analysis.
func TestUnknownRelationInQuery(t *testing.T) {
	f := workload.Paper()
	auth := core.NewAuthorizer(f.Store, f.Source, core.DefaultOptions())
	if _, err := auth.Retrieve("Brown", workload.MustQuery(`retrieve (NOPE.X)`)); err == nil {
		t.Fatal("unknown relation accepted")
	}
}

// TestDeepJoinChain exercises a 4-way product pipeline end to end.
func TestDeepJoinChain(t *testing.T) {
	f := workload.NewFixture()
	f.MustExec(`
		relation T0 (K, F) key (K);
		relation T1 (K, F) key (K);
		relation T2 (K, F) key (K);
		relation T3 (K, F) key (K);
	`)
	for i := 0; i < 8; i++ {
		for _, rel := range []string{"T0", "T1", "T2", "T3"} {
			f.MustExec("insert into " + rel + " values (" + itoa(i) + ", " + itoa((i+1)%8) + ");")
		}
	}
	f.MustExec(`
		view CHAIN (T0.K, T1.K, T2.K, T3.K)
		  where T0.F = T1.K and T1.F = T2.K and T2.F = T3.K;
		permit CHAIN to u;
	`)
	auth := core.NewAuthorizer(f.Store, f.Source, core.DefaultOptions())
	d, err := auth.Retrieve("u", workload.MustQuery(`
		retrieve (T0.K, T3.K)
		  where T0.F = T1.K and T1.F = T2.K and T2.F = T3.K`))
	if err != nil {
		t.Fatal(err)
	}
	if !d.FullyAuthorized {
		t.Fatalf("chain query within CHAIN must be fully granted: %+v", d.Stats)
	}
	if n := referenceAnswer(t, f.Source, d.PSJ).Len(); n != 8 {
		t.Fatalf("chain answer rows = %d, want 8", n)
	}
}

func itoa(i int) string {
	if i < 10 {
		return string(rune('0' + i))
	}
	return itoa(i/10) + string(rune('0'+i%10))
}

// TestInequalityConditionView: a view with a ≠ condition survives the
// pipeline and its exclusion shows in the permit statement.
func TestInequalityConditionView(t *testing.T) {
	f := workload.NewFixture()
	f.MustExec(`
		relation R (A, B) key (A);
		insert into R values (1, 5);
		insert into R values (2, 7);
		view V (R.A, R.B) where R.B != 5;
		permit V to u;
	`)
	auth := core.NewAuthorizer(f.Store, f.Source, core.DefaultOptions())
	d, err := auth.Retrieve("u", workload.MustQuery(`retrieve (R.A, R.B)`))
	if err != nil {
		t.Fatal(err)
	}
	if d.Masked.Len() != 1 || d.Masked.Tuples()[0][1].AsInt() != 7 {
		t.Fatalf("masked:\n%s", d.Masked)
	}
	found := false
	for _, p := range d.Permits {
		if strings.Contains(p.String(), "B != 5") {
			found = true
		}
	}
	if !found {
		t.Fatalf("permits = %v", d.Permits)
	}
}

// TestSymbolicViewEndToEnd: a view whose condition compares two
// attributes symbolically (locked variables) masks correctly and renders
// its comparison.
func TestSymbolicViewEndToEnd(t *testing.T) {
	f := workload.NewFixture()
	f.MustExec(`
		relation R (A, LO, HI) key (A);
		insert into R values (1, 2, 9);
		insert into R values (2, 8, 3);
		view V (R.A, R.LO, R.HI) where R.LO < R.HI;
		permit V to u;
	`)
	auth := core.NewAuthorizer(f.Store, f.Source, core.DefaultOptions())
	d, err := auth.Retrieve("u", workload.MustQuery(`retrieve (R.A, R.LO, R.HI)`))
	if err != nil {
		t.Fatal(err)
	}
	if d.Masked.Len() != 1 || d.Masked.Tuples()[0][0].AsInt() != 1 {
		t.Fatalf("masked:\n%s", d.Masked)
	}
	found := false
	for _, p := range d.Permits {
		if strings.Contains(p.String(), "LO < HI") {
			found = true
		}
	}
	if !found {
		t.Fatalf("permits = %v", d.Permits)
	}
	// Querying with the same symbolic condition must also deliver,
	// keeping the symbolic residual (never cleared: the variables are
	// locked).
	d, err = auth.Retrieve("u", workload.MustQuery(`retrieve (R.A) where R.LO < R.HI`))
	if err != nil {
		t.Fatal(err)
	}
	if d.Masked.Len() != 1 {
		t.Fatalf("symbolic self-query masked:\n%s", d.Masked)
	}
}

// TestRepeatedColumnProjection: requesting the same column twice must
// work through the whole pipeline.
func TestRepeatedColumnProjection(t *testing.T) {
	f := workload.Paper()
	auth := core.NewAuthorizer(f.Store, f.Source, core.DefaultOptions())
	d, err := auth.Retrieve("Brown", workload.MustQuery(
		`retrieve (EMPLOYEE.NAME, EMPLOYEE.NAME, EMPLOYEE.SALARY)`))
	if err != nil {
		t.Fatal(err)
	}
	if d.Masked.Arity() != 3 {
		t.Fatalf("arity = %d", d.Masked.Arity())
	}
	for _, row := range d.Masked.Tuples() {
		if row[0].String() != row[1].String() {
			t.Fatalf("duplicated column values differ: %v", row)
		}
	}
}
