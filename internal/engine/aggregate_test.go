package engine_test

import (
	"strings"
	"testing"

	"authdb/internal/value"
)

func TestAggregateAdmin(t *testing.T) {
	e := paperEngine(t)
	res, err := e.NewSession("admin", true).Exec(
		`retrieve (EMPLOYEE.TITLE, count(EMPLOYEE.NAME), avg(EMPLOYEE.SALARY), min(EMPLOYEE.SALARY), max(EMPLOYEE.SALARY), sum(EMPLOYEE.SALARY))`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Relation.Len() != 3 {
		t.Fatalf("groups = %d, want 3\n%s", res.Relation.Len(), res.Relation)
	}
	if res.Relation.Attrs[1] != "count(NAME)" || res.Relation.Attrs[2] != "avg(SALARY)" {
		t.Fatalf("attrs = %v", res.Relation.Attrs)
	}
	for _, row := range res.Relation.Tuples() {
		if row[1].AsInt() != 1 {
			t.Fatalf("every title is unique here: %v", row)
		}
		if !row[2].Equal(row[3]) || !row[3].Equal(row[4]) || !row[4].Equal(row[5]) {
			t.Fatalf("singleton group aggregates must coincide: %v", row)
		}
	}
}

func TestAggregateGlobalGroup(t *testing.T) {
	e := paperEngine(t)
	res, err := e.NewSession("admin", true).Exec(
		`retrieve (count(EMPLOYEE.NAME), sum(EMPLOYEE.SALARY), avg(EMPLOYEE.SALARY))`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Relation.Len() != 1 {
		t.Fatalf("global aggregate groups = %d", res.Relation.Len())
	}
	row := res.Relation.Tuples()[0]
	if row[0].AsInt() != 3 || row[1].AsInt() != 80000 || row[2].AsInt() != 26666 {
		t.Fatalf("row = %v", row)
	}
}

// TestAggregateRespectsMasking: aggregates fold the DELIVERED data only.
// Brown cannot group by TITLE (SAE hides it), and an intruder gets
// nothing at all.
func TestAggregateRespectsMasking(t *testing.T) {
	e := paperEngine(t)
	brown := e.NewSession("Brown", false)
	res, err := brown.Exec(`retrieve (EMPLOYEE.TITLE, avg(EMPLOYEE.SALARY))`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Relation.Len() != 0 {
		t.Fatalf("groups keyed on a withheld column must vanish:\n%s", res.Relation)
	}
	// Global aggregates over fully delivered columns work.
	res, err = brown.Exec(`retrieve (count(EMPLOYEE.NAME), avg(EMPLOYEE.SALARY))`)
	if err != nil {
		t.Fatal(err)
	}
	row := res.Relation.Tuples()[0]
	if row[0].AsInt() != 3 || row[1].AsInt() != 26666 {
		t.Fatalf("row = %v", row)
	}
	// An intruder's aggregate folds an empty delivery into a null (the
	// group key NAME is withheld entirely, so even the single global
	// group sees no values... with no group columns the single group
	// exists but all folds are null).
	res, err = e.NewSession("intruder", false).Exec(`retrieve (avg(EMPLOYEE.SALARY))`)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Relation.Tuples() {
		if !r[0].IsNull() {
			t.Fatalf("intruder aggregate leaked: %v", r)
		}
	}
}

// TestAggregatePartialColumn: when a column is delivered only for some
// rows, the fold skips the withheld values — exactly what the user could
// compute from the masked raw answer.
func TestAggregatePartialColumn(t *testing.T) {
	e := paperEngine(t)
	// Klein's ELP covers the budgets of large projects; vg-13 (150,000)
	// is outside.
	res, err := e.NewSession("Klein", false).Exec(
		`retrieve (count(PROJECT.NUMBER), min(PROJECT.BUDGET))`)
	if err != nil {
		t.Fatal(err)
	}
	_ = res
	// ELP spans three relations and is entirety-pruned on this
	// single-relation query: nothing is delivered.
	for _, r := range res.Relation.Tuples() {
		if !r[0].IsNull() || !r[1].IsNull() {
			t.Fatalf("single-relation query must deliver nothing to Klein: %v", r)
		}
	}
}

func TestAggregateStringMinMax(t *testing.T) {
	e := paperEngine(t)
	res, err := e.NewSession("admin", true).Exec(
		`retrieve (min(EMPLOYEE.NAME), max(EMPLOYEE.NAME))`)
	if err != nil {
		t.Fatal(err)
	}
	row := res.Relation.Tuples()[0]
	if row[0] != value.String("Brown") || row[1] != value.String("Smith") {
		t.Fatalf("row = %v", row)
	}
}

func TestAggregateRejectedInViews(t *testing.T) {
	e := paperEngine(t)
	admin := e.NewSession("admin", true)
	if _, err := admin.Exec(`view AV (avg(EMPLOYEE.SALARY))`); err == nil ||
		!strings.Contains(err.Error(), "retrieve") {
		t.Fatalf("aggregate view accepted: %v", err)
	}
}

func TestAggregateParseShapes(t *testing.T) {
	e := paperEngine(t)
	admin := e.NewSession("admin", true)
	// Aggregate over a joined query.
	res, err := admin.Exec(`
		retrieve (PROJECT.SPONSOR, count(ASSIGNMENT.E_NAME))
		  where ASSIGNMENT.P_NO = PROJECT.NUMBER`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Relation.Len() != 3 {
		t.Fatalf("sponsor groups = %d\n%s", res.Relation.Len(), res.Relation)
	}
	if _, err := admin.Exec(`retrieve (count(EMPLOYEE.NAME)`); err == nil {
		t.Fatal("unbalanced parens accepted")
	}
	if _, err := admin.Exec(`retrieve (median(EMPLOYEE.SALARY))`); err == nil {
		t.Fatal("unknown aggregate accepted (must parse as relation ref and fail analysis)")
	}
}

// TestAggregateGroupsExact: the two rows differ in their group columns,
// so they form two groups of one row each.
func TestAggregateGroupsExact(t *testing.T) {
	e := updateEngine(t, `
		relation R (A, B, C);
		insert into R values (`+collideA1+`, `+collideB1+`, 1);
		insert into R values (`+collideA2+`, `+collideB2+`, 2);`)
	res, err := e.NewSession("admin", true).Exec(`retrieve (R.A, R.B, count(R.C))`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Relation.Len() != 2 {
		t.Fatalf("groups = %d, want 2:\n%s", res.Relation.Len(), res.Relation)
	}
	for _, row := range res.Relation.Tuples() {
		if !row[2].Equal(value.Int(1)) {
			t.Fatalf("every group holds one row: %v", row)
		}
	}
}
