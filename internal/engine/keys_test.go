package engine_test

import (
	"fmt"
	"testing"

	"authdb/internal/algebra"
	"authdb/internal/core"
	"authdb/internal/engine"
	"authdb/internal/relation"
	"authdb/internal/value"
)

// The two cells of each colliding pair are strings a key that joins
// kind byte, printed value and a zero byte would encode alike:
// ("x\0\2y", "z") and ("x", "y\0\2z").
const (
	collideA1, collideB1 = `"x` + "\x00\x02" + `y"`, `z`
	collideA2, collideB2 = `x`, `"y` + "\x00\x02" + `z"`
)

// TestPlanKeyTellsKindsApart: the plan cached for a query selecting
// R.B = 5 must not serve the same query selecting R.B = "5". The two
// states agree on V's image — the rows with the integer 5 — and differ
// only in the row holding the string "5", so a user who may see only V
// must get the same answer in both: nothing, since "5" is outside V.
func TestPlanKeyTellsKindsApart(t *testing.T) {
	for _, row := range []string{`a2`, `a9`} {
		e := updateEngine(t, fmt.Sprintf(`
			relation R (A, B);
			insert into R values (a1, 5);
			insert into R values (%s, "5");
			insert into R values (a3, 6);
			view V (R.A, R.B) where R.B = 5;
			permit V to u;`, row))
		u := e.NewSession("u", false)
		if _, err := u.Exec(`retrieve (R.A) where R.B = 5`); err != nil {
			t.Fatal(err)
		}
		// Drops the closure entry and keeps the mask-cache plan.
		if _, err := e.NewSession("admin", true).Exec(`delete from R where A = a3`); err != nil {
			t.Fatal(err)
		}
		res, err := u.Exec(`retrieve (R.A) where R.B = "5"`)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Decision.Denied || res.Relation.Len() != 0 {
			t.Fatalf("state with (%s, \"5\"): denied %v, delivered\n%s", row, res.Decision.Denied, res.Relation)
		}
	}
}

// TestJoinKeysExact: no row of R joins S on both columns, so V's image
// is empty whatever S.C holds, and the user must receive nothing in
// both states; the admin's answer must equal the naive evaluator's.
func TestJoinKeysExact(t *testing.T) {
	psj := &algebra.PSJ{
		Scans: []algebra.Scan{{Rel: "R", Alias: "R"}, {Rel: "S", Alias: "S"}},
		Preds: []algebra.Atom{
			{L: "R.A", Op: value.EQ, R: algebra.AttrOp("S.A")},
			{L: "R.B", Op: value.EQ, R: algebra.AttrOp("S.B")},
		},
		Cols: []string{"R.A", "R.B", "S.C"},
	}
	const query = `retrieve (R.A, R.B, S.C) where R.A = S.A and R.B = S.B`
	for _, c := range []int{7, 8} {
		e := updateEngine(t, fmt.Sprintf(`
			relation R (A, B);
			relation S (A, B, C);
			insert into R values (%s, %s);
			insert into S values (%s, %s, %d);
			view V (R.A, R.B, S.C) where R.A = S.A and R.B = S.B;
			permit V to u;`, collideA1, collideB1, collideA2, collideB2, c))
		res, err := e.NewSession("u", false).Exec(query)
		if err != nil {
			t.Fatal(err)
		}
		if res.Relation.Len() != 0 {
			t.Fatalf("c = %d: user received\n%s", c, res.Relation)
		}
		admin, err := e.NewSession("admin", true).Exec(query)
		if err != nil {
			t.Fatal(err)
		}
		src := func(name string) (*relation.Relation, error) { return e.Relation(name) }
		want, err := algebra.EvalNaive(psj, src, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !admin.Relation.Equal(want) {
			t.Fatalf("c = %d: admin answer\n%s\nnaive answer\n%s", c, admin.Relation, want)
		}
	}
}

// TestGroupedMaskGroupsExact: under §6(3) masks the two rows differ in
// their delivered values, so both are delivered.
func TestGroupedMaskGroupsExact(t *testing.T) {
	opt := core.DefaultOptions()
	opt.ExtendedMasks = true
	e := engine.New(opt)
	if _, err := e.NewSession("admin", true).ExecScript(fmt.Sprintf(`
		relation R (A, B, C);
		insert into R values (%s, %s, 1);
		insert into R values (%s, %s, 1);
		view V (R.A, R.B, R.C) where R.C = 1;
		permit V to u;`, collideA1, collideB1, collideA2, collideB2)); err != nil {
		t.Fatal(err)
	}
	res, err := e.NewSession("u", false).Exec(`retrieve (R.A, R.B)`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Relation.Len() != 2 {
		t.Fatalf("delivered %d rows, want 2:\n%s", res.Relation.Len(), res.Relation)
	}
}

// TestPermitStatesConstantKind: an inferred permit names its constants
// as literals, so a condition on the string "5" does not read as one on
// the integer 5.
func TestPermitStatesConstantKind(t *testing.T) {
	e := updateEngine(t, `
		relation R (A, B, C);
		insert into R values (a1, "5", c1);
		insert into R values (a2, 5, c2);
		view V (R.A, R.B, R.C) where R.B = "5";
		permit V to u;`)
	res, err := e.NewSession("u", false).Exec(`retrieve (R.A, R.B, R.C)`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Permits) != 1 || res.Permits[0].String() != `permit (A, B, C) where B = "5"` {
		t.Fatalf("permits %v", res.Permits)
	}
}
