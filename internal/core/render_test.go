package core_test

import (
	"strings"
	"testing"

	"authdb/internal/algebra"
	"authdb/internal/core"
	"authdb/internal/interval"
	"authdb/internal/value"
	"authdb/internal/workload"
)

func TestMetaRelRender(t *testing.T) {
	f := workload.Paper()
	inst := f.Store.Of("Klein").Instantiate(map[string]int{"EMPLOYEE": 1, "ASSIGNMENT": 1, "PROJECT": 1}, core.DefaultOptions())
	mr := inst.MetaRelFor("PROJECT", "PROJECT")
	var b strings.Builder
	mr.Render(&b, "PROJECT':", inst)
	out := b.String()
	for _, want := range []string{"PROJECT':", "VIEW", "ELP", "x2*", "x3*"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render misses %q:\n%s", want, out)
		}
	}
	// String() uses fallback variable names.
	if s := mr.String(); !strings.Contains(s, "v") || !strings.Contains(s, "*") {
		t.Fatalf("String() = %s", s)
	}
}

func TestCellRendering(t *testing.T) {
	f := workload.Paper()
	inst := f.Store.Of("Brown").Instantiate(map[string]int{"PROJECT": 1}, core.DefaultOptions())
	mr := inst.MetaRelFor("PROJECT", "PROJECT")
	var b strings.Builder
	mr.Render(&b, "", inst)
	out := b.String()
	// PSA renders constants with stars and blanks as empty cells.
	if !strings.Contains(out, "Acme*") {
		t.Fatalf("constant cell rendering:\n%s", out)
	}
}

// TestSelectAttrAttrIntervalDecisions drives decideByIntervals through
// every decidable outcome via the public operator.
func TestSelectAttrAttrIntervalDecisions(t *testing.T) {
	build := func(condA, condB string) (*core.Instance, *core.MetaRel) {
		f := workload.NewFixture()
		f.MustExec(`relation R (A, B) key (A);`)
		stmt := "view V (R.A, R.B)"
		var conds []string
		if condA != "" {
			conds = append(conds, condA)
		}
		if condB != "" {
			conds = append(conds, condB)
		}
		for i, c := range conds {
			if i == 0 {
				stmt += " where " + c
			} else {
				stmt += " and " + c
			}
		}
		f.MustExec(stmt + "; permit V to u;")
		inst := f.Store.Of("u").Instantiate(map[string]int{"R": 1}, core.DefaultOptions())
		return inst, inst.MetaRelFor("R", "R")
	}
	sel := func(inst *core.Instance, mr *core.MetaRel, op value.Cmp) int {
		out, err := core.MetaSelect(mr, algebra.Atom{L: "R.A", Op: op, R: algebra.AttrOp("R.B")}, inst, true)
		if err != nil {
			t.Fatal(err)
		}
		return len(out.Tuples)
	}
	// A ≤ 3, B ≥ 5: A < B always holds (μ ⇒ λ): kept.
	inst, mr := build("R.A <= 3", "R.B >= 5")
	if sel(inst, mr, value.LT) != 1 {
		t.Fatal("always-less must keep the tuple")
	}
	// A < B never holds when A ≥ 5 and B ≤ 3: discarded.
	inst, mr = build("R.A >= 5", "R.B <= 3")
	if sel(inst, mr, value.LT) != 0 {
		t.Fatal("always-greater must discard the tuple on <")
	}
	if sel(inst, mr, value.GT) != 1 {
		t.Fatal("always-greater must keep the tuple on >")
	}
	// Equal closed bounds meeting at a point: A ≤ 3, B ≥ 3.
	inst, mr = build("R.A <= 3", "R.B >= 3")
	if sel(inst, mr, value.LE) != 1 {
		t.Fatal("less-or-equal certain must keep")
	}
	if sel(inst, mr, value.GT) != 0 {
		t.Fatal("greater impossible must discard")
	}
	// NE decided by strict separation.
	inst, mr = build("R.A <= 2", "R.B >= 5")
	if sel(inst, mr, value.NE) != 1 {
		t.Fatal("disjoint intervals must keep NE")
	}
	// Undecided overlap: kept unmodified (μ retained).
	inst, mr = build("R.A <= 5", "R.B >= 3")
	if sel(inst, mr, value.LT) != 1 {
		t.Fatal("undecided overlap must keep μ")
	}
	// EQ over disjoint intervals: contradiction.
	inst, mr = build("R.A <= 2", "R.B >= 5")
	if sel(inst, mr, value.EQ) != 0 {
		t.Fatal("equality over disjoint intervals must discard")
	}
}

// TestComparisonRendering exercises every COMPARISON row shape.
func TestComparisonRendering(t *testing.T) {
	f := workload.NewFixture()
	f.MustExec(`
		relation R (A, B, C) key (A);
		view V1 (R.A, R.B) where R.B > 1 and R.B < 9 and R.B != 4;
		view V2 (R.A, R.B) where R.B = 7;
		view V3 (R.A, R.B, R.C) where R.B < R.C;
	`)
	var b strings.Builder
	f.Store.RenderComparison(&b)
	out := b.String()
	for _, want := range []string{"> ", "< ", "!=", "= ", "V3"} {
		if !strings.Contains(out, want) {
			t.Fatalf("COMPARISON misses %q:\n%s", want, out)
		}
	}
}

func TestCellConstructors(t *testing.T) {
	if core.Blank().Star || !core.Blank().IsBlank() {
		t.Fatal("Blank wrong")
	}
	c := core.Const(value.String("Acme"), true)
	if !c.Star || c.IsBlank() {
		t.Fatal("Const wrong")
	}
	if v, ok := c.Cons.IsPoint(); !ok || v.AsString() != "Acme" {
		t.Fatal("Const interval wrong")
	}
	varCell := core.Cell{Var: 3, Cons: interval.Full()}
	if varCell.IsBlank() {
		t.Fatal("variable cells are not blank")
	}
}
