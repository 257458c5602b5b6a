package cview_test

import (
	"strings"
	"testing"

	"authdb/internal/cview"
	"authdb/internal/value"
	"authdb/internal/workload"
)

// calculus stores a hand-built definition over the Figure 1 relations and
// returns the §2 calculus form of its one compiled branch.
func calculus(t *testing.T, def *cview.Def) string {
	t.Helper()
	f := workload.NewFixture()
	f.MustExec(`relation EMPLOYEE (NAME, TITLE, SALARY) key (NAME);
relation PROJECT (NUMBER, SPONSOR, BUDGET) key (NUMBER);
relation ASSIGNMENT (E_NAME, P_NO) key (E_NAME, P_NO);`)
	if err := f.Store.DefineView(def); err != nil {
		t.Fatal(err)
	}
	branches := f.Store.Branches(def.Name)
	if len(branches) != 1 {
		t.Fatalf("%s: %d branches", def.Name, len(branches))
	}
	return f.Store.Calculus(branches[0])
}

// col names attribute attr of alias.
func col(alias, attr string) cview.ColRef { return cview.ColRef{Alias: alias, Attr: attr} }

func TestCalculusELP(t *testing.T) {
	calc := calculus(t, &cview.Def{
		Name: "ELP",
		Cols: []cview.ColRef{
			col("EMPLOYEE", "NAME"), col("EMPLOYEE", "TITLE"),
			col("PROJECT", "NUMBER"), col("PROJECT", "BUDGET"),
		},
		Where: []cview.Cond{
			{L: col("EMPLOYEE", "NAME"), Op: value.EQ, R: cview.ColTerm("ASSIGNMENT", "E_NAME")},
			{L: col("PROJECT", "NUMBER"), Op: value.EQ, R: cview.ColTerm("ASSIGNMENT", "P_NO")},
			{L: col("PROJECT", "BUDGET"), Op: value.GE, R: cview.ConstTerm(value.Int(250000))},
		},
	})
	for _, want := range []string{
		"in EMPLOYEE", "in PROJECT", "in ASSIGNMENT",
		">= 250000", "a1", "(exists b",
	} {
		if !strings.Contains(calc, want) {
			t.Fatalf("calculus missing %q:\n%s", want, calc)
		}
	}
}

func TestCalculusConstantFolding(t *testing.T) {
	calc := calculus(t, &cview.Def{
		Name: "PSA",
		Cols: []cview.ColRef{col("PROJECT", "NUMBER"), col("PROJECT", "SPONSOR"), col("PROJECT", "BUDGET")},
		Where: []cview.Cond{
			{L: col("PROJECT", "SPONSOR"), Op: value.EQ, R: cview.ConstTerm(value.String("Acme"))},
		},
	})
	// SPONSOR is projected, so the equality surfaces as a comparative on
	// its head variable rather than being substituted silently.
	if !strings.Contains(calc, "= Acme") {
		t.Fatalf("calculus: %s", calc)
	}
}

// TestCalculusPaperViews renders hand-built SAE and EST definitions in the
// §2 domain-calculus notation and checks their shapes.
func TestCalculusPaperViews(t *testing.T) {
	sae := &cview.Def{Name: "SAE", Cols: []cview.ColRef{col("EMPLOYEE", "NAME"), col("EMPLOYEE", "SALARY")}}
	est := &cview.Def{
		Name:  "EST",
		Cols:  []cview.ColRef{col("EMPLOYEE:1", "NAME"), col("EMPLOYEE:2", "NAME"), col("EMPLOYEE:1", "TITLE")},
		Where: []cview.Cond{{L: col("EMPLOYEE:1", "TITLE"), Op: value.EQ, R: cview.ColTerm("EMPLOYEE:2", "TITLE")}},
	}
	cases := []struct {
		def  *cview.Def
		want []string
	}{
		{sae, []string{"{a1, a2 |", "(exists b1)", "in EMPLOYEE"}},
		{est, []string{"a1", "a2", "a3", "in EMPLOYEE"}},
	}
	for _, c := range cases {
		got := calculus(t, c.def)
		for _, w := range c.want {
			if !strings.Contains(got, w) {
				t.Fatalf("calculus of %s misses %q:\n%s", c.def.Name, w, got)
			}
		}
	}
	// EST's shared TITLE variable appears in both membership subformulas.
	got := calculus(t, est)
	title := got[strings.Index(got, "|"):]
	if strings.Count(title, "a3") < 2 {
		t.Fatalf("EST's projected title variable must appear in both memberships:\n%s", got)
	}
}
