package cview

import (
	"strings"
	"testing"

	"authdb/internal/relation"
	"authdb/internal/value"
)

func paperSchema() *relation.DBSchema {
	sch := relation.NewDBSchema()
	sch.Add(relation.MustSchema("EMPLOYEE", []string{"NAME", "TITLE", "SALARY"}, "NAME"))      //nolint:errcheck
	sch.Add(relation.MustSchema("PROJECT", []string{"NUMBER", "SPONSOR", "BUDGET"}, "NUMBER")) //nolint:errcheck
	sch.Add(relation.MustSchema("ASSIGNMENT", []string{"E_NAME", "P_NO"}, "E_NAME", "P_NO"))   //nolint:errcheck
	return sch
}

func elp() *Def {
	return &Def{
		Name: "ELP",
		Cols: []ColRef{
			{"EMPLOYEE", "NAME"}, {"EMPLOYEE", "TITLE"},
			{"PROJECT", "NUMBER"}, {"PROJECT", "BUDGET"},
		},
		Where: []Cond{
			{L: ColRef{"EMPLOYEE", "NAME"}, Op: value.EQ, R: ColTerm("ASSIGNMENT", "E_NAME")},
			{L: ColRef{"PROJECT", "NUMBER"}, Op: value.EQ, R: ColTerm("ASSIGNMENT", "P_NO")},
			{L: ColRef{"PROJECT", "BUDGET"}, Op: value.GE, R: ConstTerm(value.Int(250000))},
		},
	}
}

func TestAnalyzeELP(t *testing.T) {
	an, err := Analyze(elp(), paperSchema())
	if err != nil {
		t.Fatal(err)
	}
	if len(an.Scans) != 3 {
		t.Fatalf("scans = %v", an.Scans)
	}
	// First-mention order: EMPLOYEE (cols), PROJECT (cols), ASSIGNMENT
	// (first condition).
	wantOrder := []string{"EMPLOYEE", "PROJECT", "ASSIGNMENT"}
	for i, s := range an.Scans {
		if s.Alias != wantOrder[i] {
			t.Fatalf("scan order = %v", an.Scans)
		}
	}
	if len(an.PSJ.Preds) != 3 || len(an.PSJ.Cols) != 4 {
		t.Fatalf("psj = %+v", an.PSJ)
	}
	if an.PSJ.Cols[0] != "EMPLOYEE.NAME" {
		t.Fatalf("cols = %v", an.PSJ.Cols)
	}
}

func TestAnalyzeValidation(t *testing.T) {
	sch := paperSchema()
	cases := []struct {
		name string
		def  *Def
	}{
		{"empty projection", &Def{Name: "V"}},
		{"unknown relation", &Def{Name: "V", Cols: []ColRef{{"NOPE", "X"}}}},
		{"unknown attribute", &Def{Name: "V", Cols: []ColRef{{"EMPLOYEE", "WAGE"}}}},
		{"unknown attr in cond", &Def{Name: "V",
			Cols:  []ColRef{{"EMPLOYEE", "NAME"}},
			Where: []Cond{{L: ColRef{"EMPLOYEE", "WAGE"}, Op: value.EQ, R: ConstTerm(value.Int(1))}}}},
		{"unknown attr in cond RHS", &Def{Name: "V",
			Cols:  []ColRef{{"EMPLOYEE", "NAME"}},
			Where: []Cond{{L: ColRef{"EMPLOYEE", "NAME"}, Op: value.EQ, R: ColTerm("EMPLOYEE", "WAGE")}}}},
		{"mixed bare and numbered", &Def{Name: "V",
			Cols: []ColRef{{"EMPLOYEE", "NAME"}, {"EMPLOYEE:1", "TITLE"}}}},
		{"bad suffix", &Def{Name: "V", Cols: []ColRef{{"EMPLOYEE:x", "NAME"}}}},
	}
	for _, c := range cases {
		if _, err := Analyze(c.def, sch); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

func TestAnalyzeSelfJoin(t *testing.T) {
	est := &Def{
		Name: "EST",
		Cols: []ColRef{{"EMPLOYEE:1", "NAME"}, {"EMPLOYEE:2", "NAME"}, {"EMPLOYEE:1", "TITLE"}},
		Where: []Cond{
			{L: ColRef{"EMPLOYEE:1", "TITLE"}, Op: value.EQ, R: ColTerm("EMPLOYEE:2", "TITLE")},
		},
	}
	an, err := Analyze(est, paperSchema())
	if err != nil {
		t.Fatal(err)
	}
	if len(an.Scans) != 2 || an.Scans[0].Rel != "EMPLOYEE" || an.Scans[1].Rel != "EMPLOYEE" {
		t.Fatalf("scans = %v", an.Scans)
	}
	if an.Scans[0].Alias == an.Scans[1].Alias {
		t.Fatal("self-join aliases must differ")
	}
}

func TestDefString(t *testing.T) {
	s := elp().String()
	for _, want := range []string{
		"view ELP (EMPLOYEE.NAME",
		"where EMPLOYEE.NAME = ASSIGNMENT.E_NAME",
		"and PROJECT.BUDGET >= 250000",
	} {
		if !strings.Contains(s, want) {
			t.Fatalf("String() missing %q:\n%s", want, s)
		}
	}
	q := &Def{Cols: []ColRef{{"R", "A"}}}
	if !strings.HasPrefix(q.String(), "retrieve (") {
		t.Errorf("query form: %q", q.String())
	}
}

func TestAliases(t *testing.T) {
	got := elp().Aliases()
	if len(got) != 3 {
		t.Fatalf("aliases = %v", got)
	}
	seen := map[string]bool{}
	for _, a := range got {
		if seen[a] {
			t.Fatalf("duplicate alias in %v", got)
		}
		seen[a] = true
	}
}

func TestTermAndCondString(t *testing.T) {
	c := Cond{L: ColRef{"R", "A"}, Op: value.LT, R: ConstTerm(value.Int(5))}
	if c.String() != "R.A < 5" {
		t.Errorf("Cond.String = %q", c.String())
	}
	if ColTerm("R", "B").String() != "R.B" {
		t.Error("ColTerm.String wrong")
	}
}

func TestBranchesHelpers(t *testing.T) {
	d := &Def{Name: "V", Cols: []ColRef{{"R", "A"}},
		Where: []Cond{{L: ColRef{"R", "A"}, Op: value.EQ, R: ConstTerm(value.Int(1))}},
		Or:    [][]Cond{{{L: ColRef{"R", "A"}, Op: value.EQ, R: ConstTerm(value.Int(2))}}}}
	if len(d.Branches()) != 2 {
		t.Fatalf("branches = %d", len(d.Branches()))
	}
	b1 := d.Branch(1)
	if len(b1.Where) != 1 || b1.Where[0].R.Const != value.Int(2) || b1.Or != nil {
		t.Fatalf("branch 1 = %+v", b1)
	}
	if _, err := Analyze(d, paperSchema()); err == nil {
		t.Fatal("whole disjunctive definitions must not analyze directly")
	}
}
