package parser

import (
	"math"
	"strings"
	"testing"

	"authdb/internal/cview"
	"authdb/internal/value"
)

func parseOne(t *testing.T, in string) Stmt {
	t.Helper()
	s, err := Parse(in)
	if err != nil {
		t.Fatalf("Parse(%q): %v", in, err)
	}
	return s
}

func TestCreateRelation(t *testing.T) {
	s := parseOne(t, `relation EMPLOYEE (NAME, TITLE, SALARY) key (NAME)`).(CreateRelation)
	if s.Name != "EMPLOYEE" || len(s.Attrs) != 3 || len(s.Key) != 1 || s.Key[0] != "NAME" {
		t.Fatalf("parsed %+v", s)
	}
	s = parseOne(t, `relation ASSIGNMENT (E_NAME, P_NO) key (E_NAME, P_NO)`).(CreateRelation)
	if len(s.Key) != 2 {
		t.Fatalf("composite key: %+v", s)
	}
	s = parseOne(t, `relation T (A)`).(CreateRelation)
	if s.Key != nil {
		t.Fatalf("keyless: %+v", s)
	}
}

func TestInsert(t *testing.T) {
	s := parseOne(t, `insert into PROJECT values (bq-45, Acme, 300000)`).(Insert)
	if s.Rel != "PROJECT" || len(s.Values) != 3 {
		t.Fatalf("parsed %+v", s)
	}
	if s.Values[0] != value.String("bq-45") {
		t.Errorf("hyphenated identifier parsed as %v", s.Values[0])
	}
	if s.Values[2] != value.Int(300000) {
		t.Errorf("number parsed as %v", s.Values[2])
	}
	s = parseOne(t, `insert into R values (-5, "quoted string")`).(Insert)
	if s.Values[0] != value.Int(-5) || s.Values[1] != value.String("quoted string") {
		t.Fatalf("parsed %+v", s)
	}
}

func TestDelete(t *testing.T) {
	s := parseOne(t, `delete from PROJECT`).(Delete)
	if s.Rel != "PROJECT" || s.Where != nil {
		t.Fatalf("parsed %+v", s)
	}
	s = parseOne(t, `delete from PROJECT where NUMBER = bq-45 and BUDGET > 100`).(Delete)
	if len(s.Where) != 2 {
		t.Fatalf("parsed %+v", s)
	}
	if s.Where[0].L.Alias != "PROJECT" || s.Where[0].L.Attr != "NUMBER" {
		t.Errorf("bare attribute not qualified: %+v", s.Where[0])
	}
	s = parseOne(t, `delete from PROJECT where PROJECT.SPONSOR = Acme`).(Delete)
	if s.Where[0].L.Attr != "SPONSOR" {
		t.Fatalf("qualified attribute: %+v", s.Where[0])
	}
	const or = `delete from PROJECT where PROJECT.NUMBER = bq-45 and PROJECT.BUDGET = 100 or PROJECT.NUMBER = "sv 72"`
	s = parseOne(t, or).(Delete)
	if len(s.Where) != 2 || len(s.Or) != 1 || len(s.Or[0]) != 1 || s.Or[0][0].L.Attr != "NUMBER" {
		t.Fatalf("disjunctive delete: %+v", s)
	}
	if text, err := Render(s); err != nil || text != or {
		t.Fatalf("disjunctive delete renders as %q (%v), want %q", text, err, or)
	}
}

// TestRenderInsertRoundTrip renders inserts of awkward values and
// reparses them: each value must come back with its kind and bytes. A
// value without a literal form must be refused by CheckLiterals and by
// Render alike.
func TestRenderInsertRoundTrip(t *testing.T) {
	for _, v := range []value.Value{
		value.Int(math.MinInt64), value.Int(5), value.String("5"), value.String(""),
		value.String("-"), value.String("\x00"), value.String("a\nb"), value.String("--x"),
		value.String("bq-45"), value.String("two words"), value.String("aé"), value.String("é"),
		value.String("insert"), value.String("a;b"), value.String("\xff"),
	} {
		ins := Insert{Rel: "R", Values: []value.Value{v}}
		text, err := Render(ins)
		if err != nil {
			t.Fatalf("%#v: %v", v, err)
		}
		back, err := Parse(text)
		if err != nil {
			t.Fatalf("%#v renders as %q, which does not parse: %v", v, text, err)
		}
		if got := back.(Insert).Values[0]; got != v {
			t.Fatalf("%#v renders as %q, which parses to %#v", v, text, got)
		}
	}
	for _, v := range []value.Value{value.Null(), value.String(`say "hi"`)} {
		ins := Insert{Rel: "R", Values: []value.Value{v}}
		if err := CheckLiterals(ins); err == nil {
			t.Errorf("CheckLiterals accepted %#v", v)
		}
		if _, err := Render(ins); err == nil {
			t.Errorf("Render accepted %#v", v)
		}
	}
}

func TestViewStatement(t *testing.T) {
	s := parseOne(t, `
view ELP (EMPLOYEE.NAME, EMPLOYEE.TITLE, PROJECT.NUMBER, PROJECT.BUDGET)
  where EMPLOYEE.NAME = ASSIGNMENT.E_NAME
  and PROJECT.NUMBER = ASSIGNMENT.P_NO
  and PROJECT.BUDGET >= 250000`).(ViewStmt)
	d := s.Def
	if d.Name != "ELP" || len(d.Cols) != 4 || len(d.Where) != 3 {
		t.Fatalf("parsed %+v", d)
	}
	if d.Where[2].Op != value.GE || d.Where[2].R.Const != value.Int(250000) {
		t.Errorf("condition 3: %+v", d.Where[2])
	}
	if !d.Where[0].R.IsCol || d.Where[0].R.Col.Alias != "ASSIGNMENT" {
		t.Errorf("condition 1 RHS: %+v", d.Where[0])
	}
}

func TestOccurrenceSuffixes(t *testing.T) {
	s := parseOne(t, `
view EST (EMPLOYEE:1.NAME, EMPLOYEE:2.NAME, EMPLOYEE:1.TITLE)
  where EMPLOYEE:1.TITLE = EMPLOYEE:2.TITLE`).(ViewStmt)
	d := s.Def
	if d.Cols[0].Alias != "EMPLOYEE:1" || d.Cols[1].Alias != "EMPLOYEE:2" {
		t.Fatalf("aliases: %+v", d.Cols)
	}
	if d.Where[0].L.Alias != "EMPLOYEE:1" || d.Where[0].R.Col.Alias != "EMPLOYEE:2" {
		t.Fatalf("condition aliases: %+v", d.Where[0])
	}
}

func TestRetrieveAndConstants(t *testing.T) {
	s := parseOne(t, `
retrieve (EMPLOYEE.NAME, EMPLOYEE.TITLE)
  where EMPLOYEE.TITLE = engineer`).(Retrieve)
	if len(s.Def.Cols) != 2 || s.Def.Name != "" {
		t.Fatalf("parsed %+v", s.Def)
	}
	// A bare identifier without a dot is a string constant.
	if s.Def.Where[0].R.IsCol || s.Def.Where[0].R.Const != value.String("engineer") {
		t.Fatalf("RHS: %+v", s.Def.Where[0].R)
	}
}

func TestPermitRevokeDropShow(t *testing.T) {
	p := parseOne(t, `permit EST to KLEIN`).(Permit)
	if p.View != "EST" || p.User != "KLEIN" {
		t.Fatalf("permit: %+v", p)
	}
	r := parseOne(t, `revoke EST from KLEIN`).(Revoke)
	if r.View != "EST" || r.User != "KLEIN" {
		t.Fatalf("revoke: %+v", r)
	}
	d := parseOne(t, `drop view EST`).(DropView)
	if d.Name != "EST" {
		t.Fatalf("drop: %+v", d)
	}
	sh := parseOne(t, `show view EST`).(Show)
	if sh.What != "view" || sh.Arg != "EST" {
		t.Fatalf("show: %+v", sh)
	}
	sh = parseOne(t, `SHOW RELATIONS`).(Show)
	if sh.What != "relations" {
		t.Fatalf("keywords must be case-insensitive: %+v", sh)
	}
}

func TestUnicodeComparators(t *testing.T) {
	s := parseOne(t, `retrieve (R.A) where R.A ≥ 3 and R.B ≠ 4 and R.C ≤ 5`).(Retrieve)
	ops := []value.Cmp{value.GE, value.NE, value.LE}
	for i, c := range s.Def.Where {
		if c.Op != ops[i] {
			t.Errorf("cond %d op = %v, want %v", i, c.Op, ops[i])
		}
	}
}

func TestComments(t *testing.T) {
	s := parseOne(t, `
-- a line comment
retrieve (R.A) -- trailing comment
where R.A = 1`).(Retrieve)
	if len(s.Def.Where) != 1 {
		t.Fatalf("parsed %+v", s.Def)
	}
}

func TestParseProgram(t *testing.T) {
	stmts, err := ParseProgramPos(`
relation R (A, B);
insert into R values (1, 2);
retrieve (R.A);
`)
	if err != nil {
		t.Fatal(err)
	}
	if len(stmts) != 3 {
		t.Fatalf("statements = %d", len(stmts))
	}
	if _, err := ParseProgramPos(`relation R (A) relation S (B)`); err == nil {
		t.Error("missing semicolon accepted")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		``,
		`frobnicate X`,
		`relation (A)`,
		`relation R A, B`,
		`insert R values (1)`,
		`insert into R (1)`,
		`view V EMPLOYEE.NAME`,
		`permit V KLEIN`,
		`revoke V to KLEIN`,
		`retrieve (EMPLOYEE.NAME) where EMPLOYEE.NAME`,
		`retrieve (EMPLOYEE.NAME) where = 3`,
		`retrieve (EMPLOYEE.NAME,)`,
		`retrieve (EMPLOYEE.)`,
		`retrieve (EMPLOYEE.NAME`,
		`retrieve (EMPLOYEE:x.NAME)`,
		`insert into R values ("unterminated)`,
		`retrieve (R.A) where R.A ! 3`,
	}
	for _, in := range bad {
		if _, err := Parse(in); err == nil {
			t.Errorf("Parse(%q) accepted", in)
		}
	}
}

func TestParseRejectsMultiple(t *testing.T) {
	if _, err := Parse(`relation R (A); relation S (B)`); err == nil ||
		!strings.Contains(err.Error(), "one statement") {
		t.Error("Parse must reject multiple statements")
	}
}

func TestCondStringForms(t *testing.T) {
	s := parseOne(t, `retrieve (R.A) where R.A >= 3`).(Retrieve)
	got := cview.Cond(s.Def.Where[0]).String()
	if got != "R.A >= 3" {
		t.Errorf("Cond.String = %q", got)
	}
}

func TestAggregateParsing(t *testing.T) {
	s := parseOne(t, `retrieve (EMPLOYEE.TITLE, avg(EMPLOYEE.SALARY), count(EMPLOYEE.NAME))`).(Retrieve)
	if len(s.Def.Cols) != 3 {
		t.Fatalf("cols = %v", s.Def.Cols)
	}
	if len(s.Aggs) != 2 || s.Aggs[0] != (AggSpec{Index: 1, Func: "avg"}) ||
		s.Aggs[1] != (AggSpec{Index: 2, Func: "count"}) {
		t.Fatalf("aggs = %+v", s.Aggs)
	}
	// Aggregate names are ordinary identifiers elsewhere: a relation
	// named "count" still parses as a plain column reference.
	s = parseOne(t, `retrieve (count.A)`).(Retrieve)
	if len(s.Aggs) != 0 || s.Def.Cols[0].Alias != "count" {
		t.Fatalf("plain ref: %+v %+v", s.Def.Cols, s.Aggs)
	}
	// Views reject aggregates.
	if _, err := Parse(`view V (avg(R.A))`); err == nil {
		t.Fatal("aggregate view accepted")
	}
	if _, err := Parse(`retrieve (avg(R.A)`); err == nil {
		t.Fatal("unbalanced aggregate accepted")
	}
}
