package parser

import (
	"reflect"
	"strings"
	"testing"
)

// FuzzParseProgram checks the parser never panics, that the streaming
// parse agrees with the whole-script reference — statements, lines and
// errors — and that anything it accepts round-trips through the
// definitions' String form where one exists.
func FuzzParseProgram(f *testing.F) {
	seeds := []string{
		`relation EMPLOYEE (NAME, TITLE, SALARY) key (NAME)`,
		`insert into PROJECT values (bq-45, Acme, 300000)`,
		`view ELP (EMPLOYEE.NAME) where PROJECT.BUDGET >= 250000`,
		`view V (R.A) where R.A = 1 or R.B = 2`,
		`permit EST to KLEIN; revoke EST from KLEIN;`,
		`retrieve (EMPLOYEE:1.NAME) where EMPLOYEE:1.TITLE = EMPLOYEE:2.TITLE`,
		`explain retrieve (R.A)`,
		`delete from R where A != -5`,
		`delete from R where A = 1 and B = x or A = 2`,
		`show meta`,
		"retrieve (R.A) where R.A ≥ 3",
		`-- comment only`,
		`insert into R values ("quo;ted", x)`,
		`view V (R.A`,
		`;;;`,
		"relation (A);\nrelation S (B);\ninsert into S values (@);",
		"relation S (B) relation T (C);\nretrieve (S.B) where S.B ! 2;",
		"insert into R values (1, \"x);\npermit V to u;",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		sps, err := ParseProgramPos(input)
		want, werr := referenceProgramPos(input)
		if !reflect.DeepEqual(err, werr) {
			t.Fatalf("streaming error %v, reference %v", err, werr)
		}
		if len(sps)+len(want) > 0 && !reflect.DeepEqual(sps, want) {
			t.Fatalf("streaming parse %+v, reference %+v", sps, want)
		}
		if err != nil {
			return
		}
		for _, sp := range sps {
			switch s := sp.Stmt.(type) {
			case ViewStmt:
				// The printed form must itself parse to a view with the
				// same shape.
				again, err := Parse(s.Def.String())
				if err != nil {
					t.Fatalf("view round trip failed: %v\nprinted: %s", err, s.Def.String())
				}
				v2 := again.(ViewStmt)
				if len(v2.Def.Cols) != len(s.Def.Cols) ||
					len(v2.Def.Where) != len(s.Def.Where) ||
					len(v2.Def.Or) != len(s.Def.Or) {
					t.Fatalf("view round trip changed shape:\n%s\nvs\n%s", s.Def, v2.Def)
				}
			case Retrieve:
				if _, err := Parse(s.Def.String()); err != nil {
					t.Fatalf("retrieve round trip failed: %v\nprinted: %s", err, s.Def.String())
				}
			}
		}
	})
}

// roundTripCorpus is TestRoundTripCorpus's input, shared with the
// streaming-parse equivalence test.
var roundTripCorpus = []string{
	`view ELP (EMPLOYEE.NAME, EMPLOYEE.TITLE, PROJECT.NUMBER, PROJECT.BUDGET)
	  where EMPLOYEE.NAME = ASSIGNMENT.E_NAME
	  and PROJECT.NUMBER = ASSIGNMENT.P_NO
	  and PROJECT.BUDGET >= 250000`,
	`view EST (EMPLOYEE:1.NAME, EMPLOYEE:2.NAME, EMPLOYEE:1.TITLE)
	  where EMPLOYEE:1.TITLE = EMPLOYEE:2.TITLE`,
	`view D (P.N) where P.S = Acme or P.B >= 400000 and P.B <= 900000`,
	`retrieve (EMPLOYEE.NAME, EMPLOYEE.SALARY) where EMPLOYEE.TITLE = engineer`,
}

// TestRoundTripCorpus runs the fuzz body over a fixed corpus so the
// property is exercised in ordinary test runs too.
func TestRoundTripCorpus(t *testing.T) {
	for _, in := range roundTripCorpus {
		s, err := Parse(in)
		if err != nil {
			t.Fatalf("Parse(%q): %v", in, err)
		}
		var printed string
		switch s := s.(type) {
		case ViewStmt:
			printed = s.Def.String()
		case Retrieve:
			printed = s.Def.String()
		}
		if _, err := Parse(printed); err != nil {
			t.Fatalf("round trip of %q failed: %v\nprinted: %s", in, err, printed)
		}
		if !strings.Contains(printed, "(") {
			t.Fatalf("printed form suspicious: %q", printed)
		}
	}
}
