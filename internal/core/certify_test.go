package core_test

import (
	"strings"
	"testing"

	"authdb/internal/core"
	"authdb/internal/workload"
)

// TestCertifyIntegrity exercises the §1 generalization: views tagged with
// a quality ("validated") instead of a user; the certifier returns the
// full answer plus statements describing the validated portions.
func TestCertifyIntegrity(t *testing.T) {
	f := workload.Paper()
	// Only the Acme projects have validated data.
	if err := f.Store.Permit("PSA", "validated"); err != nil {
		t.Fatal(err)
	}
	auth := core.NewAuthorizer(f.Store, f.Source, core.DefaultOptions())
	c, err := auth.Certify("validated", workload.MustQuery(workload.Example1Query))
	if err != nil {
		t.Fatal(err)
	}
	// Certification never masks: both large projects are in the answer.
	if c.Answer.Len() != 2 {
		t.Fatalf("answer rows = %d, want 2", c.Answer.Len())
	}
	if c.Full {
		t.Fatal("only the Acme portion is validated")
	}
	if len(c.Statements) != 1 {
		t.Fatalf("statements = %v", c.Statements)
	}
	want := "certified (NUMBER, SPONSOR) where SPONSOR = Acme"
	if got := c.Statements[0].String(); got != want {
		t.Fatalf("statement = %q, want %q", got, want)
	}
	// Stats count the certified portion: the Acme row, both cells.
	if want := (core.MaskStats{Rows: 1, Cells: 2, RevealedCells: 2}); c.Stats != want {
		t.Fatalf("stats = %+v, want %+v", c.Stats, want)
	}
}

func TestCertifyFull(t *testing.T) {
	f := workload.Paper()
	// SAE validates every employee's name and salary.
	if err := f.Store.Permit("SAE", "validated"); err != nil {
		t.Fatal(err)
	}
	auth := core.NewAuthorizer(f.Store, f.Source, core.DefaultOptions())
	c, err := auth.Certify("validated", workload.MustQuery(
		`retrieve (EMPLOYEE.NAME, EMPLOYEE.SALARY)`))
	if err != nil {
		t.Fatal(err)
	}
	if !c.Full || len(c.Statements) != 0 {
		t.Fatalf("full certification expected: full=%v statements=%v", c.Full, c.Statements)
	}
}

func TestCertifyNothing(t *testing.T) {
	f := workload.Paper()
	auth := core.NewAuthorizer(f.Store, f.Source, core.DefaultOptions())
	c, err := auth.Certify("validated", workload.MustQuery(workload.Example1Query))
	if err != nil {
		t.Fatal(err)
	}
	if c.Full || c.Answer.Len() != 2 {
		t.Fatal("unvalidated data must still be answered in full")
	}
	if c.Stats != (core.MaskStats{}) {
		t.Fatalf("nothing should be certified: %+v", c.Stats)
	}
}

func TestPermitStatementVerb(t *testing.T) {
	p := core.PermitStatement{Attrs: []string{"A"}}
	if !strings.HasPrefix(p.String(), "permit (") {
		t.Fatalf("default verb: %q", p.String())
	}
	p.Verb = "certified"
	if !strings.HasPrefix(p.String(), "certified (") {
		t.Fatalf("custom verb: %q", p.String())
	}
}

// TestCertifyAfterFusedRetrieve: certification delivers the full answer
// even when the authorizer fuses mask pushdown and a closure holds an
// earlier retrieve of the same query.
func TestCertifyAfterFusedRetrieve(t *testing.T) {
	f := pushdownFixture(t)
	f.MustExec("permit LO to validated; permit HI to validated;")
	auth := core.NewAuthorizer(f.Store, f.Source, core.DefaultOptions())
	auth.Closure = core.NewClosure(0)
	d, err := auth.Retrieve("validated", allColsDef())
	if err != nil {
		t.Fatal(err)
	}
	if !d.PushdownApplied || d.Masked.Len() != 3 {
		t.Fatalf("retrieve: pushdown applied %v, %d rows delivered; want pushdown and 3 rows", d.PushdownApplied, d.Masked.Len())
	}
	c, err := auth.Certify("validated", allColsDef())
	if err != nil {
		t.Fatal(err)
	}
	if c.Answer.Len() != 4 {
		t.Fatalf("certified answer has %d rows, want all 4", c.Answer.Len())
	}
}

// TestCertifyExtendedListsDeliveredColumns: under §6(3) the mask is
// written over the wide answer, so a statement lists only the requested
// columns its tuple certifies, and a request whose columns no tuple
// certifies gets no statement at all.
func TestCertifyExtendedListsDeliveredColumns(t *testing.T) {
	f := workload.NewFixture()
	f.MustExec(`
		relation R (A, B, C);
		insert into R values (1, 5, 2);
		insert into R values (3, 4, 6);
		view V (R.A, R.C) where R.B = 5;
		permit V to q;
	`)
	opt := core.DefaultOptions()
	opt.ExtendedMasks = true
	auth := core.NewAuthorizer(f.Store, f.Source, opt)
	for _, tc := range []struct {
		query string
		want  []string
	}{
		{`retrieve (R.A)`, []string{"certified (A) where B = 5"}},
		{`retrieve (R.B)`, nil},
	} {
		c, err := auth.Certify("q", workload.MustQuery(tc.query))
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, s := range c.Statements {
			got = append(got, s.String())
		}
		if c.Full || strings.Join(got, "; ") != strings.Join(tc.want, "; ") {
			t.Errorf("%s: full=%v statements %q, want %q", tc.query, c.Full, got, tc.want)
		}
		if c.Answer.Len() != 2 {
			t.Errorf("%s: answer has %d rows, want 2", tc.query, c.Answer.Len())
		}
	}
}
