package fixture

import (
	"testing"

	"authdb"
)

// The same seed must give a byte-identical script, and another seed a
// different one: a run's inputs are a function of its seed alone.
func TestACLScriptDeterministic(t *testing.T) {
	cfg := ACLConfig{Orgs: 4, Users: 40, Groups: 12, Resources: 80, ACLs: 200}
	a, b := GenACL(7, cfg), GenACL(7, cfg)
	if a.Script != b.Script {
		t.Fatal("same seed produced different scripts")
	}
	if GenACL(8, cfg).Script == a.Script {
		t.Fatal("different seeds produced the same script")
	}
}

// The oracle and the engine must agree on every (principal, query)
// reply of a small instance, so the benchmark's correctness gate checks
// the program and not the generator.
func TestACLOracleMatchesEngine(t *testing.T) {
	cfg := ACLConfig{Orgs: 4, Users: 40, Groups: 12, Resources: 80, ACLs: 200}
	a := GenACL(3, cfg)
	db := authdb.Open()
	if _, err := db.Admin().ExecScript(a.Script); err != nil {
		t.Fatal(err)
	}
	delivered := 0
	for u := 0; u < cfg.Users; u++ {
		s := db.Session(Principal(u))
		for q := 0; q < ACLQueries; q++ {
			res, err := s.Exec(a.Query(u, q))
			if err != nil {
				t.Fatalf("user %d query %d: %v", u, q, err)
			}
			want := a.Expect(u, q)
			if len(res.Table.Rows) != len(want) {
				t.Fatalf("user %d %s: %d rows, oracle %d", u, ACLQueryNames[q], len(res.Table.Rows), len(want))
			}
			for i, row := range res.Table.Rows {
				for j, c := range row {
					if c.String() != want[i][j] {
						t.Fatalf("user %d %s row %d col %d: %q, oracle %q", u, ACLQueryNames[q], i, j, c.String(), want[i][j])
					}
				}
			}
			delivered += len(want)
		}
	}
	if delivered == 0 {
		t.Fatal("no query delivered a row; the fixture exercises nothing")
	}
}

func TestPaperScriptLoads(t *testing.T) {
	db := authdb.Open()
	if _, err := db.Admin().ExecScript(PaperScript(DefaultPaper())); err != nil {
		t.Fatal(err)
	}
	res, err := db.Session("Brown").Exec(Example3)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(res.Table.Rows); got != 3003 {
		t.Fatalf("Example 3 delivered %d rows, want 3003", got)
	}
}
