package engine_test

import (
	"testing"

	"authdb/internal/core"
	"authdb/internal/engine"
	"authdb/internal/workload"
)

// FuzzSessionExec drives arbitrary statements through both an admin and a
// user session over the paper database: whatever the input, the engine
// must return an error or a result — never panic — and the authorization
// invariant must hold: a user result never contains a value the admin
// result for the same statement lacks.
func FuzzSessionExec(f *testing.F) {
	seeds := []string{
		`retrieve (EMPLOYEE.NAME, EMPLOYEE.SALARY)`,
		`retrieve (EMPLOYEE:1.NAME, EMPLOYEE:2.NAME) where EMPLOYEE:1.TITLE = EMPLOYEE:2.TITLE`,
		`retrieve (count(EMPLOYEE.NAME), avg(EMPLOYEE.SALARY))`,
		`explain retrieve (PROJECT.NUMBER) where PROJECT.BUDGET >= 250000`,
		`insert into PROJECT values (zz-1, Acme, 1)`,
		`delete from ASSIGNMENT where P_NO = vg-13`,
		`delete from PROJECT where BUDGET >= 250000`,
		`delete from PROJECT where SPONSOR = Nobody`,
		`insert into PROJECT values (bq-45, Acme, 300000)`,
		`show meta`,
		`show rights Klein`,
		`view W (EMPLOYEE.NAME) where EMPLOYEE.SALARY > 0 or EMPLOYEE.TITLE = manager`,
		`permit SAE to Someone`,
		`retrieve (EMPLOYEE.NAME) where EMPLOYEE.SALARY ≥ 26000 and EMPLOYEE.SALARY ≠ 32000`,
		`retrieve (PROJECT.NUMBER, PROJECT.BUDGET) where PROJECT.BUDGET > 250000 and PROJECT.BUDGET <= 500000`,
		`retrieve (EMPLOYEE.NAME, PROJECT.SPONSOR) where EMPLOYEE.SALARY < 30000 and PROJECT.BUDGET >= 300000`,
		`retrieve (ASSIGNMENT.E_NAME) where ASSIGNMENT.P_NO >= aa-00 and ASSIGNMENT.P_NO < zz-99`,
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, stmt string) {
		e := engine.New(core.DefaultOptions())
		if _, err := e.NewSession("admin", true).ExecScript(workload.PaperScript); err != nil {
			t.Fatal(err)
		}
		// The user goes first, so a user's write meets the fixture
		// rather than the admin's write.
		userRes, userErr := e.NewSession("Brown", false).Exec(stmt)
		adminRes, adminErr := e.NewSession("admin", true).Exec(stmt)
		if adminErr != nil || userErr != nil {
			return // rejections are fine; panics are the target
		}
		if adminRes.Relation == nil || userRes.Relation == nil {
			return
		}
		if adminRes.Relation.Arity() != userRes.Relation.Arity() {
			return // e.g. admin-only output shapes
		}
		// Every non-null user cell must appear in some admin row at the
		// same column (no fabricated data).
		for _, ur := range userRes.Relation.Tuples() {
			for j, v := range ur {
				if v.IsNull() {
					continue
				}
				found := false
				for _, ar := range adminRes.Relation.Tuples() {
					if ar[j].Equal(v) {
						found = true
						break
					}
				}
				if !found {
					t.Fatalf("user result fabricated %v at column %d for %q", v, j, stmt)
				}
			}
		}
	})
}
