package engine_test

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"strings"
	"testing"

	"authdb/internal/core"
	"authdb/internal/engine"
	"authdb/internal/parser"
	"authdb/internal/workload"
)

// example3 is §5's Example 3, Brown's self-join of EMPLOYEE on TITLE.
const example3 = `retrieve (EMPLOYEE:1.NAME, EMPLOYEE:1.SALARY, EMPLOYEE:2.NAME, EMPLOYEE:2.SALARY)
	where EMPLOYEE:1.TITLE = EMPLOYEE:2.TITLE`

// withForeignFirst is the paper's script with foreign defined before the
// paper's own views.
func withForeignFirst(foreign string) string {
	return strings.Replace(workload.PaperScript, "view SAE", foreign+"\nview SAE", 1)
}

// TestExplainIgnoresForeignViews: a view Brown does not hold, defined
// before the paper's views, changes nothing in Brown's explain of
// Example 3 — the variable names included, which once counted every view
// defined before EST and printed Figure 1's x4 as x6.
func TestExplainIgnoresForeignViews(t *testing.T) {
	explain := func(script string) string {
		e := engine.New(core.DefaultOptions())
		if _, err := e.NewSession("admin", true).ExecScript(script); err != nil {
			t.Fatal(err)
		}
		return execText(t, e.NewSession("Brown", false), "explain "+example3)
	}
	plain := explain(workload.PaperScript)
	pre := explain(withForeignFirst(`view PRE (PROJECT.NUMBER) where PROJECT.BUDGET >= 1 and PROJECT.NUMBER = ASSIGNMENT.P_NO;`))
	if plain != pre {
		t.Fatalf("Brown's explain depends on PRE:\n%s\n---\n%s", plain, pre)
	}
	if !strings.Contains(plain, "| EST     | *    | x1*   |        |") {
		t.Fatalf("Brown's explain does not name EST's variable x1:\n%s", plain)
	}
}

// foreignUser is the observer of FuzzForeignDefinitions.
const foreignUser = "Brown"

// ownPool holds definitions the observer may come to hold, beyond the
// paper's: each seeded script takes some of them.
var ownPool = []string{
	`view OWN (ASSIGNMENT.E_NAME, ASSIGNMENT.P_NO) where ASSIGNMENT.P_NO = PROJECT.NUMBER and PROJECT.BUDGET < 400000; permit OWN to Brown`,
	`view DIS (EMPLOYEE.NAME) where EMPLOYEE.SALARY > 25000 or EMPLOYEE.TITLE = manager; permit DIS to Brown`,
	`permit ELP to Brown`,
	`revoke PSA from Brown`,
	`view TOP (EMPLOYEE.NAME, EMPLOYEE.TITLE, EMPLOYEE.SALARY); permit TOP to Brown`,
}

// foreignViews are view bodies a generated foreign definition takes.
var foreignViews = []string{
	`(PROJECT.NUMBER) where PROJECT.BUDGET >= 1 and PROJECT.NUMBER = ASSIGNMENT.P_NO`,
	`(PROJECT.NUMBER) where PROJECT.SPONSOR = Apex`,
	`(EMPLOYEE.NAME, EMPLOYEE.SALARY) where EMPLOYEE.SALARY < 30000`,
	`(EMPLOYEE:1.NAME, EMPLOYEE:2.TITLE) where EMPLOYEE:1.SALARY = EMPLOYEE:2.SALARY and EMPLOYEE:1.TITLE = engineer`,
	`(EMPLOYEE.NAME, EMPLOYEE.TITLE, EMPLOYEE.SALARY)`,
	`(ASSIGNMENT.E_NAME) where ASSIGNMENT.E_NAME = EMPLOYEE.NAME and EMPLOYEE.SALARY > 20000 or ASSIGNMENT.P_NO = sv-72`,
	`(PROJECT.NUMBER, PROJECT.SPONSOR, PROJECT.BUDGET) where PROJECT.BUDGET > 100000 and PROJECT.BUDGET < 400000`,
}

// foreignStmts generates n definitions about views other than the
// observer's, among foreign names and the paper's names ELP and PSA when
// the observer never holds them: views, permits and revokes of them to
// and from others, drops and redefinitions.
func foreignStmts(rng *rand.Rand, n int, reserved map[string]bool) []string {
	names := []string{"F1", "F2", "F3", "ELP", "PSA"}
	users := []string{"Klein", "Nobody", "Other"}
	var out []string
	for len(out) < n {
		name := names[rng.IntN(len(names))]
		if reserved[name] {
			continue
		}
		body := foreignViews[rng.IntN(len(foreignViews))]
		user := users[rng.IntN(len(users))]
		switch rng.IntN(5) {
		case 0, 1:
			out = append(out, "view "+name+" "+body)
		case 2:
			out = append(out, "permit "+name+" to "+user)
		case 3:
			out = append(out, "revoke "+name+" from "+user)
		default:
			out = append(out, "drop view "+name, "view "+name+" "+body)
		}
	}
	return out
}

// isForeign reports whether stmt is a definition the observer can hold
// no part of: a view, drop, permit or revoke naming no view in reserved
// and granting nothing to or taking nothing from the observer.
func isForeign(stmt string, reserved map[string]bool) bool {
	p, err := parser.Parse(stmt)
	if err != nil {
		return false
	}
	switch p := p.(type) {
	case parser.ViewStmt:
		return !reserved[p.Def.Name]
	case parser.DropView:
		return !reserved[p.Name]
	case parser.Permit:
		return p.User != foreignUser
	case parser.Revoke:
		return p.User != foreignUser
	}
	return false
}

// observerProbes are what the observer runs at the end of a script, in
// order: retrieves, explains and shows, then writes and a read after.
var observerProbes = []string{
	`retrieve (EMPLOYEE.NAME, EMPLOYEE.SALARY)`,
	`retrieve (PROJECT.NUMBER, PROJECT.BUDGET) where PROJECT.BUDGET >= 250000`,
	example3,
	`retrieve (EMPLOYEE.NAME, PROJECT.NUMBER) where EMPLOYEE.NAME = ASSIGNMENT.E_NAME and ASSIGNMENT.P_NO = PROJECT.NUMBER`,
	`retrieve (ASSIGNMENT.E_NAME, ASSIGNMENT.P_NO)`,
	`explain retrieve (EMPLOYEE.NAME, EMPLOYEE.SALARY)`,
	`explain retrieve (PROJECT.NUMBER, PROJECT.BUDGET) where PROJECT.BUDGET >= 250000`,
	"explain " + example3,
	`explain retrieve (EMPLOYEE.NAME, PROJECT.NUMBER) where EMPLOYEE.NAME = ASSIGNMENT.E_NAME and ASSIGNMENT.P_NO = PROJECT.NUMBER`,
	`show views`,
	`show permissions`,
	`show view SAE`, `show view ELP`, `show view EST`, `show view PSA`, `show view OWN`,
	`show view DIS`, `show view TOP`, `show view F1`, `show view SECRET`, `show view PRE`,
	`insert into EMPLOYEE values (Adams, engineer, 27000)`,
	`insert into PROJECT values (zz-1, Acme, 1)`,
	`insert into ASSIGNMENT values (Adams, zz-1)`,
	`delete from EMPLOYEE where SALARY < 23000`,
	`delete from PROJECT where BUDGET >= 250000`,
	`retrieve (EMPLOYEE.NAME, EMPLOYEE.TITLE, EMPLOYEE.SALARY)`,
	example3,
}

// othersRead are retrieves other principals run before the observer, so
// the closure holds entries the observer's reads may share.
var othersRead = []string{
	example3,
	`retrieve (EMPLOYEE.NAME, EMPLOYEE.SALARY)`,
	`retrieve (PROJECT.NUMBER, PROJECT.BUDGET) where PROJECT.BUDGET >= 250000`,
}

// observe runs script as an administrator (statement errors are the
// administrator's, not the observer's, and are ignored), lets Klein and
// Nobody read first when othersFirst, and returns every output the
// observer's probes print: relation and permits, text, or error.
func observe(t *testing.T, script []string, closure, othersFirst bool) []string {
	t.Helper()
	e := engine.New(core.DefaultOptions())
	e.SetMaskClosureEnabled(closure)
	admin := e.NewSession("admin", true)
	if _, err := admin.ExecScript(paperData); err != nil {
		t.Fatal(err)
	}
	for _, stmt := range script {
		admin.Exec(stmt) //nolint:errcheck // the administrator's errors are no observation
	}
	if othersFirst {
		for _, u := range []string{"Klein", "Nobody"} {
			s := e.NewSession(u, false)
			for _, q := range othersRead {
				s.Exec(q) //nolint:errcheck // another principal's outcome
			}
		}
	}
	s := e.NewSession(foreignUser, false)
	var out []string
	for _, q := range observerProbes {
		res, err := s.Exec(q)
		var b strings.Builder
		switch {
		case err != nil:
			fmt.Fprintf(&b, "error: %v", err)
		case res.Relation != nil:
			b.WriteString(res.Relation.String())
			for _, p := range res.Permits {
				fmt.Fprintln(&b, p.String())
			}
		default:
			b.WriteString(res.Text)
		}
		out = append(out, q+"\n"+b.String())
	}
	return out
}

// paperData is the paper script's relations and rows, before its views.
var paperData = workload.PaperScript[:strings.Index(workload.PaperScript, "view SAE")]

// paperDefs is the paper script's views and permits, one statement each.
func paperDefs() []string {
	var out []string
	for _, s := range strings.Split(workload.PaperScript[len(paperData):], ";") {
		if s = strings.TrimSpace(s); s != "" {
			out = append(out, s)
		}
	}
	return out
}

// FuzzForeignDefinitions: a seeded script of the observer's definitions,
// and the same script with definitions foreign to the observer inserted
// at random positions — generated ones and those of extra — give the
// observer byte-identical retrieves, permits, explains, shows and write
// verdicts, with the closure on and off and with other principals
// reading first or not.
func FuzzForeignDefinitions(f *testing.F) {
	// The show pair: a view Brown does not hold, and grants to others.
	f.Add(uint64(1), `view SECRET (PROJECT.NUMBER) where PROJECT.SPONSOR = Apex; permit SECRET to Klein; permit ELP to Nobody`)
	// The explain pair: a view defined before Brown's own.
	f.Add(uint64(2), `view PRE (PROJECT.NUMBER) where PROJECT.BUDGET >= 1 and PROJECT.NUMBER = ASSIGNMENT.P_NO`)
	f.Add(uint64(3), `drop view ELP; view ELP (EMPLOYEE.NAME, EMPLOYEE.SALARY) where EMPLOYEE.SALARY > 1; permit ELP to Klein`)
	f.Add(uint64(4), `permit SAE to Klein; revoke EST from Klein; permit EST to Nobody`)
	f.Add(uint64(5), ``)
	f.Add(uint64(6), `permit SAE to Brown; drop view SAE; relation X (A) key (A)`)
	f.Fuzz(func(t *testing.T, seed uint64, extra string) {
		rng := rand.New(rand.NewPCG(seed, seed>>32))
		base := paperDefs()
		for _, s := range ownPool {
			if rng.IntN(2) == 0 {
				base = append(base, strings.Split(s, "; ")...)
			}
		}
		// The observer's names: every view a statement of base permits to
		// or revokes from the observer.
		reserved := map[string]bool{}
		for _, s := range base {
			switch p, _ := parser.Parse(s); p := p.(type) {
			case parser.Permit:
				reserved[p.View] = reserved[p.View] || p.User == foreignUser
			case parser.Revoke:
				reserved[p.View] = reserved[p.View] || p.User == foreignUser
			}
		}
		foreign := foreignStmts(rng, rng.IntN(6), reserved)
		for _, s := range strings.Split(extra, ";") {
			if s = strings.TrimSpace(s); isForeign(s, reserved) {
				foreign = append(foreign, s)
			}
		}
		mixed := slices.Clone(base)
		for _, s := range foreign {
			at := rng.IntN(len(mixed) + 1)
			mixed = slices.Insert(mixed, at, s)
		}
		othersFirst := rng.IntN(2) == 0
		want := observe(t, base, true, othersFirst)
		for _, run := range []struct {
			script  []string
			closure bool
		}{{mixed, true}, {base, false}, {mixed, false}} {
			got := observe(t, run.script, run.closure, othersFirst)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("closure %v, foreign %q: the observer's probe %d differs:\n%s\n---\n%s",
						run.closure, foreign, i, want[i], got[i])
				}
			}
		}
	})
}
