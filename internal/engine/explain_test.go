package engine_test

import (
	"strings"
	"sync"
	"testing"

	"authdb/bench/fixture"
	"authdb/internal/core"
	"authdb/internal/engine"
	"authdb/internal/workload"
)

func TestExplainStatement(t *testing.T) {
	e := paperEngine(t)
	res, err := e.NewSession("Brown", false).Exec(
		`explain retrieve (PROJECT.NUMBER, PROJECT.SPONSOR) where PROJECT.BUDGET >= 250000`)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"plan:", "instantiated views: PSA",
		"after scan PROJECT:", "after select", "after project:",
		"mask A':", "outcome: partial (1 row(s) delivered: 2 cell(s) revealed, 0 withheld)",
		"permit (NUMBER, SPONSOR) where SPONSOR = Acme",
	} {
		if !strings.Contains(res.Text, want) {
			t.Fatalf("explain output misses %q:\n%s", want, res.Text)
		}
	}
	if res.Decision == nil {
		t.Fatal("explain must expose the decision")
	}
}

// TestExplainAccessPaths: explain reports, to an admin session, the
// access path the evaluator chose per scan, and to every session the
// mask-derived pushdown condition that retrieval fuses.
func TestExplainAccessPaths(t *testing.T) {
	e := paperEngine(t)
	res, err := e.NewSession("Brown", true).Exec(
		`explain retrieve (PROJECT.NUMBER, PROJECT.SPONSOR) where PROJECT.BUDGET >= 250000`)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"access paths:",
		"scan PROJECT: index range [PROJECT.BUDGET >= 250000]",
		"mask pushdown: PROJECT.SPONSOR = Acme (applied on retrieve)",
	} {
		if !strings.Contains(res.Text, want) {
			t.Fatalf("explain output misses %q:\n%s", want, res.Text)
		}
	}
	// A full grant has a full hull: nothing to push down.
	res, err = e.NewSession("Brown", false).Exec(
		"explain " + strings.TrimSpace(workload.Example3Query))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Text, "mask pushdown: none") {
		t.Fatalf("full grant must report no pushdown:\n%s", res.Text)
	}
	// The phases shown are the full products; the closing line says what
	// retrieval materializes instead.
	if !strings.Contains(res.Text, "meta side: retrieval plans it, materializing 60 meta-tuples against the 252 of the phases above") {
		t.Fatalf("explain must close with the planned meta side's work:\n%s", res.Text)
	}
}

// TestExplainAccessPathsGolden pins the "access paths:" block of Examples
// 1–3 for both users' admin sessions (a user's explain prints no access
// paths), on Figure 1 and on the benchmark's scaled paper fixture.
// Explain runs the unfused plan, so the block depends on the query
// alone. At Figure 1's size every inner is under the index join's
// threshold; at the benchmark's, Example 2 never materializes ASSIGNMENT
// or PROJECT — it probes their hash indexes, PROJECT's with its BUDGET
// atom checked per candidate, and reports the rows the probes returned.
func TestExplainAccessPathsGolden(t *testing.T) {
	figure1 := [][]string{{
		"scan PROJECT: index range [PROJECT.BUDGET >= 250000] — 2 of 3 rows",
	}, {
		"scan EMPLOYEE: hash eq [EMPLOYEE.TITLE = engineer] — 1 of 3 rows",
		"scan ASSIGNMENT: full scan — 6 of 6 rows",
		"scan PROJECT: index range [PROJECT.BUDGET > 300000] — 1 of 3 rows",
		"join ASSIGNMENT: hash join on EMPLOYEE.NAME = ASSIGNMENT.E_NAME — 2 rows",
		"join PROJECT: hash join on ASSIGNMENT.P_NO = PROJECT.NUMBER — 1 rows",
	}, {
		"scan EMPLOYEE:1 (EMPLOYEE): full scan — 3 of 3 rows",
		"scan EMPLOYEE:2 (EMPLOYEE): full scan — 3 of 3 rows",
		"join EMPLOYEE:2: hash join on EMPLOYEE:1.TITLE = EMPLOYEE:2.TITLE — 3 rows",
	}}
	scaled := [][]string{{
		"scan PROJECT: index range [PROJECT.BUDGET >= 250000] — 287 of 603 rows",
	}, {
		"scan EMPLOYEE: hash eq [EMPLOYEE.TITLE = engineer] — 1 of 303 rows",
		"scan ASSIGNMENT: index probe — 2 of 606 rows",
		"scan PROJECT: index probe [PROJECT.BUDGET > 300000] — 2 of 603 rows",
		"join ASSIGNMENT: index join on EMPLOYEE.NAME = ASSIGNMENT.E_NAME — 2 rows",
		"join PROJECT: index join on ASSIGNMENT.P_NO = PROJECT.NUMBER — 1 rows",
	}, {
		"scan EMPLOYEE:1 (EMPLOYEE): full scan — 303 of 303 rows",
		"scan EMPLOYEE:2 (EMPLOYEE): full scan — 303 of 303 rows",
		"join EMPLOYEE:2: hash join on EMPLOYEE:1.TITLE = EMPLOYEE:2.TITLE — 3003 rows",
	}}
	queries := []string{workload.Example1Query, workload.Example2Query, workload.Example3Query}
	for _, fx := range []struct {
		name, script string
		golden       [][]string
	}{
		{"figure1", workload.PaperScript, figure1},
		{"scaled", fixture.PaperScript(fixture.DefaultPaper()), scaled},
	} {
		e := engine.New(core.DefaultOptions())
		if _, err := e.NewSession("admin", true).ExecScript(fx.script); err != nil {
			t.Fatal(err)
		}
		for _, user := range []string{"Brown", "Klein"} {
			for k, q := range queries {
				res, err := e.NewSession(user, true).Exec("explain " + strings.TrimSpace(q))
				if err != nil {
					t.Fatal(err)
				}
				_, block, _ := strings.Cut(res.Text, "access paths:\n")
				var got []string
				for _, l := range strings.Split(block, "\n") {
					if !strings.HasPrefix(l, "  ") {
						break
					}
					got = append(got, strings.TrimSpace(l))
				}
				if strings.Join(got, "\n") != strings.Join(fx.golden[k], "\n") {
					t.Errorf("%s %s Example %d access paths:\n%s\nwant:\n%s",
						fx.name, user, k+1, strings.Join(got, "\n"), strings.Join(fx.golden[k], "\n"))
				}
			}
		}
	}
}

func TestExplainDenied(t *testing.T) {
	e := paperEngine(t)
	res, err := e.NewSession("Mallory", false).Exec(
		`explain retrieve (EMPLOYEE.NAME)`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Text, "outcome: nothing is delivered") {
		t.Fatalf("explain output:\n%s", res.Text)
	}
}

func TestExplainFullGrant(t *testing.T) {
	e := paperEngine(t)
	res, err := e.NewSession("Brown", false).Exec(
		"explain " + strings.TrimSpace(workload.Example3Query))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Text, "outcome: the entire answer is delivered") {
		t.Fatalf("explain output:\n%s", res.Text)
	}
}

// TestConcurrentSessions exercises the engine's locking: parallel readers
// and writers over the same database must not race (run with -race).
func TestConcurrentSessions(t *testing.T) {
	e := paperEngine(t)
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < 8; i++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			s := e.NewSession("Klein", false)
			for j := 0; j < 10; j++ {
				if _, err := s.Exec(workload.Example2Query); err != nil {
					errs <- err
					return
				}
			}
		}()
		go func(i int) {
			defer wg.Done()
			s := e.NewSession("admin", true)
			for j := 0; j < 10; j++ {
				name := string(rune('A'+i)) + string(rune('0'+j))
				if _, err := s.Exec("insert into EMPLOYEE values (tmp" + name + ", clerk, 1)"); err != nil {
					errs <- err
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestZeroRevealMaskDeliversNothing: a mask whose only tuple stars no
// requested column reveals nothing, whatever rows match it. The outcome
// is a denial with no permit, not a partial answer of zero rows with a
// permit listing no columns.
func TestZeroRevealMaskDeliversNothing(t *testing.T) {
	e := engine.New(core.DefaultOptions())
	if _, err := e.NewSession("admin", true).ExecScript(`
		relation R (A, B, C);
		insert into R values (1, 5, 2);
		insert into R values (3, 4, 6);
		view V (R.A, R.C) where R.B = 5;
		permit V to u;
	`); err != nil {
		t.Fatal(err)
	}
	u := e.NewSession("u", false)
	res, err := u.Exec(`retrieve (R.B)`)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Decision.Denied || len(res.Permits) != 0 || res.Relation.Len() != 0 {
		t.Fatalf("denied=%v permits=%v rows=%d; want denied, no permits, no rows",
			res.Decision.Denied, res.Permits, res.Relation.Len())
	}
	res, err = u.Exec(`explain retrieve (R.B)`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Text, "outcome: nothing is delivered") || strings.Contains(res.Text, "permit (") {
		t.Fatalf("explain output:\n%s", res.Text)
	}
}

// TestExplainIgnoresHiddenRows: a user's explain text is the same in two
// states that the user's views cannot tell apart. The access paths would
// not be: a scan reports the rows it read, hidden ones included, and the
// path itself follows estimates over every row.
func TestExplainIgnoresHiddenRows(t *testing.T) {
	const script = `
		relation R (A, B) key (A);
		insert into R values (a, pub);
		view V (R.A, R.B) where R.B = pub;
		permit V to u;
	`
	explain := func(script string) string {
		e := engine.New(core.DefaultOptions())
		if _, err := e.NewSession("admin", true).ExecScript(script); err != nil {
			t.Fatal(err)
		}
		res, err := e.NewSession("u", false).Exec(`explain retrieve (R.A, R.B)`)
		if err != nil {
			t.Fatal(err)
		}
		return res.Text
	}
	without := explain(script)
	with := explain(script + `
		insert into R values (x, sec);
		insert into R values (y, sec);
	`)
	if with != without {
		t.Fatalf("explain depends on hidden rows:\n%s\n--- without them ---\n%s", with, without)
	}
	if strings.Contains(with, "access paths:") {
		t.Fatalf("a user's explain lists access paths:\n%s", with)
	}
}
