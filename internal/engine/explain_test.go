package engine_test

import (
	"strings"
	"sync"
	"testing"

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
		"mask A':", "outcome: partial (2 of 4 cells)",
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

// TestExplainAccessPaths: explain reports the access path the evaluator
// chose per scan and the mask-derived pushdown condition. With the
// engine on core.DefaultOptions, pushdown is computed but not fused, so
// it reports as available.
func TestExplainAccessPaths(t *testing.T) {
	e := paperEngine(t)
	res, err := e.NewSession("Brown", false).Exec(
		`explain retrieve (PROJECT.NUMBER, PROJECT.SPONSOR) where PROJECT.BUDGET >= 250000`)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"access paths:",
		"scan PROJECT: index range [PROJECT.BUDGET >= 250000]",
		"mask pushdown: PROJECT.SPONSOR = Acme (available, disabled)",
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
