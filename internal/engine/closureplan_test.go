package engine_test

import (
	"strings"
	"sync"
	"testing"

	"authdb/internal/engine"
	"authdb/internal/workload"
)

// renderResult serializes a retrieve's delivered relation (in canonical
// order) and permit statements, for byte-identical comparisons between
// cached and freshly computed answers.
func renderResult(res *engine.Result) string {
	var b strings.Builder
	for _, t := range res.Relation.Sorted() {
		for _, v := range t {
			b.WriteString(v.String())
			b.WriteByte('|')
		}
		b.WriteByte('\n')
	}
	for _, p := range res.Permits {
		b.WriteString(p.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// The tests below pin the mask plan a closure entry keeps: shared on a
// hit, reused across data churn, and dropped by every definition change.

func TestMaskCacheHitIsByteIdentical(t *testing.T) {
	e := paperEngine(t)
	s := e.NewSession("Brown", false)
	first, err := s.Exec(workload.Example1Query)
	if err != nil {
		t.Fatal(err)
	}
	before := e.MaskClosureStats()
	if before.Misses == 0 {
		t.Fatal("first retrieve should have missed the closure")
	}
	second, err := s.Exec(workload.Example1Query)
	if err != nil {
		t.Fatal(err)
	}
	after := e.MaskClosureStats()
	if after.Hits != before.Hits+1 || after.Misses != before.Misses {
		t.Fatalf("second retrieve: %+v -> %+v; want a pure hit", before, after)
	}
	if renderResult(first) != renderResult(second) {
		t.Fatalf("closure-served answer differs:\nfirst:\n%s\nsecond:\n%s",
			renderResult(first), renderResult(second))
	}
	if first.Decision.Mask != second.Decision.Mask {
		// The plan (and with it the mask) should be the same shared
		// object, not a recomputation that happened to agree.
		t.Fatal("second retrieve did not reuse the entry's mask")
	}
}

func TestMaskCacheRevokeAndPermitInvalidate(t *testing.T) {
	e := paperEngine(t)
	admin := e.NewSession("admin", true)
	brown := e.NewSession("Brown", false)

	before, err := brown.Exec(workload.Example1Query)
	if err != nil {
		t.Fatal(err)
	}
	if before.Decision.Denied {
		t.Fatal("Brown's Example 1 should deliver rows while PSA is permitted")
	}
	if _, err := brown.Exec(workload.Example1Query); err != nil {
		t.Fatal(err) // warm the closure
	}
	planHits := e.MaskClosureStats().PlanHits

	if _, err := admin.Exec(`revoke PSA from Brown`); err != nil {
		t.Fatal(err)
	}
	after, err := brown.Exec(workload.Example1Query)
	if err != nil {
		t.Fatal(err)
	}
	if !after.Decision.Denied {
		t.Fatalf("stale mask served after revoke: delivered %d rows", after.Relation.Len())
	}

	if _, err := admin.Exec(`permit PSA to Brown`); err != nil {
		t.Fatal(err)
	}
	restored, err := brown.Exec(workload.Example1Query)
	if err != nil {
		t.Fatal(err)
	}
	if renderResult(restored) != renderResult(before) {
		t.Fatalf("after re-permit, answer differs from original:\nbefore:\n%s\nafter:\n%s",
			renderResult(before), renderResult(restored))
	}
	if got := e.MaskClosureStats().PlanHits; got != planHits {
		t.Fatalf("a definition change reused a plan: plan hits %d -> %d", planHits, got)
	}
}

func TestMaskCacheViewRedefinitionInvalidates(t *testing.T) {
	e := paperEngine(t)
	admin := e.NewSession("admin", true)
	brown := e.NewSession("Brown", false)

	before, err := brown.Exec(workload.Example1Query)
	if err != nil {
		t.Fatal(err)
	}
	if before.Relation.Len() == 0 {
		t.Fatal("expected delivered rows before redefinition")
	}
	planHits := e.MaskClosureStats().PlanHits
	// Redefine PSA to cover a sponsor with no projects: the old mask
	// would keep delivering Acme's projects.
	if _, err := admin.Exec(`drop view PSA`); err != nil {
		t.Fatal(err)
	}
	if _, err := admin.Exec(`view PSA (PROJECT.NUMBER, PROJECT.SPONSOR, PROJECT.BUDGET)
		where PROJECT.SPONSOR = Nobody`); err != nil {
		t.Fatal(err)
	}
	if _, err := admin.Exec(`permit PSA to Brown`); err != nil {
		t.Fatal(err)
	}
	after, err := brown.Exec(workload.Example1Query)
	if err != nil {
		t.Fatal(err)
	}
	// The new mask admits only SPONSOR = Nobody rows, of which there are
	// none; a stale mask would keep delivering Acme's projects.
	if after.Relation.Len() != 0 {
		t.Fatalf("stale mask survived view redefinition: delivered %d rows:\n%s",
			after.Relation.Len(), renderResult(after))
	}
	if got := e.MaskClosureStats().PlanHits; got != planHits {
		t.Fatalf("a view redefinition reused a plan: plan hits %d -> %d", planHits, got)
	}
}

// TestMaskCacheSurvivesDataChanges: the mask derives from definitions
// only, so a data change the closure cannot refresh — an insert under a
// multi-scan entry, any delete — reruns the actual side through the
// entry's plan. Each such retrieve shares the entry's *Mask, counts one
// plan hit and answers byte for byte as an engine without a closure.
func TestMaskCacheSurvivesDataChanges(t *testing.T) {
	e := paperEngine(t)
	fresh := paperEngine(t)
	fresh.SetMaskClosureEnabled(false)
	admin, freshAdmin := e.NewSession("admin", true), fresh.NewSession("admin", true)
	klein, freshKlein := e.NewSession("Klein", false), fresh.NewSession("Klein", false)

	exec := func(stmt string) {
		t.Helper()
		for _, s := range []*engine.Session{admin, freshAdmin} {
			if _, err := s.Exec(stmt); err != nil {
				t.Fatal(err)
			}
		}
	}
	// retrieve asks Klein's three-scan Example 2 and checks the plan hit.
	retrieve := func(step string, prev *engine.Result, wantPlanHit bool) *engine.Result {
		t.Helper()
		before := e.MaskClosureStats()
		res, err := klein.Exec(workload.Example2Query)
		if err != nil {
			t.Fatal(err)
		}
		want, err := freshKlein.Exec(workload.Example2Query)
		if err != nil {
			t.Fatal(err)
		}
		if renderResult(res) != renderResult(want) {
			t.Fatalf("%s: answer differs from a fresh computation:\ngot:\n%s\nwant:\n%s",
				step, renderResult(res), renderResult(want))
		}
		after := e.MaskClosureStats()
		if !wantPlanHit {
			return res
		}
		if after.PlanHits != before.PlanHits+1 || after.Misses != before.Misses+1 {
			t.Fatalf("%s: %+v -> %+v; want one miss through the entry's plan", step, before, after)
		}
		if res.Decision.Mask != prev.Decision.Mask || res.Decision.MetaTuples != 0 {
			t.Fatalf("%s: the meta side ran again (same mask %v, meta-tuples %d)",
				step, res.Decision.Mask == prev.Decision.Mask, res.Decision.MetaTuples)
		}
		return res
	}

	res := retrieve("cold", nil, false)
	exec(`insert into EMPLOYEE values (Green, engineer, 41000)`)
	exec(`insert into ASSIGNMENT values (Green, sv-72)`)
	res = retrieve("after insert", res, true)
	if !strings.Contains(renderResult(res), "Green") {
		t.Fatalf("inserted engineer missing from the answer:\n%s", renderResult(res))
	}
	exec(`delete from ASSIGNMENT where ASSIGNMENT.E_NAME = Green`)
	res = retrieve("after delete", res, true)
	if strings.Contains(renderResult(res), "Green") {
		t.Fatal("deleted assignment still delivered")
	}
	if got := e.MaskClosureStats().ResidentRows; got != res.Relation.Len() {
		t.Fatalf("resident rows %d, want the one entry's %d", got, res.Relation.Len())
	}
}

// TestMaskCacheNoStaleMaskUnderConcurrency hammers one query from many
// reader goroutines while the admin deletes and re-inserts a row (so
// readers recompute through the entry's plan) and revokes the grant,
// then verifies the very next read is denied — the revoke must drop the
// entry's plan no matter how hot it is. Run with -race.
func TestMaskCacheNoStaleMaskUnderConcurrency(t *testing.T) {
	e := paperEngine(t)
	admin := e.NewSession("admin", true)

	const readers = 8
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := e.NewSession("Brown", false)
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := s.Exec(workload.Example1Query); err != nil {
					t.Errorf("reader: %v", err)
					return
				}
			}
		}()
	}
	for i := 0; i < 50; i++ {
		if _, err := admin.Exec(`delete from PROJECT where PROJECT.NUMBER = bq-45`); err != nil {
			t.Fatal(err)
		}
		if _, err := admin.Exec(`insert into PROJECT values (bq-45, Acme, 300000)`); err != nil {
			t.Fatal(err)
		}
		res, err := e.NewSession("Brown", false).Exec(workload.Example1Query)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(renderResult(res), "bq-45") {
			t.Fatalf("iteration %d: re-inserted project missing:\n%s", i, renderResult(res))
		}
		if _, err := admin.Exec(`revoke PSA from Brown`); err != nil {
			t.Fatal(err)
		}
		res, err = e.NewSession("Brown", false).Exec(workload.Example1Query)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Decision.Denied {
			t.Fatalf("iteration %d: stale mask after revoke delivered %d rows", i, res.Relation.Len())
		}
		if _, err := admin.Exec(`permit PSA to Brown`); err != nil {
			t.Fatal(err)
		}
		// Store an entry under the restored grant, so the next delete
		// has one to release even if no reader ran.
		if _, err := e.NewSession("Brown", false).Exec(workload.Example1Query); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if e.MaskClosureStats().PlanHits == 0 {
		t.Fatal("no reader recomputed through an entry's plan")
	}
}
