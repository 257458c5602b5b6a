package engine_test

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"authdb/internal/engine"
	"authdb/internal/relation"
	"authdb/internal/workload"
)

// TestClosureServesAndInvalidates drives the materialized closure
// through the full statement-level invalidation matrix: repeats hit,
// inserts refresh incrementally and surface immediately, a delete of a
// row the entry's stamp holds invalidates the data side (recomputing
// through the retained mask plan), and a revoke moves the principal to
// another key — each time byte-identical to a fresh computation.
func TestClosureServesAndInvalidates(t *testing.T) {
	e := paperEngine(t)
	admin := e.NewSession("admin", true)
	brown := e.NewSession("Brown", false)

	first, err := brown.Exec(workload.Example1Query)
	if err != nil {
		t.Fatal(err)
	}
	s0 := e.MaskClosureStats()
	if s0.Misses == 0 || s0.Entries == 0 {
		t.Fatalf("first retrieve should have missed and stored: %+v", s0)
	}
	second, err := brown.Exec(workload.Example1Query)
	if err != nil {
		t.Fatal(err)
	}
	s1 := e.MaskClosureStats()
	if s1.Hits != s0.Hits+1 || s1.Misses != s0.Misses {
		t.Fatalf("repeat: %+v -> %+v; want a pure closure hit", s0, s1)
	}
	if renderResult(first) != renderResult(second) {
		t.Fatal("closure-served answer differs from computed one")
	}
	if first.Decision.Mask != second.Decision.Mask {
		t.Fatal("closure hit did not share the compiled mask")
	}

	// Insert: the entry refreshes by replaying the appended window; the
	// new permitted row must be visible immediately.
	if _, err := admin.Exec(`insert into PROJECT values (zz-99, Acme, 990000)`); err != nil {
		t.Fatal(err)
	}
	res, err := brown.Exec(workload.Example1Query)
	if err != nil {
		t.Fatal(err)
	}
	s2 := e.MaskClosureStats()
	if s2.Refreshes != s1.Refreshes+1 || s2.Hits != s1.Hits+1 {
		t.Fatalf("insert should refresh incrementally: %+v -> %+v", s1, s2)
	}
	if !strings.Contains(renderResult(res), "zz-99") {
		t.Fatalf("inserted row missing from refreshed answer:\n%s", renderResult(res))
	}

	// Delete of a row the entry's stamp holds: unrepairable, so the next
	// read recomputes the actual side through the entry's plan.
	if _, err := admin.Exec(`delete from PROJECT where PROJECT.NUMBER = zz-99`); err != nil {
		t.Fatal(err)
	}
	res, err = brown.Exec(workload.Example1Query)
	if err != nil {
		t.Fatal(err)
	}
	s3 := e.MaskClosureStats()
	if s3.PlanHits != s2.PlanHits+1 {
		t.Fatalf("delete should recompute through the entry's plan: %+v -> %+v", s2, s3)
	}
	if strings.Contains(renderResult(res), "zz-99") {
		t.Fatal("deleted row still delivered")
	}
	if renderResult(res) != renderResult(first) {
		t.Fatal("post-delete answer differs from the original")
	}

	// Revoke: the very next read is denied — no resident staleness. PSA
	// no longer takes part, so the read misses under another key and
	// the entry PSA took part in stays resident for whoever holds it.
	if _, err := admin.Exec(`revoke PSA from Brown`); err != nil {
		t.Fatal(err)
	}
	denied, err := brown.Exec(workload.Example1Query)
	if err != nil {
		t.Fatal(err)
	}
	s4 := e.MaskClosureStats()
	if !denied.Decision.Denied {
		t.Fatalf("stale closure served after revoke: %d rows", denied.Relation.Len())
	}
	if s4.Misses != s3.Misses+1 || s4.Hits != s3.Hits || s4.Entries != s3.Entries+1 {
		t.Fatalf("revoke should miss under a new key: %+v -> %+v", s3, s4)
	}

	// Re-permit restores the original answer byte for byte.
	if _, err := admin.Exec(`permit PSA to Brown`); err != nil {
		t.Fatal(err)
	}
	restored, err := brown.Exec(workload.Example1Query)
	if err != nil {
		t.Fatal(err)
	}
	if renderResult(restored) != renderResult(first) {
		t.Fatal("after re-permit, answer differs from original")
	}
}

// TestClosureRefreshesAcrossDeletePastStamp: a delete that removes only
// rows appended after an entry's stamp leaves the stamped revision a
// prefix of the new one, so the next read refreshes the entry through
// the appended window instead of recomputing, and answers as an engine
// without a closure does.
func TestClosureRefreshesAcrossDeletePastStamp(t *testing.T) {
	e, ref := paperEngine(t), paperEngine(t)
	ref.SetMaskClosureEnabled(false)
	brown := e.NewSession("Brown", false)
	first, err := brown.Exec(workload.Example1Query)
	if err != nil {
		t.Fatal(err)
	}
	for _, eng := range []*engine.Engine{e, ref} {
		if _, err := eng.NewSession("admin", true).ExecScript(`
			insert into PROJECT values (zz-98, Acme, 980000);
			insert into PROJECT values (zz-99, Acme, 990000);
			delete from PROJECT where PROJECT.NUMBER = zz-98;`); err != nil {
			t.Fatal(err)
		}
	}
	before := e.MaskClosureStats()
	got, err := brown.Exec(workload.Example1Query)
	if err != nil {
		t.Fatal(err)
	}
	after := e.MaskClosureStats()
	if after.Refreshes != before.Refreshes+1 || after.PlanHits != before.PlanHits {
		t.Fatalf("the read after a delete past the stamp did not refresh: %+v -> %+v", before, after)
	}
	if got.Relation.Len() != first.Relation.Len()+1 {
		t.Fatalf("delivered %d rows, want %d", got.Relation.Len(), first.Relation.Len()+1)
	}
	want, err := ref.NewSession("Brown", false).Exec(workload.Example1Query)
	if err != nil {
		t.Fatal(err)
	}
	if renderResult(got) != renderResult(want) {
		t.Fatalf("refreshed answer:\n%s\nwant the closure-off answer\n%s", renderResult(got), renderResult(want))
	}
}

// TestClosureSharedAcrossSessions checks sharing at the statement level:
// Example 1 scans PROJECT alone, so of Brown's views only PSA takes part,
// and Ann, who holds PSA alone, is served Brown's entry, byte for byte.
// A permit of a view over EMPLOYEE keeps that; a revoke of PSA moves Ann
// to another key while Brown keeps hitting.
func TestClosureSharedAcrossSessions(t *testing.T) {
	e := paperEngine(t)
	admin := e.NewSession("admin", true)
	brown := e.NewSession("Brown", false)
	ann := e.NewSession("Ann", false)
	exec := func(stmt string) {
		t.Helper()
		if _, err := admin.Exec(stmt); err != nil {
			t.Fatal(err)
		}
	}
	read := func(step string, s *engine.Session, hit bool) string {
		t.Helper()
		before := e.MaskClosureStats()
		res, err := s.Exec(workload.Example1Query)
		if err != nil {
			t.Fatal(err)
		}
		after := e.MaskClosureStats()
		if gotHit := after.Hits == before.Hits+1 && after.Misses == before.Misses; gotHit != hit {
			t.Fatalf("%s: %+v -> %+v; want hit=%v", step, before, after, hit)
		}
		return renderResult(res)
	}

	want := read("Brown cold", brown, false)
	exec(`permit PSA to Ann`)
	if got := read("Ann shares Brown's entry", ann, true); got != want {
		t.Fatalf("Ann's shared answer differs from Brown's:\n%s\nvs\n%s", got, want)
	}
	exec(`permit SAE to Ann`)
	if got := read("Ann after a permit over EMPLOYEE", ann, true); got != want {
		t.Fatalf("Ann's answer moved:\n%s", got)
	}
	exec(`revoke PSA from Ann`)
	if got := read("Ann after the revoke", ann, false); got == want {
		t.Fatal("Ann still served PSA's answer after the revoke")
	}
	if got := read("Brown keeps hitting", brown, true); got != want {
		t.Fatalf("Brown's answer moved:\n%s", got)
	}
}

// checkSorted compares r.Sorted() with a sorted clone of r's tuples.
func checkSorted(r *relation.Relation) error {
	got := r.Sorted()
	want := slices.Clone(r.Tuples())
	slices.SortFunc(want, relation.Tuple.Compare)
	if !slices.EqualFunc(got, want, relation.Tuple.Equal) {
		return fmt.Errorf("Sorted() = %v, want %v", got, want)
	}
	return nil
}

// TestClosureConcurrentPinnedReaders hammers closure-served retrieves
// from many reader goroutines while a writer churns both data (inserts
// whose visibility is asserted on the very next read) and definitions
// (revoke/permit cycles whose denial is asserted on the very next read,
// and a view defined and dropped, which Brown's entry survives). Run
// with -race: the resident state is shared across every
// pinned reader. Each reader also sorts the relation it was served and
// checks it against a sorted clone, so readers of a canonical prefix run
// while refreshes append behind it.
func TestClosureConcurrentPinnedReaders(t *testing.T) {
	e := paperEngine(t)
	admin := e.NewSession("admin", true)

	const readers = 8
	stop := make(chan struct{})
	var wg, ready sync.WaitGroup
	for i := 0; i < readers; i++ {
		wg.Add(1)
		ready.Add(1)
		go func(i int) {
			defer wg.Done()
			user := "Brown"
			query := workload.Example1Query
			if i%2 == 1 {
				user, query = "Klein", workload.Example2Query
			}
			s := e.NewSession(user, false)
			first := true
			for {
				select {
				case <-stop:
					if first {
						ready.Done()
					}
					return
				default:
				}
				res, err := s.Exec(query)
				if err == nil {
					err = checkSorted(res.Relation)
				}
				if err != nil {
					t.Errorf("reader %d: %v", i, err)
					if first {
						ready.Done()
					}
					return
				}
				if first {
					first = false
					ready.Done()
				}
			}
		}(i)
	}
	// Every reader has pinned closure state before the churn begins —
	// otherwise a fast writer loop can finish before a single reader is
	// scheduled and the run exercises nothing concurrently.
	ready.Wait()

	brown := e.NewSession("Brown", false)
	rounds := 30
	if testing.Short() {
		rounds = 8
	}
	for i := 0; i < rounds; i++ {
		numA := fmt.Sprintf("cc-%02d-a", i)
		numB := fmt.Sprintf("cc-%02d-b", i)
		if _, err := admin.Exec(`insert into PROJECT values (` + numA + `, Acme, 900000)`); err != nil {
			t.Fatal(err)
		}
		// This read stores (or refreshes) the entry at the new revision...
		res, err := brown.Exec(workload.Example1Query)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(renderResult(res), numA) {
			t.Fatalf("round %d: fresh insert %s invisible through the closure", i, numA)
		}
		// ...so this second append exercises read-your-writes through the
		// incremental refresh path on a resident entry.
		if _, err := admin.Exec(`insert into PROJECT values (` + numB + `, Acme, 910000)`); err != nil {
			t.Fatal(err)
		}
		res, err = brown.Exec(workload.Example1Query)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(renderResult(res), numB) {
			t.Fatalf("round %d: appended row %s invisible after refresh", i, numB)
		}
		// Deletion-driven recompute while the entry is resident: the
		// delete removes a stamped row, so the data side invalidates and
		// the retained plan masks the fresh answer.
		if _, err := admin.Exec(`delete from PROJECT where PROJECT.NUMBER = ` + numB); err != nil {
			t.Fatal(err)
		}
		res, err = brown.Exec(workload.Example1Query)
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(renderResult(res), numB) {
			t.Fatalf("round %d: deleted row %s still delivered", i, numB)
		}
		// Immediate denial through the definition path.
		if _, err := admin.Exec(`revoke PSA from Brown`); err != nil {
			t.Fatal(err)
		}
		res, err = brown.Exec(workload.Example1Query)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Decision.Denied {
			t.Fatalf("round %d: stale closure after revoke delivered %d rows", i, res.Relation.Len())
		}
		if _, err := admin.Exec(`permit PSA to Brown`); err != nil {
			t.Fatal(err)
		}
		// A view defined and dropped that Brown does not hold moves no
		// key of Brown's: the entry, and so its mask plan, survives.
		// (Concurrent readers pinned to older revisions may replace the
		// entry's rows, never its plan.)
		held, err := brown.Exec(workload.Example1Query)
		if err != nil {
			t.Fatal(err)
		}
		for _, stmt := range []string{`view CCV (PROJECT.NUMBER) where PROJECT.BUDGET >= 0`, `drop view CCV`} {
			if _, err := admin.Exec(stmt); err != nil {
				t.Fatal(err)
			}
			res, err := brown.Exec(workload.Example1Query)
			if err != nil {
				t.Fatal(err)
			}
			if res.Decision.Mask != held.Decision.Mask {
				t.Fatalf("round %d: %s discarded Brown's entry", i, stmt)
			}
		}
		if _, err := admin.Exec(`delete from PROJECT where PROJECT.NUMBER = ` + numA); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()

	st := e.MaskClosureStats()
	if st.Hits == 0 || st.Refreshes == 0 || st.PlanHits == 0 {
		t.Fatalf("concurrency run did not exercise all closure paths: %+v", st)
	}
}
