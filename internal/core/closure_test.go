package core_test

import (
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"testing"

	"authdb/internal/core"
	"authdb/internal/cview"
	"authdb/internal/relation"
	"authdb/internal/value"
	"authdb/internal/workload"
)

// mvccFixture churns a fixture's data through its Versioned lineages,
// the engine's MVCC discipline the closure relies on: every change
// publishes a successor revision (a fresh *Relation), never mutating a
// pointer the closure may have stamped.
type mvccFixture struct {
	f    *workload.Fixture
	vers map[string]*relation.Versioned
}

func newMVCCFixture(f *workload.Fixture) *mvccFixture {
	return &mvccFixture{f: f, vers: f.Rels}
}

func (m *mvccFixture) insert(rel string, vals ...int64) {
	t := make(relation.Tuple, len(vals))
	for i, v := range vals {
		t[i] = value.Int(v)
	}
	if _, err := m.vers[rel].Insert(t); err != nil {
		panic(err)
	}
}

func (m *mvccFixture) deleteWhere(rel string, pred func(relation.Tuple) bool) int {
	return m.vers[rel].Delete(pred)
}

// compareDecisions fails unless the two decisions agree on everything a
// user can observe: the delivered relation (set equality — rendering is
// canonical, so this is byte-identical output), the permit statements,
// the grant/deny flags, and the statistics, which count the delivered
// relation alone.
func compareDecisions(t *testing.T, label string, got, want *core.Decision) {
	t.Helper()
	if !got.Masked.Equal(want.Masked) {
		t.Fatalf("%s: masked answers differ:\n%s\nvs\n%s", label, got.Masked, want.Masked)
	}
	if got.FullyAuthorized != want.FullyAuthorized || got.Denied != want.Denied {
		t.Fatalf("%s: outcome flags differ: (%v,%v) vs (%v,%v)", label,
			got.FullyAuthorized, got.Denied, want.FullyAuthorized, want.Denied)
	}
	if permitsKey(got.Permits) != permitsKey(want.Permits) {
		t.Fatalf("%s: permits differ:\n%s\nvs\n%s", label, permitsKey(got.Permits), permitsKey(want.Permits))
	}
	if got.Stats != want.Stats {
		t.Fatalf("%s: stats differ: %+v vs %+v", label, got.Stats, want.Stats)
	}
}

// TestClosureDecisionsIdentical is the sixth differential variant: a
// closure-backed authorizer must deliver byte-identical answers to a
// fresh recompute — cold, warm (exact hit), under append churn
// (incremental refresh), after deletions (data invalidation, or a
// refresh when only rows past the stamp went), and after
// definition changes (a new key for the principals they touch, hits for
// the rest) — across randomized databases, views, queries, and option
// mixes, including extended masks, and to the paper's pipeline verbatim
// (referenceDecision). Three principals share the one closure: twin's
// grants coincide with u's, part holds J0 alone, and permit/revoke churn
// moves each list onto and off the others'.
func TestClosureDecisionsIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(131))
	cases := 300
	if testing.Short() {
		cases = 60
	}
	var served core.ClosureStats
	shared, defHits := 0, uint64(0)
	for iter := 0; iter < cases; iter++ {
		f := soundFixture(rng, 10)
		randJoinView(f, rng, 0)
		if rng.Intn(2) == 0 {
			randJoinView(f, rng, 1)
		}
		for _, v := range f.Store.ViewsFor("u") {
			if err := f.Store.Permit(v, "twin"); err != nil {
				t.Fatal(err)
			}
		}
		if err := f.Store.Permit("J0", "part"); err != nil {
			t.Fatal(err)
		}
		def := randQueryDef(rng)
		base := core.DefaultOptions()
		base.ExtendedMasks = rng.Intn(2) == 0
		m := newMVCCFixture(f)

		ca := core.NewAuthorizer(f.Store, f.Source, base)
		ca.Closure = core.NewClosure(0)

		// Each step asks the query, then the same query with its
		// constants' kind flipped, through the one closure-backed
		// authorizer, for every principal: neither query may be served
		// the other's entry, and a principal may be served another's
		// only when the same views take part.
		check := func(step string) {
			t.Helper()
			for _, q := range []*cview.Def{def, flipKinds(def)} {
				var first *core.Decision
				for _, user := range []string{"u", "twin", "part"} {
					label := fmt.Sprintf("case %d %s (ext=%v) user %s query %s", iter, step, base.ExtendedMasks, user, q)
					got, err := ca.Retrieve(user, q)
					if err != nil {
						t.Fatalf("%s: closure-backed: %v", label, err)
					}
					want, err := core.NewAuthorizer(f.Store, f.Source, base).Retrieve(user, q)
					if err != nil {
						t.Fatalf("%s: recompute: %v", label, err)
					}
					compareDecisions(t, label, got, want)
					compareDecisions(t, label+" vs reference", got, referenceDecision(t, f, base, user, q))
					if first == nil {
						first = got
					} else if got.Masked == first.Masked {
						shared++
					}
				}
			}
		}

		check("cold")
		check("warm")
		for j := 0; j < 3; j++ {
			m.insert("R", int64(100+j), int64(rng.Intn(10)), int64(rng.Intn(6)))
			if rng.Intn(2) == 0 {
				m.insert("S", int64(100+j), int64(rng.Intn(6)))
			}
			check(fmt.Sprintf("append %d", j))
		}
		cut := int64(rng.Intn(6))
		m.deleteWhere("R", func(tp relation.Tuple) bool { return tp[2].Equal(value.Int(cut)) })
		check("after delete")
		m.insert("R", 200, int64(rng.Intn(10)), int64(rng.Intn(6)))
		check("append after delete")
		// A delete of rows appended past every entry's stamp keeps the
		// stamp extended: single-scan ungrouped entries refresh.
		m.insert("R", 201, int64(rng.Intn(10)), int64(rng.Intn(6)))
		m.insert("R", 202, int64(rng.Intn(10)), int64(rng.Intn(6)))
		m.deleteWhere("R", func(tp relation.Tuple) bool { return tp[0].Equal(value.Int(201)) })
		check("delete past the stamp")
		// Definition churn: a new view and its permit move u off twin's
		// list and part onto a longer one, and nothing else: twin's
		// entries, keyed on definitions that did not change, still hit.
		hits := ca.Closure.Stats().Hits
		randJoinView(f, rng, 7)
		if err := f.Store.Permit("J7", "part"); err != nil {
			t.Fatal(err)
		}
		check("after new view+permit")
		defHits += ca.Closure.Stats().Hits - hits
		f.Store.Revoke("J7", "u")
		check("after revoke")
		// Revoke and re-grant J0 to twin: the same views, granted in
		// another order once twin holds J1 too.
		f.Store.Revoke("J0", "twin")
		check("twin without J0")
		if err := f.Store.Permit("J0", "twin"); err != nil {
			t.Fatal(err)
		}
		check("twin re-granted J0")

		s := ca.Closure.Stats()
		served.Hits += s.Hits
		served.Refreshes += s.Refreshes
		served.PlanHits += s.PlanHits
	}
	// The run must actually have exercised every closure path, and
	// principals must have been served one another's entries.
	if served.Hits == 0 || served.Refreshes == 0 || defHits == 0 || served.PlanHits == 0 || shared == 0 {
		t.Fatalf("differential did not exercise all closure paths: %+v, %d shared, %d hits across a definition", served, shared, defHits)
	}
	t.Logf("%+v, %d retrievals served another principal's entry", served, shared)
}

// flipKinds returns def with each integer constant written as its
// decimal string and each decimal string as its integer.
func flipKinds(def *cview.Def) *cview.Def {
	out := *def
	out.Where = slices.Clone(def.Where)
	for i, c := range out.Where {
		switch v := c.R.Const; {
		case c.R.IsCol:
		case v.Kind() == value.KindInt:
			out.Where[i].R.Const = value.String(strconv.FormatInt(v.AsInt(), 10))
		case v.Kind() == value.KindString:
			if n, err := strconv.ParseInt(v.AsString(), 10, 64); err == nil {
				out.Where[i].R.Const = value.Int(n)
			}
		}
	}
	return &out
}

// closureMatrixFixture: one relation, one partial view, a single-scan
// query — the incremental-eligible shape.
func closureMatrixFixture(t *testing.T) (*workload.Fixture, *mvccFixture, *cview.Def) {
	t.Helper()
	f := workload.NewFixture()
	f.MustExec(`
		relation R (A, B, C) key (A);
		insert into R values (1, 10, 1);
		insert into R values (2, 20, 3);
		insert into R values (3, 30, 5);
		view V (R.A, R.B) where R.B >= 15;
		permit V to u;
	`)
	def := &cview.Def{Cols: []cview.ColRef{{Alias: "R", Attr: "A"}, {Alias: "R", Attr: "B"}}}
	return f, newMVCCFixture(f), def
}

// TestClosureInvalidationMatrix drives each closure transition and
// asserts the counters and the retained state: exact hits on unchanged
// state, incremental refreshes on pure appends, data invalidation (with
// the entry's plan reused) on deletes, a new key on a permit, a return
// to the resident key on the revoke that undoes it, and exact hits
// across another user's permit and across define view and drop view of
// views u does not hold: a definition change moves keys and
// invalidates nothing.
func TestClosureInvalidationMatrix(t *testing.T) {
	f, m, def := closureMatrixFixture(t)
	opt := core.DefaultOptions()
	ca := core.NewAuthorizer(f.Store, f.Source, opt)
	ca.Closure = core.NewClosure(0)

	retrieve := func(step string) *core.Decision {
		t.Helper()
		d, err := ca.Retrieve("u", def)
		if err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		want, err := core.NewAuthorizer(f.Store, f.Source, opt).Retrieve("u", def)
		if err != nil {
			t.Fatalf("%s recompute: %v", step, err)
		}
		compareDecisions(t, step, d, want)
		return d
	}
	assertStats := func(step string, want core.ClosureStats) {
		t.Helper()
		got := ca.Closure.Stats()
		got.Entries, got.ResidentRows = 0, 0 // counters only
		if got != want {
			t.Fatalf("%s: closure stats %+v, want %+v", step, got, want)
		}
	}

	retrieve("cold")
	assertStats("cold", core.ClosureStats{Misses: 1})
	retrieve("warm")
	assertStats("warm", core.ClosureStats{Hits: 1, Misses: 1})

	// Pure appends: incremental refresh, then exact hits again.
	m.insert("R", 4, 40, 4) // delivered (B >= 15)
	m.insert("R", 5, 5, 0)  // withheld
	d := retrieve("after append")
	assertStats("after append", core.ClosureStats{Hits: 2, Misses: 1, Refreshes: 1})
	if d.Masked.Len() != 3 {
		t.Fatalf("after append: delivered %d rows, want 3", d.Masked.Len())
	}
	retrieve("warm after append")
	assertStats("warm after append", core.ClosureStats{Hits: 3, Misses: 1, Refreshes: 1})

	// Deletion: the materialization is unrepairable, but the entry's
	// mask plan is reused — data churn never touches the predicate side.
	mask := d.Mask
	if m.deleteWhere("R", func(tp relation.Tuple) bool { return tp[0].Equal(value.Int(2)) }) != 1 {
		t.Fatal("delete removed nothing")
	}
	d = retrieve("after delete")
	assertStats("after delete", core.ClosureStats{Hits: 3, Misses: 2, PlanHits: 1, Refreshes: 1})
	if d.Masked.Len() != 2 {
		t.Fatalf("after delete: delivered %d rows, want 2", d.Masked.Len())
	}
	if d.Mask != mask || d.MetaTuples != 0 {
		t.Fatalf("delete should recompute through the entry's mask plan: same mask %v, meta-tuples %d",
			d.Mask == mask, d.MetaTuples)
	}

	// Another principal's view and permits must not invalidate u's
	// entry.
	if err := tryExec(f, "view W (R.A); permit W to other;"); err != nil {
		t.Fatal(err)
	}
	retrieve("after foreign view")
	assertStats("after foreign view", core.ClosureStats{Hits: 4, Misses: 2, PlanHits: 1, Refreshes: 1})
	if err := f.Store.Permit("W", "stranger"); err != nil {
		t.Fatal(err)
	}
	retrieve("after foreign permit")
	assertStats("after foreign permit", core.ClosureStats{Hits: 5, Misses: 2, PlanHits: 1, Refreshes: 1})

	// A permit or revoke of a view that takes part moves u to another
	// key: the permit misses under the new one, and the revoke returns u
	// to the first, still resident and current. Defining or dropping a
	// view u does not hold moves no key of u's.
	steps := []struct {
		name string
		mut  func()
		want string // "miss" or "hit"
	}{
		{"permit", func() {
			if err := f.Store.Permit("W", "u"); err != nil {
				t.Fatal(err)
			}
		}, "miss"},
		{"revoke", func() {
			if !f.Store.Revoke("W", "u") {
				t.Fatal("revoke failed")
			}
		}, "hit"},
		{"define view", func() {
			if err := tryExec(f, "view X (R.C);"); err != nil {
				t.Fatal(err)
			}
		}, "hit"},
		{"drop view", func() {
			if !f.Store.DropView("X") {
				t.Fatal("drop failed")
			}
		}, "hit"},
	}
	base := ca.Closure.Stats()
	for _, st := range steps {
		st.mut()
		retrieve(st.name)
		switch st.want {
		case "hit":
			base.Hits++
		default:
			base.Misses++
		}
		assertStats(st.name, core.ClosureStats{
			Hits: base.Hits, Misses: base.Misses, PlanHits: base.PlanHits, Refreshes: base.Refreshes,
		})
	}
}

// TestClosureSharedAcrossPrincipals checks the key's sharing: two
// principals whose permitted views take part in the same grant order
// share one entry, with identical decisions; the same views in another
// order make another entry; a revoke of a participating view moves that
// principal alone to another key; and a permit of a view over a relation
// the query does not scan keeps the entry.
func TestClosureSharedAcrossPrincipals(t *testing.T) {
	f, _, def := closureMatrixFixture(t)
	f.MustExec(`
		relation S (A, D) key (A);
		insert into S values (1, 7);
		view W (R.A, R.C) where R.C <= 3;
		view T (S.A, S.D);
		permit W to u;
		permit V to v;
		permit W to v;
		permit W to w;
		permit V to w;
	`)
	opt := core.DefaultOptions()
	ca := core.NewAuthorizer(f.Store, f.Source, opt)
	ca.Closure = core.NewClosure(0)
	retrieve := func(step, user string, hit bool, entries int) *core.Decision {
		t.Helper()
		before := ca.Closure.Stats()
		d, err := ca.Retrieve(user, def)
		if err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		want, err := core.NewAuthorizer(f.Store, f.Source, opt).Retrieve(user, def)
		if err != nil {
			t.Fatalf("%s recompute: %v", step, err)
		}
		compareDecisions(t, step, d, want)
		after := ca.Closure.Stats()
		if gotHit := after.Hits == before.Hits+1; gotHit != hit || after.Entries != entries {
			t.Fatalf("%s: stats %+v -> %+v; want hit=%v and %d entries", step, before, after, hit, entries)
		}
		return d
	}

	du := retrieve("u cold", "u", false, 1)
	dv := retrieve("v shares u's entry", "v", true, 1)
	if dv.MaskPlan != du.MaskPlan || dv.Masked != du.Masked || dv.Stats != du.Stats ||
		dv.PushdownApplied != du.PushdownApplied || dv.MetaTuples != 0 {
		t.Fatalf("v was not served u's entry: %+v vs %+v", dv, du)
	}
	if got, want := renderDecision(dv), renderDecision(du); got != want {
		t.Fatalf("shared decisions render apart:\n%s\nvs\n%s", got, want)
	}
	retrieve("w holds the views in another order", "w", false, 2)

	if !f.Store.Revoke("W", "u") {
		t.Fatal("revoke failed")
	}
	retrieve("u after revoking W", "u", false, 3)
	retrieve("v keeps hitting", "v", true, 3)

	if err := f.Store.Permit("T", "v"); err != nil {
		t.Fatal(err)
	}
	retrieve("v after a permit over S", "v", true, 3)
}

// renderDecision renders what a principal observes of d: the delivered
// relation, the outcome flags and the permit statements.
func renderDecision(d *core.Decision) string {
	return fmt.Sprintf("%s\nfull=%v denied=%v\n%s", d.Masked, d.FullyAuthorized, d.Denied, permitsKey(d.Permits))
}

// TestClosureServesCanonicalMasked checks the order contract of a served
// masked relation: Retrieve stores it in canonical order, so a hit's
// Sorted returns the resident tuples themselves; a refresh merges the
// window's rows into that order, so Sorted still returns the entry's own
// tuples, now holding the appended row first.
func TestClosureServesCanonicalMasked(t *testing.T) {
	f, m, def := closureMatrixFixture(t)
	m.insert("R", 0, 50, 0) // base order 1, 2, 3, 0: masked rows out of order
	ca := core.NewAuthorizer(f.Store, f.Source, core.DefaultOptions())
	ca.Closure = core.NewClosure(0)
	retrieve := func() *relation.Relation {
		t.Helper()
		d, err := ca.Retrieve("u", def)
		if err != nil {
			t.Fatal(err)
		}
		return d.Masked
	}
	sorted := func(r *relation.Relation) []relation.Tuple {
		out := slices.Clone(r.Tuples())
		slices.SortFunc(out, relation.Tuple.Compare)
		return out
	}

	if cold := retrieve(); !slices.IsSortedFunc(cold.Tuples(), relation.Tuple.Compare) {
		t.Fatalf("stored masked relation is not canonical: %v", cold.Tuples())
	}
	hit := retrieve()
	if got := hit.Sorted(); len(got) != 3 || &got[0] != &hit.Tuples()[0] {
		t.Fatalf("Sorted on a hit copied the canonical relation: %v", got)
	}

	m.insert("R", -1, 60, 0) // delivered, sorts first, appended last
	refreshed := retrieve()
	if ca.Closure.Stats().Refreshes != 1 {
		t.Fatalf("append did not refresh: %+v", ca.Closure.Stats())
	}
	got, want := refreshed.Sorted(), sorted(refreshed)
	if !slices.EqualFunc(got, want, relation.Tuple.Equal) {
		t.Fatalf("Sorted after a refresh = %v, want %v", got, want)
	}
	if len(got) != 4 || &got[0] != &refreshed.Tuples()[0] || !got[0][0].Equal(value.Int(-1)) {
		t.Fatalf("Sorted after a refresh copied the entry's tuples, or the appended row is not first: %v", got)
	}
}

// TestClosureResidentBitmaps checks the resident-row accounting: the
// closure's ResidentRows matches the delivered row count of its one
// entry, through incremental refreshes on appends.
func TestClosureResidentBitmaps(t *testing.T) {
	f, m, def := closureMatrixFixture(t)
	opt := core.DefaultOptions()
	ca := core.NewAuthorizer(f.Store, f.Source, opt)
	ca.Closure = core.NewClosure(0)

	d, err := ca.Retrieve("u", def)
	if err != nil {
		t.Fatal(err)
	}
	if got := ca.Closure.Stats().ResidentRows; got != d.Stats.Rows || got != d.Masked.Len() {
		t.Fatalf("resident rows %d, want Rows %d = %d delivered", got, d.Stats.Rows, d.Masked.Len())
	}
	for i := 0; i < 5; i++ {
		m.insert("R", int64(10+i), int64(i), int64(i%6))
		d, err = ca.Retrieve("u", def)
		if err != nil {
			t.Fatal(err)
		}
		if got := ca.Closure.Stats().ResidentRows; got != d.Stats.Rows || got != d.Masked.Len() {
			t.Fatalf("append %d: resident rows %d, want Rows %d = %d delivered",
				i, got, d.Stats.Rows, d.Masked.Len())
		}
	}
	if ca.Closure.Stats().Refreshes == 0 {
		t.Fatal("appends never refreshed incrementally")
	}
}
