package core_test

import (
	"math/rand"
	"testing"

	"authdb/internal/core"
	"authdb/internal/cview"
	"authdb/internal/workload"
)

// TestSelfQueryCompleteness: a request that IS a permitted view — same
// projection, same conditions — must be granted in full. This is the
// quality bar the §4.2 refinements exist for: clearing makes every
// residual restriction vanish exactly when the query re-states the
// view's own conditions.
func TestSelfQueryCompleteness(t *testing.T) {
	f := workload.Paper()
	auth := core.NewAuthorizer(f.Store, f.Source, core.DefaultOptions())
	for user, views := range map[string][]string{
		"Brown": {"SAE", "PSA", "EST"},
		"Klein": {"ELP", "EST"},
	} {
		for _, name := range views {
			def := f.Store.ViewDef(name)
			q := &cview.Def{Cols: def.Cols, Where: def.Where}
			d, err := auth.Retrieve(user, q)
			if err != nil {
				t.Fatalf("%s querying %s: %v", user, name, err)
			}
			if !d.FullyAuthorized {
				t.Errorf("%s querying exactly %s: full grant expected, got %d mask tuples, stats %+v",
					user, name, len(d.Mask.Tuples), d.Stats)
			}
			if !d.Masked.Equal(referenceAnswer(t, f.Source, d.PSJ)) {
				t.Errorf("%s querying exactly %s: delivery differs from the answer", user, name)
			}
		}
	}
}

// TestSelfQueryCompletenessSynthetic runs the same invariant over
// generated view shapes (chains with joins and two-sided ranges).
func TestSelfQueryCompletenessSynthetic(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		cfg := workload.DefaultGen()
		cfg.Seed = seed
		cfg.Views, cfg.Relations, cfg.RowsPerRel = 6, 4, 32
		g := workload.Generate(cfg)
		auth := core.NewAuthorizer(g.Store, g.Source, core.DefaultOptions())
		for _, user := range cfg.Users {
			for _, name := range g.Store.ViewsFor(user) {
				def := g.Store.ViewDef(name)
				q := &cview.Def{Cols: def.Cols, Where: def.Where}
				d, err := auth.Retrieve(user, q)
				if err != nil {
					t.Fatal(err)
				}
				if !d.FullyAuthorized {
					t.Fatalf("seed %d: %s querying exactly %s not fully granted (stats %+v)\nview: %s",
						seed, user, name, d.Stats, def)
				}
			}
		}
	}
}

// TestNarrowedSelfQueryCompleteness: a request strictly inside a
// permitted view (a column subset and narrower ranges) must also be
// granted in full — the ELP walkthrough of §3 ("budgets exceeding
// $500,000 … should be authorized, since it is a view of ELP").
func TestNarrowedSelfQueryCompleteness(t *testing.T) {
	f := workload.Paper()
	auth := core.NewAuthorizer(f.Store, f.Source, core.DefaultOptions())
	d, err := auth.Retrieve("Klein", workload.MustQuery(`
		retrieve (EMPLOYEE.NAME)
		  where EMPLOYEE.NAME = ASSIGNMENT.E_NAME
		  and PROJECT.NUMBER = ASSIGNMENT.P_NO
		  and PROJECT.BUDGET >= 400000`))
	if err != nil {
		t.Fatal(err)
	}
	if !d.FullyAuthorized {
		t.Fatalf("narrowed ELP request not fully granted: %+v", d.Stats)
	}
	if referenceAnswer(t, f.Source, d.PSJ).Len() == 0 {
		t.Fatal("expected some employees on sv-72")
	}
}

// TestRandomNarrowedQueries derives random inside-queries from permitted
// views and checks they are never denied.
func TestRandomNarrowedQueries(t *testing.T) {
	cfg := workload.DefaultGen()
	cfg.Views, cfg.Relations, cfg.RowsPerRel = 6, 4, 48
	g := workload.Generate(cfg)
	qs := workload.GenQueries(cfg, workload.QueryConfig{
		Seed: 77, Count: 40, JoinWidth: 2,
		ExtraAttrProb: 0, // stay strictly inside the permissions
		RangeFraction: 0.5,
		InsideProb:    1,
	}, g.ViewDefsFor("u0")...)
	auth := core.NewAuthorizer(g.Store, g.Source, core.DefaultOptions())
	rng := rand.New(rand.NewSource(1))
	_ = rng
	for i, q := range qs {
		d, err := auth.Retrieve("u0", q)
		if err != nil {
			t.Fatal(err)
		}
		if d.Denied {
			t.Fatalf("inside-query %d denied:\n%s", i, q)
		}
		// Every requested column comes from the view's head, so the
		// whole answer must be delivered.
		if ans := referenceAnswer(t, g.Source, d.PSJ); !d.Masked.Equal(ans) {
			t.Fatalf("inside-query %d only partially granted (%d of %d rows, %d/%d cells):\n%s",
				i, d.Masked.Len(), ans.Len(), d.Stats.RevealedCells, ans.Len()*ans.Arity(), q)
		}
	}
}
