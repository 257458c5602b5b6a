package core_test

import (
	"math/rand"
	"testing"

	"authdb/internal/core"
	"authdb/internal/workload"
)

// TestSubsumeInvariance: removing covered mask tuples must never change
// what Apply delivers — on random fixtures, views, and queries, the
// masked answer with subsumption on equals the one with it off.
func TestSubsumeInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	for iter := 0; iter < 80; iter++ {
		f := soundFixture(rng, 8)
		for i := 0; i < 1+rng.Intn(3); i++ {
			randJoinView(f, rng, i)
		}
		def := randQueryDef(rng)
		on := core.DefaultOptions()
		off := core.DefaultOptions()
		off.Subsume = false
		a := core.NewAuthorizer(f.Store, f.Source, on)
		b := core.NewAuthorizer(f.Store, f.Source, off)
		da, err := a.Retrieve("u", def)
		if err != nil {
			t.Fatal(err)
		}
		db, err := b.Retrieve("u", def)
		if err != nil {
			t.Fatal(err)
		}
		if !da.Masked.Equal(db.Masked) {
			t.Fatalf("iter %d: subsumption changed the delivery\nquery: %s\nwith:\n%s\nwithout:\n%s",
				iter, def, da.Masked, db.Masked)
		}
	}
}

// TestViewCopiesInvariance: instantiating extra view copies must never
// change the delivery on single-occurrence queries (copies only matter
// for self-products), and never reduce it elsewhere.
func TestViewCopiesInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(89))
	for iter := 0; iter < 60; iter++ {
		f := soundFixture(rng, 8)
		for i := 0; i < 2; i++ {
			randJoinView(f, rng, i)
		}
		def := randQueryDef(rng)
		one := core.DefaultOptions()
		one.ViewCopies = 1
		three := core.DefaultOptions()
		three.ViewCopies = 3
		da, err := core.NewAuthorizer(f.Store, f.Source, one).Retrieve("u", def)
		if err != nil {
			t.Fatal(err)
		}
		db, err := core.NewAuthorizer(f.Store, f.Source, three).Retrieve("u", def)
		if err != nil {
			t.Fatal(err)
		}
		if !da.Masked.Equal(db.Masked) {
			t.Fatalf("iter %d: copies changed single-occurrence delivery\n%s", iter, def)
		}
	}
}

// TestPruneTimingInvariance: pruning dangling meta-tuples while the
// products are built (retrieval's planner) and after them (Explain's
// ReferencePlan) must deliver the same answer.
func TestPruneTimingInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	for iter := 0; iter < 60; iter++ {
		f := soundFixture(rng, 8)
		for i := 0; i < 2; i++ {
			randJoinView(f, rng, i)
		}
		var def = randQueryDef(rng)
		if iter%2 == 0 {
			randSelfJoinView(f, rng, 2)
			def = randSelfJoinQuery(rng)
		}
		auth := core.NewAuthorizer(f.Store, f.Source, core.DefaultOptions())
		da, err := auth.Retrieve("u", def)
		if err != nil {
			t.Fatal(err)
		}
		db, err := auth.Explain("u", def, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !da.Masked.Equal(db.Masked) {
			t.Fatalf("iter %d: prune timing changed the delivery\nquery: %s\nearly:\n%s\nlate:\n%s",
				iter, def, da.Masked, db.Masked)
		}
	}
}

// TestScaleGuard runs the full dual pipeline on a larger instance to
// catch accidental blowups (quadratic masking, runaway products).
func TestScaleGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("scale test")
	}
	cfg := workload.DefaultGen()
	cfg.Relations, cfg.RowsPerRel, cfg.Views, cfg.ViewJoinWidth = 3, 20000, 16, 2
	cfg.Users = []string{"u0"}
	g := workload.Generate(cfg)
	qs := workload.GenQueries(cfg, workload.QueryConfig{
		Seed: 5, Count: 4, JoinWidth: 2, RangeFraction: 0.4, InsideProb: 0.5,
	}, g.ViewDefsFor("u0")...)
	auth := core.NewAuthorizer(g.Store, g.Source, core.DefaultOptions())
	for i, q := range qs {
		d, err := auth.Retrieve("u0", q)
		if err != nil {
			t.Fatal(err)
		}
		if d.Stats.Rows > 0 && d.Stats.Cells <= 0 {
			t.Fatalf("query %d: inconsistent stats %+v", i, d.Stats)
		}
	}
}
