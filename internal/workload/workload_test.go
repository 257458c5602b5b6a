package workload

import (
	"testing"

	"authdb/internal/algebra"
	"authdb/internal/core"
	"authdb/internal/cview"
)

func TestPaperFixture(t *testing.T) {
	f := Paper()
	for rel, rows := range map[string]int{"EMPLOYEE": 3, "PROJECT": 3, "ASSIGNMENT": 6} {
		if f.Rels[rel].Len() != rows {
			t.Fatalf("%s has %d rows, want %d", rel, f.Rels[rel].Len(), rows)
		}
	}
	if got := f.Store.ViewNames(); len(got) != 4 {
		t.Fatalf("views = %v", got)
	}
	if got := f.Store.ViewsFor("Brown"); len(got) != 3 {
		t.Fatalf("Brown's views = %v", got)
	}
	if got := f.Store.ViewsFor("Klein"); len(got) != 2 {
		t.Fatalf("Klein's views = %v", got)
	}
	if defs := f.ViewDefsFor("Klein"); len(defs) != 2 || defs[0].Name != "ELP" {
		t.Fatalf("Klein's defs = %v", defs)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := DefaultGen()
	a := Generate(cfg)
	b := Generate(cfg)
	for _, rel := range []string{"R0", "R1", "R2"} {
		if !a.Rels[rel].Equal(b.Rels[rel]) {
			t.Fatalf("%s differs across runs with the same seed", rel)
		}
	}
	cfg2 := cfg
	cfg2.Seed = 99
	c := Generate(cfg2)
	same := true
	for _, rel := range []string{"R0", "R1", "R2"} {
		if !a.Rels[rel].Equal(c.Rels[rel]) {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds generated identical data")
	}
}

func TestGeneratedViewsAnalyze(t *testing.T) {
	cfg := DefaultGen()
	cfg.Views = 10
	f := Generate(cfg)
	for _, name := range f.Store.ViewNames() {
		v := f.Store.Branches(name)[0]
		if _, err := cview.Analyze(v.Def, f.Schema); err != nil {
			t.Fatalf("generated view %s invalid: %v", name, err)
		}
	}
	// Each user got some permits.
	for _, u := range cfg.Users {
		if len(f.Store.ViewsFor(u)) == 0 {
			t.Fatalf("user %s has no permits", u)
		}
	}
}

func TestGeneratedQueriesRun(t *testing.T) {
	cfg := DefaultGen()
	f := Generate(cfg)
	qs := GenQueries(cfg, QueryConfig{
		Seed: 5, Count: 25, JoinWidth: 2,
		ExtraAttrProb: 0.4, RangeFraction: 0.5,
		DropSelAttrProb: 0.5, InsideProb: 0.5,
	}, f.ViewDefsFor("u0")...)
	if len(qs) != 25 {
		t.Fatalf("queries = %d", len(qs))
	}
	auth := core.NewAuthorizer(f.Store, f.Source, core.DefaultOptions())
	for i, q := range qs {
		an, err := cview.Analyze(q, f.Schema)
		if err != nil {
			t.Fatalf("query %d invalid: %v\n%s", i, err, q)
		}
		if _, err := algebra.EvalPSJ(an.PSJ, f.Source, nil, algebra.ExecOptions{}, nil); err != nil {
			t.Fatalf("query %d fails: %v", i, err)
		}
		if _, err := auth.Retrieve("u0", q); err != nil {
			t.Fatalf("query %d authorization fails: %v", i, err)
		}
	}
}

func TestGenerateValidatesConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("degenerate config accepted")
		}
	}()
	Generate(GenConfig{})
}

func TestMustQueryPanicsOnNonRetrieve(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustQuery accepted a non-retrieve")
		}
	}()
	MustQuery(`permit X to Y`)
}

func TestFixtureSourceErrors(t *testing.T) {
	f := Paper()
	if _, err := f.Source("NOPE"); err == nil {
		t.Fatal("unknown relation accepted")
	}
	if _, err := f.Source("EMPLOYEE"); err != nil {
		t.Fatal(err)
	}
}

func TestConvenienceValues(t *testing.T) {
	if Int(3).AsInt() != 3 || Str("x").AsString() != "x" {
		t.Fatal("convenience constructors wrong")
	}
}
