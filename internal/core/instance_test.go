package core_test

import (
	"testing"

	"authdb/internal/core"
	"authdb/internal/workload"
)

func TestEntirityPruning(t *testing.T) {
	f := workload.Paper()
	// A PROJECT-only request: ELP spans three relations and must be
	// dropped entirely; PSA survives (Brown) — §5 Example 1's pruning.
	inst := f.Store.Of("Brown").Instantiate(map[string]int{"PROJECT": 1}, core.DefaultOptions())
	views := inst.Views()
	if len(views) != 1 || views[0] != "PSA" {
		t.Fatalf("Brown's instantiated views = %v, want [PSA]", views)
	}
	// Klein has ELP (spans EMPLOYEE, ASSIGNMENT, PROJECT) and EST
	// (EMPLOYEE only): only the full three-relation query admits ELP.
	inst = f.Store.Of("Klein").Instantiate(map[string]int{"PROJECT": 1}, core.DefaultOptions())
	if len(inst.Views()) != 0 {
		t.Fatalf("Klein's PROJECT-only views = %v, want none", inst.Views())
	}
	inst = f.Store.Of("Klein").Instantiate(map[string]int{"PROJECT": 1, "EMPLOYEE": 1, "ASSIGNMENT": 1}, core.DefaultOptions())
	if len(inst.Views()) != 2 {
		t.Fatalf("Klein's full-query views = %v, want [ELP EST]", inst.Views())
	}
}

func TestMetaRelForUnknownRelation(t *testing.T) {
	f := workload.Paper()
	inst := f.Store.Of("Brown").Instantiate(map[string]int{"PROJECT": 1}, core.DefaultOptions())
	mr := inst.MetaRelFor("NOPE", "NOPE")
	if len(mr.Tuples) != 0 {
		t.Fatal("unknown relation must yield an empty meta-relation")
	}
}

func TestSelfJoinInference(t *testing.T) {
	f := workload.Paper()
	opt := core.DefaultOptions()
	inst := f.Store.Of("Brown").Instantiate(map[string]int{"EMPLOYEE": 2}, opt)
	mr := inst.MetaRelFor("EMPLOYEE", "EMPLOYEE:1")
	merged := 0
	for _, mt := range mr.Tuples {
		if len(mt.Views) == 2 {
			merged++
			// SAE ⋈ EST: (*, x4*, *) — all three attributes starred, the
			// TITLE cell carrying EST's variable.
			if !mt.Cells[0].Star || !mt.Cells[1].Star || !mt.Cells[2].Star {
				t.Fatalf("merged tuple stars wrong: %+v", mt.Cells)
			}
			if mt.Cells[1].Var == 0 {
				t.Fatal("merged TITLE cell must keep EST's variable")
			}
		}
	}
	if merged == 0 {
		t.Fatal("no self-join tuples inferred for SAE and EST")
	}
}

func TestSelfJoinRequiresKeyStars(t *testing.T) {
	f := workload.NewFixture()
	f.MustExec(`
		relation R (K, A, B) key (K);
		view VA (R.K, R.A);
		view VB (R.B);           -- does not project the key
		view VC (R.K, R.B);
		permit VA to u; permit VB to u; permit VC to u;
	`)
	inst := f.Store.Of("u").Instantiate(map[string]int{"R": 1}, core.DefaultOptions())
	mr := inst.MetaRelFor("R", "R")
	for _, mt := range mr.Tuples {
		if len(mt.Views) != 2 {
			continue
		}
		for _, v := range mt.Views {
			if v == "VB" {
				t.Fatalf("VB does not project the key; merge %v is not lossless", mt.Views)
			}
		}
	}
	// VA ⋈ VC must exist.
	found := false
	for _, mt := range mr.Tuples {
		if len(mt.Views) == 2 && mt.Views[0] == "VA" && mt.Views[1] == "VC" {
			found = true
			if !mt.Cells[0].Star || !mt.Cells[1].Star || !mt.Cells[2].Star {
				t.Fatalf("VA⋈VC cells: %+v", mt.Cells)
			}
		}
	}
	if !found {
		t.Fatal("VA⋈VC not inferred")
	}
}

func TestSelfJoinNeedsDeclaredKey(t *testing.T) {
	f := workload.NewFixture()
	f.MustExec(`
		relation R (K, A, B);    -- no key declared
		view VA (R.K, R.A);
		view VC (R.K, R.B);
		permit VA to u; permit VC to u;
	`)
	inst := f.Store.Of("u").Instantiate(map[string]int{"R": 1}, core.DefaultOptions())
	for _, mt := range inst.MetaRelFor("R", "R").Tuples {
		if len(mt.Views) == 2 {
			t.Fatal("self-joins require a declared key as the lossless-join witness")
		}
	}
}

func TestSelfJoinSkipsConflictingConstants(t *testing.T) {
	f := workload.NewFixture()
	f.MustExec(`
		relation R (K, A) key (K);
		view VA (R.K, R.A) where R.A = 1;
		view VB (R.K, R.A) where R.A = 2;
		permit VA to u; permit VB to u;
	`)
	inst := f.Store.Of("u").Instantiate(map[string]int{"R": 1}, core.DefaultOptions())
	for _, mt := range inst.MetaRelFor("R", "R").Tuples {
		if len(mt.Views) == 2 {
			t.Fatal("contradictory constants make the join vacuous; no merge expected")
		}
	}
}

func TestViewCopiesForRepeatedScans(t *testing.T) {
	f := workload.NewFixture()
	f.MustExec(`
		relation R (K, A) key (K);
		view V (R.K, R.A) where R.A >= 3;
		permit V to u;
	`)
	opt := core.DefaultOptions()
	opt.SelfJoins = false
	opt.ViewCopies = 2
	inst := f.Store.Of("u").Instantiate(map[string]int{"R": 2}, opt)
	mr := inst.MetaRelFor("R", "R:1")
	if len(mr.Tuples) != 2 {
		t.Fatalf("expected 2 instantiated copies, got %d", len(mr.Tuples))
	}
	// The copies carry distinct variables (fresh identities).
	vars := map[core.VarID]bool{}
	for _, mt := range mr.Tuples {
		for _, c := range mt.Cells {
			if c.Var != 0 {
				vars[c.Var] = true
			}
		}
	}
	if len(vars) != 2 {
		t.Fatalf("copies share variables: %v", vars)
	}
	opt.ViewCopies = 1
	inst = f.Store.Of("u").Instantiate(map[string]int{"R": 2}, opt)
	if got := len(inst.MetaRelFor("R", "R:1").Tuples); got != 1 {
		t.Fatalf("ViewCopies=1 instantiated %d tuples", got)
	}
}

func TestVarNameFallback(t *testing.T) {
	f := workload.Paper()
	inst := f.Store.Of("Klein").Instantiate(map[string]int{"PROJECT": 1, "EMPLOYEE": 1, "ASSIGNMENT": 1}, core.DefaultOptions())
	// Known variables resolve to their display names: Klein's ELP comes
	// first, so its x1..x3 keep their names and EST's x1 is x4.
	names := map[string]bool{}
	for v := core.VarID(1); v <= 4; v++ {
		names[inst.VarName(v)] = true
	}
	for _, want := range []string{"x1", "x2", "x3", "x4"} {
		if !names[want] {
			t.Fatalf("variable names = %v, want to include %s", names, want)
		}
	}
	if inst.VarName(999) != "v999" {
		t.Fatal("unknown variables must fall back to a synthetic name")
	}
}
