package core_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"authdb/internal/algebra"
	"authdb/internal/core"
	"authdb/internal/cview"
	"authdb/internal/workload"
)

// pushdownFixture: one relation, two views restricting the same column so
// the hull over the mask tuples is a proper interval.
func pushdownFixture(t *testing.T) *workload.Fixture {
	t.Helper()
	f := workload.NewFixture()
	f.MustExec(`
		relation R (A, B, C) key (A);
		insert into R values (0, 1, 0);
		insert into R values (1, 2, 3);
		insert into R values (2, 3, 5);
		insert into R values (3, 4, 7);
		view LO (R.A, R.B, R.C) where R.C >= 2 and R.C <= 4;
		view HI (R.A, R.B, R.C) where R.C >= 5;
		permit LO to u;
		permit HI to u;
	`)
	return f
}

func allColsDef() *cview.Def {
	return &cview.Def{Cols: []cview.ColRef{
		{Alias: "R", Attr: "A"}, {Alias: "R", Attr: "B"}, {Alias: "R", Attr: "C"},
	}}
}

// TestPushdownAtomsHull: two mask tuples with C ∈ [2,4] and C ∈ [5,∞)
// must yield the hull condition C >= 2 — the weaker bound — and nothing
// on the unconstrained attributes.
func TestPushdownAtomsHull(t *testing.T) {
	f := pushdownFixture(t)
	a := core.NewAuthorizer(f.Store, f.Source, core.DefaultOptions())
	d, err := a.Retrieve("u", allColsDef())
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, at := range d.Pushdown {
		got = append(got, at.String())
	}
	if strings.Join(got, "; ") != "R.C >= 2" {
		t.Fatalf("pushdown atoms = %v, want [R.C >= 2]", got)
	}
}

// TestPushdownPrunesAnswer: retrieval fuses the pushdown atoms, and the
// fused plan's scan keeps 3 of the 4 rows — the withheld row (C = 0,
// outside both views) is pruned before materialization — while the
// delivered relation and its statistics are those of the unfused plan.
func TestPushdownPrunesAnswer(t *testing.T) {
	f := pushdownFixture(t)
	a := core.NewAuthorizer(f.Store, f.Source, core.DefaultOptions())
	fused, err := a.Retrieve("u", allColsDef())
	if err != nil {
		t.Fatal(err)
	}
	if !fused.PushdownApplied {
		t.Fatal("pushdown must fire on a partial mask with a bounded hull")
	}
	unfused, err := a.DecideTraced(fused.PSJ, fused.MaskPlan, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	compareDecisions(t, "fused vs unfused", fused, unfused)
	for _, c := range []struct {
		fuse bool
		kept int
	}{{false, 4}, {true, 3}} {
		var tr algebra.Trace
		d, err := a.DecideTraced(fused.PSJ, fused.MaskPlan, c.fuse, &tr)
		if err != nil {
			t.Fatal(err)
		}
		if got := tr.Scans[0].Out; got != c.kept {
			t.Fatalf("fuse=%v: the scan kept %d rows, want %d", c.fuse, got, c.kept)
		}
		compareDecisions(t, fmt.Sprintf("traced fuse=%v vs unfused", c.fuse), d, unfused)
	}
}

// TestPushdownFullGrantAndDenial: a full grant has a full hull (nothing
// to push), and a denied mask has no tuples (no atoms, and nothing
// delivered either way).
func TestPushdownFullGrantAndDenial(t *testing.T) {
	f := workload.NewFixture()
	f.MustExec(`
		relation R (A, B) key (A);
		insert into R values (1, 2);
		view ALL_R (R.A, R.B);
		permit ALL_R to full;
	`)
	opt := core.DefaultOptions()
	def := &cview.Def{Cols: []cview.ColRef{{Alias: "R", Attr: "A"}, {Alias: "R", Attr: "B"}}}
	d, err := core.NewAuthorizer(f.Store, f.Source, opt).Retrieve("full", def)
	if err != nil {
		t.Fatal(err)
	}
	if !d.FullyAuthorized || len(d.Pushdown) != 0 || d.PushdownApplied {
		t.Fatalf("full grant: Pushdown=%v applied=%v", d.Pushdown, d.PushdownApplied)
	}
	d, err = core.NewAuthorizer(f.Store, f.Source, opt).Retrieve("nobody", def)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Denied || len(d.Pushdown) != 0 || d.PushdownApplied || d.Masked.Len() != 0 {
		t.Fatalf("denial: Pushdown=%v applied=%v masked=%d", d.Pushdown, d.PushdownApplied, d.Masked.Len())
	}
}

func permitsKey(ps []core.PermitStatement) string {
	var out []string
	for _, p := range ps {
		out = append(out, p.String())
	}
	return strings.Join(out, "\n")
}

// TestPushdownDecisionsIdentical is the fused-path differential: for
// random databases, views, and queries, retrieval (which fuses mask
// pushdown) and the same plan run unfused must deliver what the paper's
// pipeline verbatim (referenceDecision) delivers: the identical masked
// relation, permit statements, grant/deny flags, and statistics.
func TestPushdownDecisionsIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	cases := 300
	if testing.Short() {
		cases = 60
	}
	for iter := 0; iter < cases; iter++ {
		f := soundFixture(rng, 10)
		randJoinView(f, rng, 0)
		if rng.Intn(2) == 0 {
			randJoinView(f, rng, 1)
		}
		def := randQueryDef(rng)
		base := core.DefaultOptions()
		base.ExtendedMasks = rng.Intn(2) == 0

		d0 := referenceDecision(t, f, base, "u", def)
		label := fmt.Sprintf("case %d (ext=%v) query %s", iter, base.ExtendedMasks, def)
		a := core.NewAuthorizer(f.Store, f.Source, base)
		d, err := a.Retrieve("u", def)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		compareDecisions(t, label+" fused", d, d0)
		unfused, err := a.DecideTraced(d.PSJ, d.MaskPlan, false, nil)
		if err != nil {
			t.Fatalf("%s unfused: %v", label, err)
		}
		compareDecisions(t, label+" unfused", unfused, d0)
	}
}
