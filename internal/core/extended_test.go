package core_test

import (
	"strings"
	"testing"

	"authdb/internal/core"
	"authdb/internal/workload"
)

// TestExtendedMasksHiddenCondition is the motivating §6(3) case: Brown
// holds PSA (all of PROJECT where SPONSOR = Acme) and asks for NUMBER and
// BUDGET without requesting SPONSOR. The base model loses the mask at
// projection time (the SPONSOR cell is a constant, not a blank); the
// extension keeps it as a hidden condition and delivers the Acme rows.
func TestExtendedMasksHiddenCondition(t *testing.T) {
	query := `retrieve (PROJECT.NUMBER, PROJECT.BUDGET)`

	base := core.DefaultOptions()
	f := workload.Paper()
	d, err := core.NewAuthorizer(f.Store, f.Source, base).Retrieve("Brown", workload.MustQuery(query))
	if err != nil {
		t.Fatal(err)
	}
	if !d.Denied {
		t.Fatalf("base model should lose the PSA mask here, got %d mask tuples", len(d.Mask.Tuples))
	}

	ext := base
	ext.ExtendedMasks = true
	d, err = core.NewAuthorizer(f.Store, f.Source, ext).Retrieve("Brown", workload.MustQuery(query))
	if err != nil {
		t.Fatal(err)
	}
	if d.Denied || d.FullyAuthorized {
		t.Fatalf("extension: denied=%v full=%v", d.Denied, d.FullyAuthorized)
	}
	if d.Masked.Len() != 1 {
		t.Fatalf("delivered rows = %d, want 1 (the Acme project)\n%s", d.Masked.Len(), d.Masked)
	}
	row := d.Masked.Tuples()[0]
	if row[0].String() != "bq-45" || row[1].AsInt() != 300000 {
		t.Fatalf("delivered row = %v", row)
	}
	// The inferred permit names the hidden condition.
	found := false
	for _, p := range d.Permits {
		if strings.Contains(p.String(), "SPONSOR = Acme") &&
			strings.Contains(p.String(), "permit (NUMBER, BUDGET)") {
			found = true
		}
	}
	if !found {
		t.Fatalf("permits = %v", d.Permits)
	}
}

// TestExtendedMasksPreserveExamples: with the extension on, the paper's
// three worked examples still produce their §5 outcomes.
func TestExtendedMasksPreserveExamples(t *testing.T) {
	opt := core.DefaultOptions()
	opt.ExtendedMasks = true
	f := workload.Paper()
	auth := core.NewAuthorizer(f.Store, f.Source, opt)

	// Example 1: Brown gets the Acme project, full row.
	d, err := auth.Retrieve("Brown", workload.MustQuery(workload.Example1Query))
	if err != nil {
		t.Fatal(err)
	}
	if d.Masked.Len() != 1 || d.Masked.Tuples()[0][1].String() != "Acme" {
		t.Fatalf("example 1 delivered:\n%s", d.Masked)
	}

	// Example 2: Klein gets the name, not the salary.
	d, err = auth.Retrieve("Klein", workload.MustQuery(workload.Example2Query))
	if err != nil {
		t.Fatal(err)
	}
	if d.Masked.Len() != 1 {
		t.Fatalf("example 2 delivered:\n%s", d.Masked)
	}
	if d.Masked.Tuples()[0][0].String() != "Brown" || !d.Masked.Tuples()[0][1].IsNull() {
		t.Fatalf("example 2 row = %v", d.Masked.Tuples()[0])
	}

	// Example 3: full grant, everything delivered.
	d, err = auth.Retrieve("Brown", workload.MustQuery(workload.Example3Query))
	if err != nil {
		t.Fatal(err)
	}
	if !d.FullyAuthorized || len(d.Permits) != 0 {
		t.Fatalf("example 3: full=%v permits=%v", d.FullyAuthorized, d.Permits)
	}
	if !d.Masked.Equal(referenceAnswer(t, f.Source, d.PSJ)) {
		t.Fatal("example 3 delivery differs from the answer")
	}
}

// TestExtendedMasksNeverDeliverLess: on a workload sweep the extension
// delivers at least as many cells as the base model.
func TestExtendedMasksNeverDeliverLess(t *testing.T) {
	cfg := workload.DefaultGen()
	cfg.Views, cfg.Relations = 6, 3
	g := workload.Generate(cfg)
	qs := workload.GenQueries(cfg, workload.QueryConfig{
		Seed: 19, Count: 40, JoinWidth: 2, ExtraAttrProb: 0.3,
		RangeFraction: 0.6, DropSelAttrProb: 0.5, InsideProb: 0.5,
	}, g.ViewDefsFor("u0")...)
	base := core.NewAuthorizer(g.Store, g.Source, core.DefaultOptions())
	extOpt := core.DefaultOptions()
	extOpt.ExtendedMasks = true
	ext := core.NewAuthorizer(g.Store, g.Source, extOpt)
	var baseCells, extCells int
	for _, q := range qs {
		db, err := base.Retrieve("u0", q)
		if err != nil {
			t.Fatal(err)
		}
		de, err := ext.Retrieve("u0", q)
		if err != nil {
			t.Fatal(err)
		}
		baseCells += db.Stats.RevealedCells
		extCells += de.Stats.RevealedCells
		if de.Stats.RevealedCells < db.Stats.RevealedCells {
			t.Fatalf("extension delivered less on %s: %d < %d",
				q, de.Stats.RevealedCells, db.Stats.RevealedCells)
		}
	}
	if extCells <= baseCells {
		t.Logf("note: extension added no cells on this workload (%d == %d)", extCells, baseCells)
	}
}
