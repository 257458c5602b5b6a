package core_test

import (
	"strings"
	"testing"

	"authdb/internal/core"
	"authdb/internal/interval"
	"authdb/internal/relation"
	"authdb/internal/value"
	"authdb/internal/workload"
)

func TestDisplayNames(t *testing.T) {
	got := core.DisplayNames([]string{
		"EMPLOYEE:1.NAME", "EMPLOYEE:1.SALARY", "EMPLOYEE:2.NAME", "EMPLOYEE:2.SALARY",
		"PROJECT.BUDGET",
	})
	want := []string{"NAME:1", "SALARY:1", "NAME:2", "SALARY:2", "BUDGET"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("DisplayNames = %v, want %v", got, want)
		}
	}
}

// maskOver builds a mask directly from cells for unit tests.
func maskOver(attrs []string, tuples ...*core.MetaTuple) *core.Mask {
	mr := core.NewMetaRel(attrs)
	mr.Tuples = tuples
	return core.NewMask(mr, nil)
}

func cellsTuple(cells ...core.Cell) *core.MetaTuple {
	return &core.MetaTuple{Views: []string{"V"}, Cells: cells}
}

func TestMatchesConstraints(t *testing.T) {
	mt := cellsTuple(
		core.Cell{Star: true, Cons: interval.FromCmp(value.GE, value.Int(10))},
		core.Cell{Star: true, Cons: interval.Full()},
	)
	if !mt.Matches(relation.Tuple{value.Int(10), value.Int(0)}) {
		t.Error("boundary value must match")
	}
	if mt.Matches(relation.Tuple{value.Int(9), value.Int(0)}) {
		t.Error("out-of-range value matched")
	}
}

func TestMatchesVarEquality(t *testing.T) {
	mt := cellsTuple(
		core.Cell{Star: true, Var: 1, Cons: interval.Full()},
		core.Cell{Star: true, Var: 1, Cons: interval.Full()},
	)
	if !mt.Matches(relation.Tuple{value.String("x"), value.String("x")}) {
		t.Error("equal values must match the shared variable")
	}
	if mt.Matches(relation.Tuple{value.String("x"), value.String("y")}) {
		t.Error("unequal values matched the shared variable")
	}
}

func TestMatchesSymbolicCmp(t *testing.T) {
	mt := cellsTuple(
		core.Cell{Star: true, Var: 1, Cons: interval.Full()},
		core.Cell{Star: true, Var: 2, Cons: interval.Full()},
	)
	mt.Cmps = []core.VarCmp{{X: 1, Op: value.LT, Y: 2}}
	if !mt.Matches(relation.Tuple{value.Int(1), value.Int(2)}) {
		t.Error("satisfied comparison must match")
	}
	if mt.Matches(relation.Tuple{value.Int(2), value.Int(1)}) {
		t.Error("violated comparison matched")
	}
	// A comparison whose variable has no witnessing cell fails closed.
	orphan := cellsTuple(core.Cell{Star: true, Var: 1, Cons: interval.Full()})
	orphan.Cmps = []core.VarCmp{{X: 1, Op: value.LT, Y: 9}}
	if orphan.Matches(relation.Tuple{value.Int(1)}) {
		t.Error("unverifiable comparison must fail closed")
	}
}

func TestApplySingleTuplePerRow(t *testing.T) {
	// Two mask tuples revealing disjoint columns: merging them per row
	// would leak the correlation, so only the better one applies.
	ans := relation.NewDistinct([]string{"A", "B"}, []relation.Tuple{{value.Int(1), value.Int(2)}})
	m := maskOver([]string{"A", "B"},
		cellsTuple(core.Cell{Star: true, Cons: interval.Full()}, core.Cell{Cons: interval.Full()}),
		cellsTuple(core.Cell{Cons: interval.Full()}, core.Cell{Star: true, Cons: interval.Full()}),
	)
	masked, stats := m.Apply(ans)
	if stats.RevealedCells != 1 {
		t.Fatalf("revealed %d cells, want 1 (single-tuple reveal)", stats.RevealedCells)
	}
	row := masked.Tuples()[0]
	nulls := 0
	for _, v := range row {
		if v.IsNull() {
			nulls++
		}
	}
	if nulls != 1 {
		t.Fatalf("row = %v, want exactly one null", row)
	}
}

func TestApplyDropsUnmatchedRows(t *testing.T) {
	ans := relation.NewDistinct([]string{"A"}, []relation.Tuple{{value.Int(1)}, {value.Int(5)}})
	m := maskOver([]string{"A"},
		cellsTuple(core.Cell{Star: true, Cons: interval.FromCmp(value.GE, value.Int(3))}),
	)
	masked, stats := m.Apply(ans)
	// The stats count the delivered relation only: the dropped row is
	// not in them.
	if want := (core.MaskStats{Rows: 1, Cells: 1, RevealedCells: 1}); masked.Len() != 1 || stats != want {
		t.Fatalf("masked:\n%s stats %+v, want %+v", masked, stats, want)
	}
}

// TestApplyCountsDeliveredRows: two answer rows that differ only in a
// withheld cell mask to one delivered row, and the stats count it once.
func TestApplyCountsDeliveredRows(t *testing.T) {
	ans := relation.NewDistinct([]string{"A", "B"}, []relation.Tuple{{value.Int(5), value.Int(1)}, {value.Int(5), value.Int(2)}})
	m := maskOver([]string{"A", "B"},
		cellsTuple(core.Cell{Star: true, Cons: interval.Full()}, core.Cell{Cons: interval.Full()}),
	)
	masked, stats := m.Apply(ans)
	if want := (core.MaskStats{Rows: 1, Cells: 2, RevealedCells: 1}); masked.Len() != 1 || stats != want {
		t.Fatalf("masked:\n%s stats %+v, want %+v", masked, stats, want)
	}
}

func TestPermitsRendering(t *testing.T) {
	m := maskOver([]string{"PROJECT.NUMBER", "PROJECT.SPONSOR"},
		cellsTuple(
			core.Cell{Star: true, Cons: interval.Full()},
			core.Cell{Star: true, Cons: interval.Point(value.String("Acme"))},
		),
	)
	ps := m.Permits()
	if len(ps) != 1 {
		t.Fatalf("permits = %v", ps)
	}
	if got := ps[0].String(); got != "permit (NUMBER, SPONSOR) where SPONSOR = Acme" {
		t.Fatalf("permit = %q", got)
	}
}

func TestPermitsVarGroupsAndCmps(t *testing.T) {
	mt := cellsTuple(
		core.Cell{Star: true, Var: 1, Cons: interval.FromCmp(value.GE, value.Int(10))},
		core.Cell{Star: true, Var: 1, Cons: interval.FromCmp(value.GE, value.Int(10))},
		core.Cell{Star: true, Var: 2, Cons: interval.Full()},
	)
	mt.Cmps = []core.VarCmp{{X: 1, Op: value.LT, Y: 2}}
	m := maskOver([]string{"R.A", "R.B", "R.C"}, mt)
	p := m.Permits()[0].String()
	for _, want := range []string{"A = B", "A >= 10", "A < C"} {
		if !strings.Contains(p, want) {
			t.Fatalf("permit %q misses %q", p, want)
		}
	}
}

func TestSubsume(t *testing.T) {
	full := cellsTuple(
		core.Cell{Star: true, Cons: interval.Full()},
		core.Cell{Star: true, Cons: interval.Full()},
	)
	partial := cellsTuple(
		core.Cell{Star: true, Cons: interval.FromCmp(value.GE, value.Int(5))},
		core.Cell{Cons: interval.Full()},
	)
	m := maskOver([]string{"A", "B"}, partial, full)
	m.Subsume()
	if len(m.Tuples) != 1 || !m.Tuples[0].Cells[1].Star {
		t.Fatalf("subsume kept %d tuples", len(m.Tuples))
	}
}

func TestSubsumeKeepsIncomparable(t *testing.T) {
	a := cellsTuple(
		core.Cell{Star: true, Cons: interval.Full()},
		core.Cell{Cons: interval.Full()},
	)
	b := cellsTuple(
		core.Cell{Cons: interval.Full()},
		core.Cell{Star: true, Cons: interval.Full()},
	)
	m := maskOver([]string{"A", "B"}, a, b)
	m.Subsume()
	if len(m.Tuples) != 2 {
		t.Fatalf("incomparable tuples reduced to %d", len(m.Tuples))
	}
}

func TestSubsumeEqualKeepsOne(t *testing.T) {
	a := cellsTuple(core.Cell{Star: true, Cons: interval.Full()})
	b := cellsTuple(core.Cell{Star: true, Cons: interval.Full()})
	m := maskOver([]string{"A"}, a, b)
	m.Subsume()
	if len(m.Tuples) != 1 {
		t.Fatalf("mutually covering tuples reduced to %d", len(m.Tuples))
	}
}

func TestSubsumeRespectsVarGroups(t *testing.T) {
	// The linked tuple requires A = B; the star-superset tuple without
	// the link covers it (it reveals at least as much on every row).
	linked := cellsTuple(
		core.Cell{Star: true, Var: 1, Cons: interval.Full()},
		core.Cell{Star: true, Var: 1, Cons: interval.Full()},
	)
	free := cellsTuple(
		core.Cell{Star: true, Cons: interval.Full()},
		core.Cell{Star: true, Cons: interval.Full()},
	)
	m := maskOver([]string{"A", "B"}, linked, free)
	m.Subsume()
	if len(m.Tuples) != 1 || m.Tuples[0].Cells[0].Var != 0 {
		t.Fatalf("free tuple must cover the linked one: %d tuples", len(m.Tuples))
	}
	// The converse must not hold: a linked tuple does not cover a free
	// one.
	m2 := maskOver([]string{"A", "B"}, free.Clone(), linked.Clone())
	m2.Tuples[0].Cells[0].Star = false // free now reveals less
	m2.Subsume()
	if len(m2.Tuples) != 2 {
		t.Fatal("linked tuple must not cover the free tuple")
	}
}

func TestEvalOnPaperMetaTuple(t *testing.T) {
	// The meta-tuple (PSA, *, Acme*, *) "specifies a selection of all
	// tuples of relation PROJECT for which sponsor = Acme, and a
	// projection of NUMBER, SPONSOR and BUDGET" (§3).
	f := workload.Paper()
	inst := f.Store.Of("Brown").Instantiate(map[string]int{"PROJECT": 1}, core.DefaultOptions())
	mr := inst.MetaRelFor("PROJECT", "PROJECT")
	var psa *core.MetaTuple
	for _, mt := range mr.Tuples {
		if len(mt.Views) == 1 && mt.Views[0] == "PSA" {
			psa = mt
		}
	}
	if psa == nil {
		t.Fatal("PSA tuple not instantiated")
	}
	base := f.Rels["PROJECT"].Head().Rename([]string{"PROJECT.NUMBER", "PROJECT.SPONSOR", "PROJECT.BUDGET"})
	got := psa.EvalOn(base)
	if got.Len() != 1 || got.Arity() != 3 {
		t.Fatalf("PSA(D):\n%s", got)
	}
	row := got.Tuples()[0]
	if row[0].String() != "bq-45" || row[1].String() != "Acme" || row[2].AsInt() != 300000 {
		t.Fatalf("PSA(D) row = %v", row)
	}
}
