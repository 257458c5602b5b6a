package core_test

import (
	"fmt"
	"math/rand"
	"testing"

	"authdb/internal/algebra"
	"authdb/internal/core"
	"authdb/internal/interval"
	"authdb/internal/relation"
	"authdb/internal/value"
	"authdb/internal/workload"
)

func join(xs []string) string {
	out := ""
	for i, x := range xs {
		if i > 0 {
			out += ", "
		}
		out += x
	}
	return out
}

// numFixture builds a numeric fixture convenient for property tests:
//
//	R (A, B, C) and S (D, E), with small integer domains so joins and
//	selections hit plenty of boundary cases.
func numFixture(r *rand.Rand, rows int) *workload.Fixture {
	f := workload.NewFixture()
	f.MustExec(`
		relation R (A, B, C) key (A);
		relation S (D, E) key (D);
	`)
	for i := 0; i < rows; i++ {
		f.MustExec(fmt.Sprintf("insert into R values (%d, %d, %d);", i, r.Intn(8), r.Intn(8)))
		f.MustExec(fmt.Sprintf("insert into S values (%d, %d);", i, r.Intn(8)))
	}
	return f
}

// randSingleRelView defines a random view over one relation and returns
// its name; shapes include projections, range conditions, and constant
// equalities.
func randSingleRelView(t *testing.T, f *workload.Fixture, r *rand.Rand, idx int, rel string, attrs []string) string {
	name := fmt.Sprintf("W%d", idx)
	for {
		var cols []string
		for _, a := range attrs {
			if r.Intn(2) == 0 {
				cols = append(cols, rel+"."+a)
			}
		}
		if len(cols) == 0 {
			cols = []string{rel + "." + attrs[0]}
		}
		stmt := "view " + name + " (" + join(cols) + ")"
		var conds []string
		for _, a := range attrs {
			switch r.Intn(5) {
			case 0:
				conds = append(conds, fmt.Sprintf("%s.%s >= %d", rel, a, r.Intn(8)))
			case 1:
				conds = append(conds, fmt.Sprintf("%s.%s <= %d", rel, a, r.Intn(8)))
			case 2:
				if r.Intn(3) == 0 {
					conds = append(conds, fmt.Sprintf("%s.%s = %d", rel, a, r.Intn(8)))
				}
			}
		}
		for i, c := range conds {
			if i == 0 {
				stmt += " where " + c
			} else {
				stmt += " and " + c
			}
		}
		stmts := stmt + "; permit " + name + " to u;"
		if err := tryExec(f, stmts); err == nil {
			return name
		}
		// Contradictory draw; try again.
	}
}

func tryExec(f *workload.Fixture, script string) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%v", r)
		}
	}()
	f.MustExec(script)
	return nil
}

// metaProduct is Definition 1's product, unguarded.
func metaProduct(t *testing.T, a, b *core.MetaRel, padding bool) *core.MetaRel {
	t.Helper()
	out, err := core.MetaProductGuarded(a, b, padding, nil)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// qualified returns the fixture relation renamed with alias-qualified
// attributes, as the evaluators see scans.
func qualified(f *workload.Fixture, rel, alias string) *relation.Relation {
	base := f.Rels[rel].Head()
	return base.Rename(relation.QualifyAttrs(alias, base.Attrs))
}

// TestProposition1Product: for every pair of instantiated meta-tuples r, s
// the concatenation q satisfies q(D) = r(D) × s(D).
func TestProposition1Product(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for iter := 0; iter < 40; iter++ {
		f := numFixture(rng, 12)
		randSingleRelView(t, f, rng, 1, "R", []string{"A", "B", "C"})
		randSingleRelView(t, f, rng, 2, "S", []string{"D", "E"})
		inst := f.Store.Of("u").Instantiate(map[string]int{"R": 1, "S": 1}, core.DefaultOptions())
		a := inst.MetaRelFor("R", "R")
		b := inst.MetaRelFor("S", "S")
		prod := metaProduct(t, a, b, false)
		rQ := qualified(f, "R", "R")
		sQ := qualified(f, "S", "S")
		wide := rQ.Product(sQ)
		for i, rt := range a.Tuples {
			for j, st := range b.Tuples {
				q := prod.Tuples[i*len(b.Tuples)+j]
				got := q.EvalOn(wide)
				want := rt.EvalOn(rQ).Product(st.EvalOn(sQ))
				if !got.Equal(want) {
					t.Fatalf("Proposition 1 fails:\nq(D):\n%s\nr(D)xs(D):\n%s", got, want)
				}
			}
		}
	}
}

// TestProposition2Selection: with the unrefined operator (Definition 2
// verbatim), each selected meta-tuple q satisfies q(D) = σλ(r(D)); with
// the refined operator the guarantee on the answer side holds:
// σλ(q(D)) = σλ(r(D)).
func TestProposition2Selection(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	attrs := []string{"A", "B", "C"}
	for iter := 0; iter < 200; iter++ {
		f := numFixture(rng, 12)
		randSingleRelView(t, f, rng, 1, "R", attrs)
		inst := f.Store.Of("u").Instantiate(map[string]int{"R": 1}, core.DefaultOptions())
		mr := inst.MetaRelFor("R", "R")
		attr := "R." + attrs[rng.Intn(len(attrs))]
		op := value.Comparators[rng.Intn(len(value.Comparators))]
		c := value.Int(int64(rng.Intn(8)))
		atom := algebra.Atom{L: attr, Op: op, R: algebra.ConstOp(c)}
		rQ := qualified(f, "R", "R")
		lamPred, err := algebra.CompilePred(rQ.Attrs, []algebra.Atom{atom})
		if err != nil {
			t.Fatal(err)
		}
		for _, refined := range []bool{false, true} {
			for ti, rt := range mr.Tuples {
				one := core.NewMetaRel(mr.Attrs)
				one.Tuples = append(one.Tuples, rt.Clone())
				sel, err := core.MetaSelect(one, atom, inst, refined)
				if err != nil {
					t.Fatal(err)
				}
				if !starred(rt, mr, attr) {
					// Definition 2 requires the selected attribute to be
					// projected; the tuple must be discarded — except for
					// the refined μ ⇒ λ case, where the view's own
					// restriction already guarantees the query predicate
					// and the tuple is kept (verbatim, or cleared when
					// λ ⇔ μ).
					if len(sel.Tuples) != 0 {
						ci := cellAt(rt, mr, attr)
						if !refined || !ci.Cons.Implies(interval.FromCmp(op, c)) {
							t.Fatalf("iter %d tuple %d: selection kept an unstarred cell", iter, ti)
						}
					}
					continue
				}
				rD := rt.EvalOn(rQ)
				lamOnView, err := algebra.CompilePred(rD.Attrs, []algebra.Atom{atom})
				if err != nil {
					t.Fatal(err)
				}
				want := rD.Select(lamOnView)
				if len(sel.Tuples) == 0 {
					// Discarded: only legal when λ ∧ μ selects nothing on
					// this instance (contradiction).
					if refined && want.Len() > 0 {
						t.Fatalf("iter %d tuple %d: refined selection dropped a satisfiable view", iter, ti)
					}
					continue
				}
				q := sel.Tuples[0]
				got := q.EvalOn(rQ)
				if !refined {
					if !got.Equal(want) {
						t.Fatalf("Proposition 2 (unrefined) fails for %s:\nq(D):\n%s\nσλ r(D):\n%s",
							atom, got, want)
					}
					continue
				}
				// Refined: the subview may widen (clearing), but must
				// agree wherever λ holds.
				if !got.Select(lamOnView2(t, got, atom)).Equal(want) {
					t.Fatalf("Proposition 2 (refined) fails for %s:\nσλ q(D):\n%s\nσλ r(D):\n%s",
						atom, got.Select(lamOnView2(t, got, atom)), want)
				}
				_ = lamPred
			}
		}
	}
}

func lamOnView2(t *testing.T, rel *relation.Relation, atom algebra.Atom) func(relation.Tuple) bool {
	t.Helper()
	pred, err := algebra.CompilePred(rel.Attrs, []algebra.Atom{atom})
	if err != nil {
		t.Fatal(err)
	}
	return pred
}

func starred(mt *core.MetaTuple, mr *core.MetaRel, attr string) bool {
	for i, a := range mr.Attrs {
		if a == attr {
			return mt.Cells[i].Star
		}
	}
	return false
}

func cellAt(mt *core.MetaTuple, mr *core.MetaRel, attr string) core.Cell {
	for i, a := range mr.Attrs {
		if a == attr {
			return mt.Cells[i]
		}
	}
	return core.Cell{}
}

// TestProposition3Projection: removing a blank attribute commutes with
// projecting the instance; tuples with non-blank removed cells are
// discarded.
func TestProposition3Projection(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	attrs := []string{"A", "B", "C"}
	for iter := 0; iter < 200; iter++ {
		f := numFixture(rng, 12)
		randSingleRelView(t, f, rng, 1, "R", attrs)
		inst := f.Store.Of("u").Instantiate(map[string]int{"R": 1}, core.DefaultOptions())
		mr := inst.MetaRelFor("R", "R")
		drop := rng.Intn(len(attrs))
		var cols []string
		for i, a := range attrs {
			if i != drop {
				cols = append(cols, "R."+a)
			}
		}
		proj, err := core.MetaProject(mr, cols)
		if err != nil {
			t.Fatal(err)
		}
		rQ := qualified(f, "R", "R")
		narrow := rQ.Project(indicesOf(rQ.Attrs, cols))
		// Each surviving projected tuple must define, over the narrowed
		// instance, exactly the original subview with the dropped column
		// removed.
		for _, q := range proj.Tuples {
			got := q.EvalOn(narrow)
			// Find the source tuple: same Comps.
			src := findByComps(mr, q)
			if src == nil {
				t.Fatal("projected tuple lost provenance")
			}
			want := projectAway(src.EvalOn(rQ), "R."+attrs[drop])
			if !got.Equal(want) {
				t.Fatalf("Proposition 3 fails (drop %s):\nq(D):\n%s\nπ r(D):\n%s",
					attrs[drop], got, want)
			}
		}
		// Dropped tuples must have had a non-blank removed cell.
		if len(proj.Tuples) < len(mr.Tuples) {
			for _, rt := range mr.Tuples {
				if findByComps(proj, rt) == nil && rt.Cells[drop].IsBlank() {
					t.Fatal("projection dropped a tuple whose removed cell was blank")
				}
			}
		}
	}
}

func indicesOf(attrs, cols []string) []int {
	var out []int
	for _, c := range cols {
		for i, a := range attrs {
			if a == c {
				out = append(out, i)
			}
		}
	}
	return out
}

func projectAway(rel *relation.Relation, attr string) *relation.Relation {
	var idx []int
	for i, a := range rel.Attrs {
		if a != attr {
			idx = append(idx, i)
		}
	}
	return rel.Project(idx)
}

func findByComps(mr *core.MetaRel, q *core.MetaTuple) *core.MetaTuple {
	for _, t := range mr.Tuples {
		if len(t.Comps) != len(q.Comps) {
			continue
		}
		same := true
		for i := range t.Comps {
			if t.Comps[i] != q.Comps[i] {
				same = false
				break
			}
		}
		if same {
			return t
		}
	}
	return nil
}

// TestPaddingAddsOperandSubviews checks the §4.2 product refinement: with
// padding, each operand's tuples appear blank-extended, and projecting the
// other operand away recovers them.
func TestPaddingAddsOperandSubviews(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	f := numFixture(rng, 6)
	randSingleRelView(t, f, rng, 1, "R", []string{"A", "B", "C"})
	inst := f.Store.Of("u").Instantiate(map[string]int{"R": 1, "S": 1}, core.DefaultOptions())
	a := inst.MetaRelFor("R", "R")
	b := inst.MetaRelFor("S", "S") // u has no views over S: empty
	if len(b.Tuples) != 0 {
		t.Fatal("expected no S views")
	}
	plain := metaProduct(t, a, b, false)
	if len(plain.Tuples) != 0 {
		t.Fatal("plain product with an empty operand must be empty")
	}
	padded := metaProduct(t, a, b, true)
	if len(padded.Tuples) != len(a.Tuples) {
		t.Fatalf("padded product has %d tuples, want %d", len(padded.Tuples), len(a.Tuples))
	}
	cols := []string{"R.A", "R.B", "R.C"}
	back, err := core.MetaProject(padded, cols)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Tuples) != len(a.Tuples) {
		t.Fatalf("projection recovered %d of %d padded tuples", len(back.Tuples), len(a.Tuples))
	}
}

// TestSelectionRequiresStar: Definition 2 only keeps meta-tuples whose
// selected attribute is projected.
func TestSelectionRequiresStar(t *testing.T) {
	f := workload.NewFixture()
	f.MustExec(`
		relation R (A, B) key (A);
		insert into R values (1, 2);
		view V (R.A);
		permit V to u;
	`)
	inst := f.Store.Of("u").Instantiate(map[string]int{"R": 1}, core.DefaultOptions())
	mr := inst.MetaRelFor("R", "R")
	atom := algebra.Atom{L: "R.B", Op: value.GE, R: algebra.ConstOp(value.Int(0))}
	for _, refined := range []bool{false, true} {
		sel, err := core.MetaSelect(mr, atom, inst, refined)
		if err != nil {
			t.Fatal(err)
		}
		if len(sel.Tuples) != 0 {
			t.Fatalf("selection on the unstarred B kept %d tuples (refined=%v)", len(sel.Tuples), refined)
		}
	}
}

func rangeIv(lo, hi int64) interval.Interval {
	return interval.Intersect(
		interval.FromCmp(value.GE, value.Int(lo)),
		interval.FromCmp(value.LE, value.Int(hi)),
	)
}

func ltIv(hi int64) interval.Interval {
	return interval.FromCmp(value.LT, value.Int(hi))
}

// TestFourCaseUnit pins the four outcomes of the §4.2 refinement on the
// paper's budget example.
func TestFourCaseUnit(t *testing.T) {
	build := func() (*core.Instance, *core.MetaRel) {
		f := workload.NewFixture()
		f.MustExec(`
			relation P (N, BUDGET) key (N);
			view V (P.N, P.BUDGET) where P.BUDGET >= 300000 and P.BUDGET <= 600000;
			permit V to u;
		`)
		inst := f.Store.Of("u").Instantiate(map[string]int{"P": 1}, core.DefaultOptions())
		return inst, inst.MetaRelFor("P", "P")
	}
	sel := func(lo, hi int64) *core.MetaRel {
		inst, mr := build()
		out, err := core.MetaSelectConst(mr, "P.BUDGET",
			rangeIv(lo, hi), inst, true)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	// (1) overlap: conjoined to [300000, 400000].
	out := sel(200000, 400000)
	if len(out.Tuples) != 1 {
		t.Fatal("case 1 must keep the tuple")
	}
	c := out.Tuples[0].Cells[1]
	if c.Cons.IsFull() || !c.Cons.Lo.Bounded || c.Cons.Lo.V.AsInt() != 300000 ||
		!c.Cons.Hi.Bounded || c.Cons.Hi.V.AsInt() != 400000 {
		t.Fatalf("case 1 residual = %v", c.Cons)
	}
	// (2) μ ⇒ λ: unmodified ([300000, 600000] stays).
	out = sel(200000, 700000)
	c = out.Tuples[0].Cells[1]
	if c.Cons.Lo.V.AsInt() != 300000 || c.Cons.Hi.V.AsInt() != 600000 {
		t.Fatalf("case 2 residual = %v", c.Cons)
	}
	// (3) λ ⇒ μ: cleared.
	out = sel(400000, 500000)
	if !out.Tuples[0].Cells[1].IsBlank() {
		t.Fatalf("case 3 residual = %v", out.Tuples[0].Cells[1].Cons)
	}
	// (4) contradiction: discarded.
	inst, mr := build()
	out, err := core.MetaSelectConst(mr, "P.BUDGET",
		ltIv(300000), inst, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Tuples) != 0 {
		t.Fatal("case 4 must discard the tuple")
	}
	_ = inst
}
