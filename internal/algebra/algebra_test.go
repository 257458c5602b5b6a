package algebra

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"authdb/internal/guard"
	"authdb/internal/relation"
	"authdb/internal/value"
)

func vi(i int64) value.Value { return value.Int(i) }

// rel returns a relation over attrs holding the distinct ones of tuples,
// in first-occurrence order.
func rel(attrs []string, tuples ...relation.Tuple) *relation.Relation {
	s := relation.NewSet(attrs, len(tuples))
	for _, t := range tuples {
		s.Add(t)
	}
	return s.Relation()
}

// fixture builds a small two-relation database:
//
//	R(A, B): (1,10) (2,20) (3,30)
//	S(B, C): (10,x) (20,y) (40,z)
func fixture() (*relation.DBSchema, Source) {
	sch := relation.NewDBSchema()
	sch.Add(relation.MustSchema("R", []string{"A", "B"})) //nolint:errcheck
	sch.Add(relation.MustSchema("S", []string{"B", "C"})) //nolint:errcheck
	sch.Add(relation.MustSchema("T", []string{"D"}, "D")) //nolint:errcheck
	r := rel([]string{"A", "B"}, relation.Tuple{vi(1), vi(10)}, relation.Tuple{vi(2), vi(20)}, relation.Tuple{vi(3), vi(30)})
	s := rel([]string{"B", "C"},
		relation.Tuple{vi(10), value.String("x")}, relation.Tuple{vi(20), value.String("y")}, relation.Tuple{vi(40), value.String("z")})
	tt := rel([]string{"D"}, relation.Tuple{vi(1)})
	return sch, MapSource(map[string]*relation.Relation{"R": r, "S": s, "T": tt})
}

func TestScanQualifiesAttrs(t *testing.T) {
	sch, src := fixture()
	out, err := EvalNaive(&PSJ{Scans: []Scan{{Rel: "R", Alias: "R"}}}, src, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.Attrs[0] != "R.A" || out.Attrs[1] != "R.B" {
		t.Fatalf("attrs = %v", out.Attrs)
	}
	attrs, err := Scan{Rel: "R", Alias: "R:2"}.Attrs(sch)
	if err != nil || attrs[0] != "R:2.A" {
		t.Fatalf("Attrs = %v, %v", attrs, err)
	}
	if _, err := EvalNaive(&PSJ{Scans: []Scan{{Rel: "Z", Alias: "Z"}}}, src, nil); err == nil {
		t.Error("unknown relation accepted")
	}
}

func TestSelectProjectProduct(t *testing.T) {
	_, src := fixture()
	p := &PSJ{
		Scans: []Scan{{Rel: "R", Alias: "R"}, {Rel: "S", Alias: "S"}},
		Preds: []Atom{{L: "R.B", Op: value.EQ, R: AttrOp("S.B")}},
		Cols:  []string{"R.A", "S.C"},
	}
	out, err := EvalNaive(p, src, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 2 {
		t.Fatalf("join rows = %d, want 2\n%s", out.Len(), out)
	}
	if !out.Equal(rel(out.Attrs, relation.Tuple{vi(1), value.String("x")}, relation.Tuple{vi(2), value.String("y")})) {
		t.Fatalf("join content wrong\n%s", out)
	}
}

// TestEvalNaiveAccounting pins the guard calls of the literal normal
// form: one Add per product output row, per selection input row and per
// projection input row, so a budget trips at a fixed row.
func TestEvalNaiveAccounting(t *testing.T) {
	_, src := fixture()
	p := &PSJ{
		Scans: []Scan{{Rel: "R", Alias: "R"}, {Rel: "S", Alias: "S"}, {Rel: "T", Alias: "T"}},
		Preds: []Atom{{L: "R.B", Op: value.EQ, R: AttrOp("S.B")}},
		Cols:  []string{"R.A"},
	}
	// R×S and (R×S)×T each produce 9 rows; the selection reads 9 and
	// keeps 2; the projection reads 2.
	g := guard.New(context.Background(), guard.Limits{})
	out, err := EvalNaive(p, src, g)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 2 || g.Produced() != 29 {
		t.Fatalf("rows = %d, produced = %d; want 2, 29", out.Len(), g.Produced())
	}
	g = guard.New(context.Background(), guard.Limits{MaxIntermediateRows: 28})
	_, err = EvalNaive(p, src, g)
	if !errors.Is(err, guard.ErrBudgetExceeded) || g.Produced() != 29 {
		t.Fatalf("budget 28: err = %v, produced = %d; want a trip at row 29", err, g.Produced())
	}

	// No atoms and no columns: the bare product, every column.
	wide, err := EvalNaive(&PSJ{Scans: p.Scans[:2]}, src, nil)
	if err != nil {
		t.Fatal(err)
	}
	if wide.Len() != 9 || wide.Arity() != 4 {
		t.Fatalf("bare product = %d rows of %d columns, want 9 of 4", wide.Len(), wide.Arity())
	}
}

func TestCompilePredErrors(t *testing.T) {
	if _, err := CompilePred([]string{"R.A"}, []Atom{{L: "R.Z", Op: value.EQ, R: ConstOp(vi(1))}}); err == nil {
		t.Error("unknown attribute accepted")
	}
	if _, err := CompilePred([]string{"R.A", "S.A"}, []Atom{{L: "A", Op: value.EQ, R: ConstOp(vi(1))}}); err == nil {
		t.Error("ambiguous bare attribute accepted")
	}
	// Unambiguous bare names resolve.
	pred, err := CompilePred([]string{"R.A", "S.B"}, []Atom{{L: "B", Op: value.GT, R: ConstOp(vi(5))}})
	if err != nil {
		t.Fatal(err)
	}
	if !pred(relation.Tuple{vi(0), vi(6)}) || pred(relation.Tuple{vi(0), vi(5)}) {
		t.Error("compiled predicate wrong")
	}
}

func TestPSJHelpers(t *testing.T) {
	sch, _ := fixture()
	p := &PSJ{
		Scans: []Scan{{Rel: "R", Alias: "R"}, {Rel: "S", Alias: "S"}},
		Preds: []Atom{{L: "R.B", Op: value.EQ, R: AttrOp("S.B")}},
		Cols:  []string{"R.A"},
	}
	attrs, err := p.Attrs(sch)
	if err != nil || len(attrs) != 4 {
		t.Fatalf("Attrs = %v, %v", attrs, err)
	}
	rels := p.Relations()
	if !rels["R"] || !rels["S"] || len(rels) != 2 {
		t.Fatalf("Relations = %v", rels)
	}
	if p.String() == "" {
		t.Error("String empty")
	}
}

// randPSJ builds a random conjunctive query over the fixture schema.
func randPSJ(r *rand.Rand) *PSJ {
	p := &PSJ{}
	rels := []string{"R", "S", "T"}
	n := 1 + r.Intn(3)
	counts := map[string]int{}
	for i := 0; i < n; i++ {
		rel := rels[r.Intn(len(rels))]
		counts[rel]++
		alias := rel
		if counts[rel] > 1 {
			alias = rel + ":" + string(rune('0'+counts[rel]))
		}
		p.Scans = append(p.Scans, Scan{Rel: rel, Alias: alias})
	}
	attrsOf := map[string][]string{"R": {"A", "B"}, "S": {"B", "C"}, "T": {"D"}}
	var all []string
	for _, s := range p.Scans {
		for _, a := range attrsOf[s.Rel] {
			all = append(all, s.Alias+"."+a)
		}
	}
	// Random predicates: a mix of attr-const and attr-attr.
	for i := 0; i < r.Intn(3); i++ {
		op := value.Comparators[r.Intn(len(value.Comparators))]
		l := all[r.Intn(len(all))]
		if r.Intn(2) == 0 {
			p.Preds = append(p.Preds, Atom{L: l, Op: op, R: ConstOp(vi(int64(r.Intn(45))))})
		} else {
			p.Preds = append(p.Preds, Atom{L: l, Op: op, R: AttrOp(all[r.Intn(len(all))])})
		}
	}
	// Random non-empty projection.
	k := 1 + r.Intn(len(all))
	perm := r.Perm(len(all))
	for i := 0; i < k; i++ {
		p.Cols = append(p.Cols, all[perm[i]])
	}
	return p
}

// TestNaiveOptimizedAgree is the executor equivalence property: for random
// conjunctive queries the pushdown/hash-join evaluator must produce
// exactly the naive normal-form result.
func TestNaiveOptimizedAgree(t *testing.T) {
	_, src := fixture()
	r := rand.New(rand.NewSource(23))
	for i := 0; i < 400; i++ {
		p := randPSJ(r)
		naive, err := EvalNaive(p, src, nil)
		if err != nil {
			t.Fatal(err)
		}
		opt, err := EvalPSJ(p, src, nil, ExecOptions{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !naive.Equal(opt) {
			t.Fatalf("executors disagree on %s:\nnaive:\n%s\noptimized:\n%s", p, naive, opt)
		}
	}
}

func TestEvalOptimizedCartesianFallback(t *testing.T) {
	_, src := fixture()
	p := &PSJ{
		Scans: []Scan{{Rel: "R", Alias: "R"}, {Rel: "T", Alias: "T"}},
		Cols:  []string{"R.A", "T.D"},
	}
	out, err := EvalPSJ(p, src, nil, ExecOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 3 {
		t.Fatalf("cartesian rows = %d, want 3", out.Len())
	}
}

func TestEvalOptimizedThetaJoin(t *testing.T) {
	_, src := fixture()
	p := &PSJ{
		Scans: []Scan{{Rel: "R", Alias: "R"}, {Rel: "S", Alias: "S"}},
		Preds: []Atom{{L: "R.B", Op: value.LT, R: AttrOp("S.B")}},
		Cols:  []string{"R.A", "S.B"},
	}
	naive, err := EvalNaive(p, src, nil)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := EvalPSJ(p, src, nil, ExecOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !naive.Equal(opt) {
		t.Fatal("theta join disagrees")
	}
}

func TestEmptyQueryRejected(t *testing.T) {
	_, src := fixture()
	if _, err := EvalPSJ(&PSJ{}, src, nil, ExecOptions{}, nil); err == nil {
		t.Error("empty query accepted")
	}
	if _, err := EvalNaive(&PSJ{}, src, nil); err == nil {
		t.Error("empty query accepted by EvalNaive")
	}
}
