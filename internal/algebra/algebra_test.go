package algebra

import (
	"math/rand"
	"testing"

	"authdb/internal/relation"
	"authdb/internal/value"
)

func vi(i int64) value.Value { return value.Int(i) }

// fixture builds a small two-relation database:
//
//	R(A, B): (1,10) (2,20) (3,30)
//	S(B, C): (10,x) (20,y) (40,z)
func fixture() (*relation.DBSchema, Source) {
	sch := relation.NewDBSchema()
	sch.Add(relation.MustSchema("R", []string{"A", "B"})) //nolint:errcheck
	sch.Add(relation.MustSchema("S", []string{"B", "C"})) //nolint:errcheck
	sch.Add(relation.MustSchema("T", []string{"D"}, "D")) //nolint:errcheck
	r := relation.New([]string{"A", "B"})
	r.MustInsert(vi(1), vi(10))
	r.MustInsert(vi(2), vi(20))
	r.MustInsert(vi(3), vi(30))
	s := relation.New([]string{"B", "C"})
	s.MustInsert(vi(10), value.String("x"))
	s.MustInsert(vi(20), value.String("y"))
	s.MustInsert(vi(40), value.String("z"))
	tt := relation.New([]string{"D"})
	tt.MustInsert(vi(1))
	return sch, MapSource(map[string]*relation.Relation{"R": r, "S": s, "T": tt})
}

func TestScanQualifiesAttrs(t *testing.T) {
	sch, src := fixture()
	out, err := EvalNaive(Scan{Rel: "R", Alias: "R"}, src)
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
	if _, err := EvalNaive(Scan{Rel: "Z", Alias: "Z"}, src); err == nil {
		t.Error("unknown relation accepted")
	}
}

func TestSelectProjectProduct(t *testing.T) {
	_, src := fixture()
	plan := Project{
		In: Select{
			In:   Product{L: Scan{Rel: "R", Alias: "R"}, R: Scan{Rel: "S", Alias: "S"}},
			Pred: []Atom{{L: "R.B", Op: value.EQ, R: AttrOp("S.B")}},
		},
		Cols: []string{"R.A", "S.C"},
	}
	out, err := EvalNaive(plan, src)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 2 {
		t.Fatalf("join rows = %d, want 2\n%s", out.Len(), out)
	}
	if !out.Contains(relation.Tuple{vi(1), value.String("x")}) ||
		!out.Contains(relation.Tuple{vi(2), value.String("y")}) {
		t.Fatalf("join content wrong\n%s", out)
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

func TestNormalizeRoundTrip(t *testing.T) {
	plan := Project{
		In: Select{
			In:   Product{L: Scan{Rel: "R", Alias: "R"}, R: Scan{Rel: "S", Alias: "S"}},
			Pred: []Atom{{L: "R.B", Op: value.EQ, R: AttrOp("S.B")}},
		},
		Cols: []string{"R.A"},
	}
	p, err := Normalize(plan)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Scans) != 2 || len(p.Preds) != 1 || len(p.Cols) != 1 {
		t.Fatalf("normalized = %+v", p)
	}
	_, src := fixture()
	a, err := EvalNaive(plan, src)
	if err != nil {
		t.Fatal(err)
	}
	b, err := EvalNaive(p.Node(), src)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Equal(b) {
		t.Fatal("Node() round trip changes semantics")
	}
}

func TestNormalizeRejectsInnerProjection(t *testing.T) {
	bad := Product{
		L: Project{In: Scan{Rel: "R", Alias: "R"}, Cols: []string{"R.A"}},
		R: Scan{Rel: "S", Alias: "S"},
	}
	if _, err := Normalize(bad); err == nil {
		t.Error("projection below a product must be rejected")
	}
	bad2 := Select{
		In:   Project{In: Scan{Rel: "R", Alias: "R"}, Cols: []string{"R.A"}},
		Pred: []Atom{{L: "R.A", Op: value.EQ, R: ConstOp(vi(1))}},
	}
	if _, err := Normalize(bad2); err == nil {
		t.Error("projection below a selection must be rejected")
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
		naive, err := EvalNaive(p.Node(), src)
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
	naive, err := EvalNaive(p.Node(), src)
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
}
