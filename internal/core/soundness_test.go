package core_test

import (
	"fmt"
	"math/rand"
	"testing"

	"authdb/internal/algebra"
	"authdb/internal/core"
	"authdb/internal/cview"
	"authdb/internal/relation"
	"authdb/internal/value"
	"authdb/internal/workload"
)

// soundFixture builds a random 2-relation database with a foreign-key-ish
// column so joins produce matches: R(A,B,C), S(D,E) where R.B references
// S.D and payloads are drawn from a tiny domain.
func soundFixture(rng *rand.Rand, rows int) *workload.Fixture {
	f := workload.NewFixture()
	f.MustExec(`
		relation R (A, B, C) key (A);
		relation S (D, E) key (D);
	`)
	for i := 0; i < rows; i++ {
		f.MustExec(fmt.Sprintf("insert into R values (%d, %d, %d);", i, rng.Intn(rows), rng.Intn(6)))
		f.MustExec(fmt.Sprintf("insert into S values (%d, %d);", i, rng.Intn(6)))
	}
	return f
}

// randJoinView defines a random view that may span R and S (joined on
// R.B = S.D) with random projections and range conditions; it retries
// until the definition compiles.
func randJoinView(f *workload.Fixture, rng *rand.Rand, idx int) {
	name := fmt.Sprintf("J%d", idx)
	for {
		joined := rng.Intn(2) == 0
		var cols, conds []string
		for _, a := range []string{"A", "B", "C"} {
			if rng.Intn(2) == 0 {
				cols = append(cols, "R."+a)
			}
		}
		if joined {
			for _, a := range []string{"D", "E"} {
				if rng.Intn(2) == 0 {
					cols = append(cols, "S."+a)
				}
			}
			conds = append(conds, "R.B = S.D")
		}
		if len(cols) == 0 {
			cols = []string{"R.A"}
		}
		if rng.Intn(2) == 0 {
			conds = append(conds, fmt.Sprintf("R.C >= %d", rng.Intn(6)))
		}
		if rng.Intn(3) == 0 {
			conds = append(conds, fmt.Sprintf("R.C <= %d", rng.Intn(6)))
		}
		if rng.Intn(4) == 0 {
			// A symbolic comparison: locked variables end to end.
			ops := []string{"<", "<=", "!="}
			conds = append(conds, "R.B "+ops[rng.Intn(len(ops))]+" R.C")
		}
		if joined && rng.Intn(3) == 0 {
			conds = append(conds, fmt.Sprintf("S.E = %d", rng.Intn(6)))
		}
		stmt := "view " + name + " (" + join(cols) + ")"
		for i, c := range conds {
			if i == 0 {
				stmt += " where " + c
			} else {
				stmt += " and " + c
			}
		}
		if err := tryExec(f, stmt+"; permit "+name+" to u;"); err == nil {
			return
		}
	}
}

// randSelfJoinView defines an EST-style view pairing two occurrences of R
// on a shared attribute.
func randSelfJoinView(f *workload.Fixture, rng *rand.Rand, idx int) {
	name := fmt.Sprintf("SJ%d", idx)
	attrs := []string{"A", "B", "C"}
	shared := attrs[rng.Intn(len(attrs))]
	var cols []string
	cols = append(cols, "R:1.A", "R:2.A")
	if rng.Intn(2) == 0 {
		cols = append(cols, "R:1."+shared)
	}
	stmt := "view " + name + " (" + join(cols) + ") where R:1." + shared + " = R:2." + shared
	if rng.Intn(2) == 0 {
		stmt += fmt.Sprintf(" and R:1.C >= %d", rng.Intn(6))
	}
	if err := tryExec(f, stmt+"; permit "+name+" to u;"); err != nil {
		panic(err)
	}
}

// randSelfJoinQuery builds a query over two occurrences of R.
func randSelfJoinQuery(rng *rand.Rand) *cview.Def {
	def := &cview.Def{}
	for _, alias := range []string{"R:1", "R:2"} {
		for _, a := range []string{"A", "B", "C"} {
			if rng.Intn(3) == 0 {
				def.Cols = append(def.Cols, cview.ColRef{Alias: alias, Attr: a})
			}
		}
	}
	if len(def.Cols) == 0 {
		def.Cols = []cview.ColRef{{Alias: "R:1", Attr: "A"}, {Alias: "R:2", Attr: "A"}}
	}
	shared := []string{"A", "B", "C"}[rng.Intn(3)]
	def.Where = append(def.Where, cview.Cond{
		L: cview.ColRef{Alias: "R:1", Attr: shared}, Op: value.EQ,
		R: cview.ColTerm("R:2", shared),
	})
	if rng.Intn(2) == 0 {
		def.Where = append(def.Where, cview.Cond{
			L: cview.ColRef{Alias: "R:1", Attr: "C"}, Op: value.GE,
			R: cview.ConstTerm(value.Int(int64(rng.Intn(6)))),
		})
	}
	// Aliases in conditions must appear in columns too for both scans to
	// register; the shared condition references both.
	return def
}

// randQueryDef builds a random conjunctive query over R and S.
func randQueryDef(rng *rand.Rand) *cview.Def {
	def := &cview.Def{}
	useS := rng.Intn(2) == 0
	for _, a := range []string{"A", "B", "C"} {
		if rng.Intn(2) == 0 {
			def.Cols = append(def.Cols, cview.ColRef{Alias: "R", Attr: a})
		}
	}
	if useS {
		for _, a := range []string{"D", "E"} {
			if rng.Intn(2) == 0 {
				def.Cols = append(def.Cols, cview.ColRef{Alias: "S", Attr: a})
			}
		}
	}
	if len(def.Cols) == 0 {
		def.Cols = []cview.ColRef{{Alias: "R", Attr: "A"}}
	}
	if useS && rng.Intn(4) != 0 {
		def.Where = append(def.Where, cview.Cond{
			L: cview.ColRef{Alias: "R", Attr: "B"}, Op: value.EQ, R: cview.ColTerm("S", "D"),
		})
	}
	if rng.Intn(2) == 0 {
		op := []value.Cmp{value.GE, value.LE, value.GT, value.LT, value.EQ, value.NE}[rng.Intn(6)]
		def.Where = append(def.Where, cview.Cond{
			L: cview.ColRef{Alias: "R", Attr: "C"}, Op: op,
			R: cview.ConstTerm(value.Int(int64(rng.Intn(6)))),
		})
	}
	if rng.Intn(4) == 0 {
		op := []value.Cmp{value.LT, value.LE, value.NE}[rng.Intn(3)]
		def.Where = append(def.Where, cview.Cond{
			L: cview.ColRef{Alias: "R", Attr: "B"}, Op: op,
			R: cview.ColTerm("R", "C"),
		})
	}
	// Ensure every alias used in conditions is present in some column —
	// aliases are derived from both, so a condition-only S is fine.
	return def
}

// viewImages evaluates every view permitted to u on the current instance.
func viewImages(t *testing.T, f *workload.Fixture) map[string]*relation.Relation {
	t.Helper()
	out := make(map[string]*relation.Relation)
	for _, name := range f.Store.ViewsFor("u") {
		v := f.Store.Branches(name)[0]
		an, err := cview.Analyze(v.Def, f.Schema)
		if err != nil {
			t.Fatal(err)
		}
		img, err := algebra.EvalPSJ(an.PSJ, f.Source, nil, algebra.ExecOptions{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		out[name] = img
	}
	return out
}

func sameImages(a, b map[string]*relation.Relation) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if w, ok := b[k]; !ok || !v.Equal(w) {
			return false
		}
	}
	return true
}

// randOptions draws a random refinement configuration — soundness must
// hold under every combination.
func randOptions(rng *rand.Rand) core.Options {
	opt := core.DefaultOptions()
	opt.Padding = rng.Intn(2) == 0
	opt.FourCase = rng.Intn(2) == 0
	opt.SelfJoins = rng.Intn(2) == 0
	opt.Subsume = rng.Intn(2) == 0
	opt.ExtendedMasks = rng.Intn(2) == 0
	return opt
}

// TestPerturbationSoundness is the model's security property, checked by
// falsification: whatever the user can see must be a function of their
// permitted views' contents. For random databases, views, queries, and
// refinement configurations, mutate the database in a way that leaves
// every permitted view image unchanged; the masked answer must not change
// either. A failure here is a data leak.
func TestPerturbationSoundness(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	leaks := 0
	for iter := 0; iter < 150; iter++ {
		f := soundFixture(rng, 8)
		nViews := 1 + rng.Intn(3)
		for i := 0; i < nViews; i++ {
			randJoinView(f, rng, i)
		}
		selfJoinCase := iter%3 == 2
		if selfJoinCase {
			randSelfJoinView(f, rng, nViews)
		}
		def := randQueryDef(rng)
		if selfJoinCase {
			def = randSelfJoinQuery(rng)
		}
		opt := randOptions(rng)
		auth := core.NewAuthorizer(f.Store, f.Source, opt)
		before, err := auth.Retrieve("u", def)
		if err != nil {
			t.Fatal(err)
		}
		imagesBefore := viewImages(t, f)

		// Try a handful of random single-cell mutations.
		for m := 0; m < 6; m++ {
			g := soundFixture(rand.New(rand.NewSource(0)), 0) // fresh empty container
			_ = g
			mutated := cloneFixture(f)
			if !mutateCell(mutated, rng) {
				continue
			}
			imagesAfter := viewImages(t, mutated)
			if !sameImages(imagesBefore, imagesAfter) {
				continue // the mutation was visible through some view
			}
			authM := core.NewAuthorizer(mutated.Store, mutated.Source, opt)
			after, err := authM.Retrieve("u", def)
			if err != nil {
				t.Fatal(err)
			}
			if !before.Masked.Equal(after.Masked) {
				leaks++
				t.Errorf("iter %d: masked answer changed although no permitted view did\nquery: %s\nbefore:\n%s\nafter:\n%s",
					iter, def, before.Masked, after.Masked)
				if leaks > 3 {
					t.FailNow()
				}
			}
		}
	}
}

// cloneFixture deep-copies relations, sharing the (immutable) store.
func cloneFixture(f *workload.Fixture) *workload.Fixture {
	out := &workload.Fixture{
		Schema: f.Schema,
		Rels:   make(map[string]*relation.Versioned, len(f.Rels)),
		Store:  f.Store,
	}
	for k, v := range f.Rels {
		out.Rels[k] = relation.VersionedOf(v.Head().Clone())
	}
	return out
}

// mutateCell changes one random payload cell of one tuple (a delete and
// an insert, under set semantics); it reports whether a mutation
// happened.
func mutateCell(f *workload.Fixture, rng *rand.Rand) bool {
	names := []string{"R", "S"}
	name := names[rng.Intn(len(names))]
	rel := f.Rels[name]
	tuples := rel.Head().Tuples()
	if len(tuples) == 0 {
		return false
	}
	old := tuples[rng.Intn(len(tuples))].Clone()
	col := rng.Intn(len(old))
	mutated := old.Clone()
	mutated[col] = value.Int(old[col].AsInt() + 1 + int64(rng.Intn(3)))
	rel.Delete(old.Equal)
	if _, err := rel.Insert(mutated); err != nil {
		panic(err)
	}
	return true
}

// TestMaskedWithinAnswer: the delivered relation never contains a value
// absent from the true answer at that position, and never contains a row
// not derived from an answer row.
func TestMaskedWithinAnswer(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	for iter := 0; iter < 60; iter++ {
		f := soundFixture(rng, 8)
		for i := 0; i < 2; i++ {
			randJoinView(f, rng, i)
		}
		def := randQueryDef(rng)
		auth := core.NewAuthorizer(f.Store, f.Source, randOptions(rng))
		d, err := auth.Retrieve("u", def)
		if err != nil {
			t.Fatal(err)
		}
		answer := referenceAnswer(t, f.Source, d.PSJ)
		for _, row := range d.Masked.Tuples() {
			matched := false
			for _, ans := range answer.Tuples() {
				ok := true
				for i := range row {
					if !row[i].IsNull() && !row[i].Equal(ans[i]) {
						ok = false
						break
					}
				}
				if ok {
					matched = true
					break
				}
			}
			if !matched {
				t.Fatalf("masked row %v has no source in the answer\n%s", row, answer)
			}
		}
		if d.Stats.RevealedCells > d.Stats.Cells {
			t.Fatal("stats overflow")
		}
	}
}

// referenceAnswer is the answer A of psj, evaluated naively over src: a
// Decision keeps only what the user may see, so tests that compare the
// delivered relation with A take A from here.
func referenceAnswer(t testing.TB, src algebra.Source, psj *algebra.PSJ) *relation.Relation {
	t.Helper()
	ans, err := algebra.EvalNaive(psj, src, nil)
	if err != nil {
		t.Fatalf("reference answer: %v", err)
	}
	return ans
}

// referenceDecision is the paper's pipeline verbatim, the oracle the
// production path is tested against: §4.1's meta side (ReferencePlan),
// the query's normal form evaluated naively, and the mask applied to the
// answer (to the wide answer under ExtendedMasks).
func referenceDecision(t *testing.T, f *workload.Fixture, opt core.Options, user string, def *cview.Def) *core.Decision {
	t.Helper()
	an, err := cview.Analyze(def, f.Schema)
	if err != nil {
		t.Fatal(err)
	}
	mp, err := core.NewAuthorizer(f.Store, f.Source, opt).ReferencePlan(user, an.PSJ)
	if err != nil {
		t.Fatalf("reference plan: %v", err)
	}
	d := &core.Decision{MaskPlan: mp, PSJ: an.PSJ}
	if mp.WidePSJ != nil {
		wide, err := algebra.EvalNaive(mp.WidePSJ, f.Source, nil)
		if err != nil {
			t.Fatalf("reference actual side: %v", err)
		}
		d.Masked, d.Stats = mp.Mask.ApplyExtended(wide, mp.Mask.Out, an.PSJ.Cols)
		return d
	}
	d.Masked, d.Stats = mp.Mask.Apply(referenceAnswer(t, f.Source, an.PSJ))
	return d
}

// TestDualExecutorsAgreeUnderAuthorization: retrieval (planned meta
// side, indexed executor) and the paper's pipeline verbatim must deliver
// the same masked answer, permits, flags and statistics.
func TestDualExecutorsAgreeUnderAuthorization(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for iter := 0; iter < 60; iter++ {
		f := soundFixture(rng, 8)
		randJoinView(f, rng, 0)
		def := randQueryDef(rng)
		opt := core.DefaultOptions()
		da, err := core.NewAuthorizer(f.Store, f.Source, opt).Retrieve("u", def)
		if err != nil {
			t.Fatal(err)
		}
		compareDecisions(t, fmt.Sprintf("case %d query %s", iter, def), da, referenceDecision(t, f, opt, "u", def))
	}
}
