package core_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"authdb/bench/fixture"
	"authdb/internal/algebra"
	"authdb/internal/core"
	"authdb/internal/cview"
	"authdb/internal/guard"
	"authdb/internal/value"
	"authdb/internal/workload"
)

// planText renders everything of a mask plan that reaches a user or the
// actual side: the mask tuple by tuple in order (cells, views, variable
// identities, provenance, symbolic comparisons), the permits, the
// participating views, the pushdown atoms and the outcome flags.
func planText(mp *core.MaskPlan) string {
	var b strings.Builder
	mr := &core.MetaRel{Attrs: mp.Mask.Attrs, Tuples: mp.Mask.Tuples}
	mr.Render(&b, "mask", mp.Inst)
	for _, t := range mp.Mask.Tuples {
		fmt.Fprintf(&b, "%+v\n", *t)
	}
	for _, p := range mp.Permits {
		fmt.Fprintln(&b, p.String())
	}
	fmt.Fprintf(&b, "views %v\npushdown %v\nfull %v denied %v\nout %v\n",
		mp.Views, mp.Pushdown, mp.FullyAuthorized, mp.Denied, mp.Mask.Out)
	return b.String()
}

// bothPlans computes the mask plan of psj twice, by the planner
// (MaskPlanFor) and by the reference (ReferencePlan), under limits.
func bothPlans(f *workload.Fixture, user string, psj *algebra.PSJ, opt core.Options, limits guard.Limits) (planned, reference *core.MaskPlan, perr, rerr error) {
	run := func(plan func(*core.Authorizer) (*core.MaskPlan, error)) (*core.MaskPlan, error) {
		auth := core.NewAuthorizer(f.Store, f.Source, opt)
		auth.Guard = guard.New(context.Background(), limits)
		return plan(auth)
	}
	planned, perr = run(func(a *core.Authorizer) (*core.MaskPlan, error) { return a.MaskPlanFor(user, psj) })
	reference, rerr = run(func(a *core.Authorizer) (*core.MaskPlan, error) { return a.ReferencePlan(user, psj) })
	return
}

// checkPlansAgree is the differential: identical plans without a budget,
// and under a tight one the planner succeeds wherever the reference does,
// with that same plan.
func checkPlansAgree(t *testing.T, label string, f *workload.Fixture, user string, psj *algebra.PSJ, opt core.Options, budget int64) {
	t.Helper()
	planned, reference, perr, rerr := bothPlans(f, user, psj, opt, guard.Unlimited())
	if perr != nil || rerr != nil {
		t.Fatalf("%s: planner error %v, reference error %v", label, perr, rerr)
	}
	want := planText(reference)
	if got := planText(planned); got != want {
		t.Fatalf("%s: planner and reference disagree\noptions %+v\nquery %s\nplanner:\n%s\nreference:\n%s",
			label, opt, psj, got, want)
	}
	if planned.MetaTuples > reference.MetaTuples {
		t.Fatalf("%s: planner materialized %d meta-tuples, reference %d", label, planned.MetaTuples, reference.MetaTuples)
	}
	tight, _, perr, rerr := bothPlans(f, user, psj, opt, guard.Limits{MaxIntermediateRows: budget})
	if rerr == nil && perr != nil {
		t.Fatalf("%s: budget %d: reference succeeded, planner failed: %v", label, budget, perr)
	}
	if perr != nil && !errors.Is(perr, guard.ErrBudgetExceeded) {
		t.Fatalf("%s: budget %d: planner error %v", label, budget, perr)
	}
	if perr == nil && planText(tight) != want {
		t.Fatalf("%s: budget %d changed the planner's mask", label, budget)
	}
}

// randDisjunctiveView defines a two-branch view over R, one branch
// optionally joined to S.
func randDisjunctiveView(f *workload.Fixture, rng *rand.Rand, idx int) {
	name := fmt.Sprintf("D%d", idx)
	cols := "R.A, R.C"
	first := fmt.Sprintf("R.C >= %d", rng.Intn(6))
	if rng.Intn(2) == 0 {
		cols += ", S.E"
		first += " and R.B = S.D"
	}
	stmt := fmt.Sprintf("view %s (%s) where %s or R.C = %d", name, cols, first, rng.Intn(6))
	if err := tryExec(f, stmt+"; permit "+name+" to u;"); err != nil {
		// A branch that does not mention S cannot project S.E.
		f.MustExec(fmt.Sprintf("view %s (R.A, R.C) where R.C >= %d or R.B = %d; permit %s to u;",
			name, rng.Intn(6), rng.Intn(6), name))
	}
}

// randThreeScanQuery joins two occurrences of R and S, so that a view's
// references can be supplied before, at, or after the scan needing them.
func randThreeScanQuery(rng *rand.Rand) *cview.Def {
	def := randSelfJoinQuery(rng)
	def.Cols = append(def.Cols, cview.ColRef{Alias: "S", Attr: []string{"D", "E"}[rng.Intn(2)]})
	if rng.Intn(3) != 0 {
		def.Where = append(def.Where, cview.Cond{
			L: cview.ColRef{Alias: []string{"R:1", "R:2"}[rng.Intn(2)], Attr: "B"}, Op: value.EQ,
			R: cview.ColTerm("S", "D"),
		})
	}
	if rng.Intn(3) == 0 {
		def.Where = append(def.Where, cview.Cond{
			L: cview.ColRef{Alias: "S", Attr: "E"}, Op: value.LE,
			R: cview.ConstTerm(value.Int(int64(rng.Intn(6)))),
		})
	}
	return def
}

// randBoundedJoinView defines a view whose join variable carries an
// interval, so that a selection on one of its occurrences narrows or
// clears the constraint the other occurrence's selection then meets.
func randBoundedJoinView(f *workload.Fixture, rng *rand.Rand, idx int) {
	name := fmt.Sprintf("B%d", idx)
	cols := []string{"R.A"}
	for _, c := range []string{"R.B", "R.C", "S.D", "S.E"} {
		if rng.Intn(2) == 0 {
			cols = append(cols, c)
		}
	}
	ops := []string{">=", "<=", ">", "<", "=", "!="}
	stmt := fmt.Sprintf("view %s (%s) where R.B = S.D and R.B %s %d", name, join(cols), ops[rng.Intn(4)], rng.Intn(6))
	if rng.Intn(2) == 0 {
		stmt += fmt.Sprintf(" and S.E %s %d", ops[rng.Intn(len(ops))], rng.Intn(6))
	}
	if rng.Intn(3) == 0 {
		stmt += fmt.Sprintf(" and R.C %s %d", ops[rng.Intn(len(ops))], rng.Intn(6))
	}
	f.MustExec(stmt + "; permit " + name + " to u;")
}

// randDenseQuery selects densely on a few attributes — several constant
// comparisons may land on one of them, and they may be compared with each
// other — and projects a random subset. With wide it ranges over R.B, R.C
// and S.D, S.E; without, over R alone.
func randDenseQuery(rng *rand.Rand, wide bool) *cview.Def {
	all := []cview.ColRef{{Alias: "R", Attr: "A"}, {Alias: "R", Attr: "B"}, {Alias: "R", Attr: "C"}}
	if wide {
		all = append(all, cview.ColRef{Alias: "S", Attr: "D"}, cview.ColRef{Alias: "S", Attr: "E"})
	}
	def := &cview.Def{}
	for _, c := range all {
		if rng.Intn(2) == 0 {
			def.Cols = append(def.Cols, c)
		}
	}
	if len(def.Cols) == 0 {
		def.Cols = all[:1]
	}
	// Two attributes take every constant comparison, so that they collide.
	hot := [2]cview.ColRef{all[1+rng.Intn(len(all)-1)], all[1+rng.Intn(len(all)-1)]}
	for n := rng.Intn(4); n > 0; n-- {
		def.Where = append(def.Where, cview.Cond{
			L: hot[rng.Intn(2)], Op: value.Comparators[rng.Intn(len(value.Comparators))],
			R: cview.ConstTerm(value.Int(int64(rng.Intn(6)))),
		})
	}
	if hot[0] != hot[1] && rng.Intn(2) == 0 {
		def.Where = append(def.Where, cview.Cond{L: hot[0], Op: value.EQ, R: cview.ColTerm(hot[1].Alias, hot[1].Attr)})
	}
	if l, r := all[rng.Intn(len(all))], all[rng.Intn(len(all))]; l != r && rng.Intn(3) == 0 {
		def.Where = append(def.Where, cview.Cond{
			L: l, Op: value.Comparators[rng.Intn(len(value.Comparators))], R: cview.ColTerm(r.Alias, r.Attr),
		})
	}
	return def
}

// TestMetaPlanMatchesReference is the planner's proof: over random view
// sets (conjunctive, self-joining, disjunctive), random queries of one to
// three scans and every switch of the §4.2 refinements, and over the
// paper's examples at paper scale and on the benchmark's 28-view fixture,
// the planned meta side and §4.1's order compile the same plan.
func TestMetaPlanMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	for iter := 0; iter < 2000; iter++ {
		f := soundFixture(rng, 0)
		nViews := 1 + rng.Intn(5)
		for i := 0; i < nViews; i++ {
			randJoinView(f, rng, i)
		}
		if rng.Intn(2) == 0 {
			randSelfJoinView(f, rng, nViews)
		}
		if rng.Intn(3) == 0 {
			randDisjunctiveView(f, rng, nViews)
		}
		for i := rng.Intn(3); i > 0; i-- {
			randBoundedJoinView(f, rng, i)
		}
		var def *cview.Def
		switch iter % 5 {
		case 0:
			def = randQueryDef(rng)
		case 1:
			def = randSelfJoinQuery(rng)
		case 2:
			def = randThreeScanQuery(rng)
		default:
			def = randDenseQuery(rng, iter%5 == 3)
		}
		an, err := cview.Analyze(def, f.Schema)
		if err != nil {
			t.Fatal(err)
		}
		if len(an.PSJ.Scans) == 1 && rng.Intn(2) == 0 {
			// A bare attribute names the same column as its qualified
			// form, so the selections may meet one cell twice.
			psj := *an.PSJ
			psj.Preds = append([]algebra.Atom(nil), psj.Preds...)
			for i := range psj.Preds {
				if !psj.Preds[i].R.IsAttr && rng.Intn(2) == 0 {
					psj.Preds[i].L = psj.Preds[i].L[strings.LastIndexByte(psj.Preds[i].L, '.')+1:]
				}
			}
			an.PSJ = &psj
		}
		opt := randOptions(rng)
		opt.ViewCopies = 1 + rng.Intn(3)
		checkPlansAgree(t, fmt.Sprintf("iter %d", iter), f, "u", an.PSJ, opt, int64(1+rng.Intn(60)))
	}

	// One cell met by two constant selections, the first of which clears
	// the constraint the second would have contradicted.
	twice := soundFixture(rng, 0)
	twice.MustExec("view V (R.A, R.C) where R.C = 3; permit V to u;")
	checkPlansAgree(t, "cell selected twice", twice, "u", &algebra.PSJ{
		Scans: []algebra.Scan{{Rel: "R", Alias: "R"}},
		Preds: []algebra.Atom{
			{L: "R.C", Op: value.EQ, R: algebra.Operand{Const: value.Int(3)}},
			{L: "C", Op: value.LE, R: algebra.Operand{Const: value.Int(2)}},
		},
		Cols: []string{"R.A", "R.C"},
	}, core.DefaultOptions(), 10)

	examples := []struct{ name, query string }{
		{"example1", workload.Example1Query},
		{"example2", workload.Example2Query},
		{"example3", workload.Example3Query},
	}
	paper := workload.Paper()
	wide := workload.NewFixture()
	wide.MustExec(fixture.PaperScript(fixture.PaperScale{}))
	for _, ex := range examples {
		an, err := cview.Analyze(workload.MustQuery(ex.query), paper.Schema)
		if err != nil {
			t.Fatal(err)
		}
		for _, user := range []string{"Brown", "Klein"} {
			// Every switch combination at paper scale; on the 28-view
			// fixture, where one reference run costs tens of
			// milliseconds, the defaults and a seeded sample.
			for bits := 0; bits < 1<<5; bits++ {
				for copies := 1; copies <= 3; copies++ {
					opt := core.DefaultOptions()
					opt.Padding = bits&1 != 0
					opt.FourCase = bits&2 != 0
					opt.SelfJoins = bits&4 != 0
					opt.Subsume = bits&8 != 0
					opt.ExtendedMasks = bits&16 != 0
					opt.ViewCopies = copies
					label := fmt.Sprintf("%s/%s/bits=%d/copies=%d", ex.name, user, bits, copies)
					checkPlansAgree(t, "paper/"+label, paper, user, an.PSJ, opt, int64(1+rng.Intn(30)))
					if (bits == 15 && copies == 2) || rng.Intn(32) == 0 {
						checkPlansAgree(t, "28views/"+label, wide, user, an.PSJ, opt, int64(1+rng.Intn(2000)))
					}
				}
			}
		}
	}
}

// TestMetaPlanWorkBound counts work, not time: on the 28-view fixture
// with nothing cached, the planner's whole retrieval accounts at most a
// tenth of the rows the reference's does, and a canceled context is
// noticed by the planner even when it produces less than one guard batch.
func TestMetaPlanWorkBound(t *testing.T) {
	f := workload.NewFixture()
	f.MustExec(fixture.PaperScript(fixture.PaperScale{}))
	for _, c := range []struct{ name, query string }{
		{"example2", workload.Example2Query},
		{"example3", workload.Example3Query},
	} {
		def := workload.MustQuery(c.query)
		produced := func(run func(*core.Authorizer) (*core.Decision, error)) int64 {
			auth := core.NewAuthorizer(f.Store, f.Source, core.DefaultOptions())
			auth.Guard = guard.New(context.Background(), guard.Unlimited())
			if _, err := run(auth); err != nil {
				t.Fatal(err)
			}
			return auth.Guard.Produced()
		}
		planned := produced(func(a *core.Authorizer) (*core.Decision, error) { return a.Retrieve("Brown", def) })
		reference := produced(func(a *core.Authorizer) (*core.Decision, error) { return a.Explain("Brown", def, nil) })
		if planned*10 > reference {
			t.Errorf("%s: planner accounted %d rows, reference %d: more than a tenth", c.name, planned, reference)
		}

		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		an, err := cview.Analyze(def, f.Schema)
		if err != nil {
			t.Fatal(err)
		}
		auth := core.NewAuthorizer(f.Store, f.Source, core.DefaultOptions())
		auth.Guard = guard.New(ctx, guard.Unlimited())
		if _, err := auth.MaskPlanFor("Brown", an.PSJ); !errors.Is(err, guard.ErrCanceled) {
			t.Errorf("%s: planner under a canceled context returned %v", c.name, err)
		}
	}
}
