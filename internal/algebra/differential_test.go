package algebra

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"authdb/internal/guard"
	"authdb/internal/relation"
	"authdb/internal/value"
)

// The differential harness: randomized databases and PSJ plans, each
// evaluated through two evaluator families — naive and indexed
// (EvalPSJ: pushdown, secondary-index access paths, hash and index
// joins, stats-informed ordering) — with the results cross-checked for
// set equality. Under a budget each family must either
// return exactly its own unbudgeted result, tuple for tuple, or fail
// with ErrBudgetExceeded; across families only set equality holds (the
// evaluators materialize different intermediates by design, so their
// budget trip points differ). The fused (mask pushdown) family is
// cross-checked at the core layer, where masks exist
// (internal/core/pushdown_test.go).

// diffCase is one randomized database plus a plan over it.
type diffCase struct {
	rels map[string]*relation.Relation
	plan *PSJ
}

const diffDomain = 8

// stringCol reports whether payload column j of a generated relation
// carries strings: odd payload columns do, so plans mix int and string
// comparisons and range atoms cross the kind-major order boundary.
func stringCol(j int) bool { return j > 0 && j%2 == 1 }

// collidingPairs are two (column 1, column 3) payloads that differ but
// that a key joining each cell's kind byte, printed value and a zero
// byte would encode alike; a join on both columns must not match them.
var collidingPairs = [2][2]string{{"x\x00\x02y", "z"}, {"x", "y\x00\x02z"}}

// genRel builds a relation with a sequential int key attribute and
// random payloads — int on even columns, string on odd ones — so row
// counts are exact, joins hit, and both value kinds are exercised. A
// relation wide enough sometimes holds a colliding pair in payload
// columns 1 and 3.
func genRel(rng *rand.Rand, name string, arity, rows int) *relation.Relation {
	attrs := make([]string, arity)
	for j := range attrs {
		attrs[j] = fmt.Sprintf("A%d", j)
	}
	r := relation.NewSet(attrs, rows)
	for i := 0; i < rows; i++ {
		t := make(relation.Tuple, arity)
		t[0] = value.Int(int64(i))
		for j := 1; j < arity; j++ {
			if stringCol(j) {
				t[j] = value.String(fmt.Sprintf("s%d", rng.Intn(diffDomain)))
			} else {
				t[j] = value.Int(int64(rng.Intn(diffDomain)))
			}
		}
		if arity > 3 && rng.Intn(4) == 0 {
			pair := collidingPairs[rng.Intn(2)]
			t[1], t[3] = value.String(pair[0]), value.String(pair[1])
		}
		r.Add(t)
	}
	return r.Relation()
}

var diffOps = []value.Cmp{value.EQ, value.NE, value.LT, value.LE, value.GT, value.GE}

// genConst picks a constant for an atom over column a: usually of the
// column's kind (so predicates select meaningfully), sometimes of the
// other kind (so comparisons at the int/string boundary are covered).
func genConst(rng *rand.Rand, a, dom int) value.Value {
	crossKind := rng.Float64() < 0.1
	if stringCol(a) != crossKind {
		return value.String(fmt.Sprintf("s%d", rng.Intn(dom)))
	}
	return value.Int(int64(rng.Intn(dom)))
}

// genCase builds a random plan: 1–3 scans (relations may repeat, so
// self-products occur), equality atoms between adjacent scans —
// sometimes two, on the payload columns colliding pairs occupy —
// constant atoms over all six comparators, and a random projection.
func genCase(rng *rand.Rand, bigRows int) diffCase {
	nRels := 2 + rng.Intn(2)
	rels := make(map[string]*relation.Relation, nRels)
	names := make([]string, nRels)
	rowCounts := make([]int, nRels)
	for i := 0; i < nRels; i++ {
		names[i] = fmt.Sprintf("R%d", i)
		arity := 2 + rng.Intn(3)
		rows := 4 + rng.Intn(16)
		if bigRows > 0 && i == 0 {
			arity = 3
			rows = bigRows
		}
		rels[names[i]] = genRel(rng, names[i], arity, rows)
		rowCounts[i] = rows
	}
	nScans := 1 + rng.Intn(3)
	if bigRows > 0 {
		nScans = 2
	}
	p := &PSJ{}
	var attrs []string
	scanRel := make([]int, nScans)
	for s := 0; s < nScans; s++ {
		ri := rng.Intn(nRels)
		if bigRows > 0 {
			// Exactly one scan of the big relation; the rest stay small.
			if s == 0 {
				ri = 0
			} else {
				ri = 1 + rng.Intn(nRels-1)
			}
		}
		scanRel[s] = ri
		alias := fmt.Sprintf("T%d", s)
		p.Scans = append(p.Scans, Scan{Rel: names[ri], Alias: alias})
		attrs = append(attrs, relation.QualifyAttrs(alias, rels[names[ri]].Attrs)...)
	}
	qual := func(s int, a int) string {
		return fmt.Sprintf("T%d.A%d", s, a)
	}
	arityOf := func(s int) int { return rels[names[scanRel[s]]].Arity() }
	for s := 1; s < nScans; s++ {
		if rng.Float64() < 0.7 {
			p.Preds = append(p.Preds, Atom{
				L:  qual(s-1, rng.Intn(arityOf(s-1))),
				Op: value.EQ,
				R:  AttrOp(qual(s, rng.Intn(arityOf(s)))),
			})
		}
		if arityOf(s-1) > 3 && arityOf(s) > 3 && rng.Intn(4) == 0 {
			for _, a := range []int{1, 3} {
				p.Preds = append(p.Preds, Atom{L: qual(s-1, a), Op: value.EQ, R: AttrOp(qual(s, a))})
			}
		}
	}
	for k := rng.Intn(4); k > 0; k-- {
		s := rng.Intn(nScans)
		a := rng.Intn(arityOf(s))
		dom := diffDomain
		if a == 0 {
			dom = rowCounts[scanRel[s]]
		}
		p.Preds = append(p.Preds, Atom{
			L:  qual(s, a),
			Op: diffOps[rng.Intn(len(diffOps))],
			R:  ConstOp(genConst(rng, a, dom)),
		})
	}
	perm := rng.Perm(len(attrs))
	nCols := 1 + rng.Intn(len(attrs))
	for _, i := range perm[:nCols] {
		p.Cols = append(p.Cols, attrs[i])
	}
	return diffCase{rels: rels, plan: p}
}

// family is one evaluator strategy under differential test.
type family int

const (
	famNaive   family = iota // EvalNaive: the normal form, literally
	famIndexed               // EvalPSJ: range scans, index joins, stats
)

var families = []family{famNaive, famIndexed}

func (f family) String() string {
	return [...]string{"naive", "indexed"}[f]
}

// evalWays runs the plan with the given limits through one family.
func evalWays(c diffCase, f family, limits guard.Limits) (*relation.Relation, error) {
	g := guard.New(context.Background(), limits)
	src := MapSource(c.rels)
	switch f {
	case famNaive:
		return EvalNaive(c.plan, src, g)
	default:
		return EvalPSJ(c.plan, src, g, ExecOptions{UseIndexes: true}, nil)
	}
}

// checkCase cross-checks the two families on one case and, when
// budgets is non-empty, each family under every budget.
func checkCase(t *testing.T, c diffCase, budgets []int64) {
	t.Helper()
	checkFamilies(t, c, families, budgets)
}

// checkFamilies is checkCase over a subset of the families; the first
// one is the reference the others must be set-equal to. Under each
// budget a family must return exactly its unbudgeted result or fail
// with ErrBudgetExceeded, and nothing else.
func checkFamilies(t *testing.T, c diffCase, fams []family, budgets []int64) {
	t.Helper()
	results := make([]*relation.Relation, len(fams))
	for k, f := range fams {
		r, err := evalWays(c, f, guard.Limits{})
		if err != nil {
			t.Fatalf("%s: %v (plan %s)", f, err, c.plan)
		}
		results[k] = r
	}
	for k, f := range fams[1:] {
		if !results[0].Equal(results[k+1]) {
			t.Fatalf("%s and %s disagree on plan %s:\n%s %d tuples, %s %d tuples",
				fams[0], f, c.plan, fams[0], results[0].Len(), f, results[k+1].Len())
		}
	}

	for _, b := range budgets {
		for k, f := range fams {
			r, err := evalWays(c, f, guard.Limits{MaxIntermediateRows: b})
			if err != nil {
				if !errors.Is(err, guard.ErrBudgetExceeded) {
					t.Fatalf("%s budget %d: unexpected error %v (plan %s)", f, b, err, c.plan)
				}
				continue
			}
			if err := relationsEqualExact(results[k], r); err != nil {
				t.Fatalf("%s budget %d: result differs from the unbudgeted one: %v (plan %s)", f, b, err, c.plan)
			}
		}
	}
}

// TestDifferentialRandomized runs 1000 randomized small cases through
// the two families, with budgets probed on every tenth.
func TestDifferentialRandomized(t *testing.T) {
	const cases = 1000
	for i := 0; i < cases; i++ {
		rng := rand.New(rand.NewSource(int64(1000 + i)))
		c := genCase(rng, 0)
		var budgets []int64
		if i%10 == 0 {
			budgets = []int64{37, 500}
		}
		checkCase(t, c, budgets)
	}
}

// genProbeCase builds a case the residual-probe path can take: a small
// outer scan joined by an equality to a scan of a relation of at least
// indexJoinMinInner rows carrying one to three constant atoms, which an
// index join checks per candidate instead of materializing the scan;
// sometimes a third small scan joins the inner. With large, the outer
// has at least largeOuterRows rows, the inner is four times bigger (no
// equality atom may shrink its estimate), and the join runs on the
// inner's key; the naive family, whose product would be millions of
// rows, then sits out.
func genProbeCase(rng *rand.Rand, large bool) diffCase {
	const largeOuterRows = 1024
	outerRows, innerRows := 4+rng.Intn(16), 96+rng.Intn(160)
	if large {
		outerRows, innerRows = largeOuterRows+rng.Intn(64), 4*largeOuterRows+256+rng.Intn(256)
	}
	rels := map[string]*relation.Relation{
		"R0": genRel(rng, "R0", 2+rng.Intn(3), outerRows),
		"R1": genRel(rng, "R1", 3, innerRows),
	}
	p := &PSJ{Scans: []Scan{{Rel: "R0", Alias: "T0"}, {Rel: "R1", Alias: "T1"}}}
	ol, il := rng.Intn(rels["R0"].Arity()), rng.Intn(3)
	if large {
		ol, il = 0, 0
	}
	p.Preds = append(p.Preds, Atom{L: fmt.Sprintf("T0.A%d", ol), Op: value.EQ, R: AttrOp(fmt.Sprintf("T1.A%d", il))})
	for k := 1 + rng.Intn(3); k > 0; k-- {
		a := rng.Intn(3)
		dom := diffDomain
		if a == 0 {
			dom = innerRows
		}
		op := diffOps[rng.Intn(len(diffOps))]
		if large && op == value.EQ {
			op = value.NE
		}
		p.Preds = append(p.Preds, Atom{L: fmt.Sprintf("T1.A%d", a), Op: op, R: ConstOp(genConst(rng, a, dom))})
	}
	if !large && rng.Float64() < 0.3 {
		rels["R2"] = genRel(rng, "R2", 2, 4+rng.Intn(16))
		p.Scans = append(p.Scans, Scan{Rel: "R2", Alias: "T2"})
		p.Preds = append(p.Preds, Atom{L: fmt.Sprintf("T1.A%d", rng.Intn(3)), Op: value.EQ,
			R: AttrOp(fmt.Sprintf("T2.A%d", rng.Intn(2)))})
	}
	var attrs []string
	for _, sc := range p.Scans {
		attrs = append(attrs, relation.QualifyAttrs(sc.Alias, rels[sc.Rel].Attrs)...)
	}
	perm := rng.Perm(len(attrs))
	for _, i := range perm[:1+rng.Intn(len(attrs))] {
		p.Cols = append(p.Cols, attrs[i])
	}
	return diffCase{rels: rels, plan: p}
}

// residualProbed reports whether the indexed evaluator reached some scan
// of the case through an index probe that checked the scan's own atoms.
func residualProbed(t *testing.T, c diffCase) bool {
	t.Helper()
	var tr Trace
	if _, err := EvalPSJ(c.plan, MapSource(c.rels), nil, ExecOptions{UseIndexes: true}, &tr); err != nil {
		t.Fatalf("traced indexed: %v (plan %s)", err, c.plan)
	}
	for _, sc := range tr.Scans {
		if sc.Path == PathIndexProbe && len(sc.Atoms) > 0 {
			return true
		}
	}
	return false
}

// TestDifferentialResidualProbe runs the probe family through the two
// families, with budgets probed on every fifth case, and
// checks through the trace that the residual probe really is the path
// under test: at least a tenth of the cases must take it.
func TestDifferentialResidualProbe(t *testing.T) {
	const cases = 300
	probed := 0
	for i := 0; i < cases; i++ {
		rng := rand.New(rand.NewSource(int64(20_000 + i)))
		c := genProbeCase(rng, false)
		var budgets []int64
		if i%5 == 0 {
			budgets = []int64{37, 500}
		}
		checkCase(t, c, budgets)
		if residualProbed(t, c) {
			probed++
		}
	}
	if probed < cases/10 {
		t.Fatalf("only %d of %d cases took a residual index probe", probed, cases)
	}
	t.Logf("%d of %d cases took a residual index probe", probed, cases)
}

// TestDifferentialResidualProbeLarge probes with an outer of over a
// thousand rows and a residual to check: the indexed family agrees as a
// set with a nested-loop walk of the product, and under each budget
// returns its own result or fails cleanly.
func TestDifferentialResidualProbeLarge(t *testing.T) {
	cases := 6
	if testing.Short() {
		cases = 2
	}
	for i := 0; i < cases; i++ {
		rng := rand.New(rand.NewSource(int64(21_000 + i)))
		c := genProbeCase(rng, true)
		if !residualProbed(t, c) {
			t.Fatalf("case %d did not take a residual index probe (plan %s)", i, c.plan)
		}
		checkFamilies(t, c, []family{famIndexed}, []int64{900, 1500, 20000})
		want, err := nestedLoop(c)
		if err != nil {
			t.Fatal(err)
		}
		got, err := evalWays(c, famIndexed, guard.Limits{})
		if err != nil {
			t.Fatal(err)
		}
		if !want.Equal(got) {
			t.Fatalf("indexed and nested loop disagree on plan %s: %d vs %d tuples", c.plan, got.Len(), want.Len())
		}
	}
}

// nestedLoop is the reference for plans too large for the naive family:
// the product is walked one row at a time, never materialized, and each
// row that satisfies the predicates is projected.
func nestedLoop(c diffCase) (*relation.Relation, error) {
	var rels []*relation.Relation
	var attrs []string
	for _, sc := range c.plan.Scans {
		r := c.rels[sc.Rel]
		rels = append(rels, r)
		attrs = append(attrs, relation.QualifyAttrs(sc.Alias, r.Attrs)...)
	}
	pred, err := CompilePred(attrs, c.plan.Preds)
	if err != nil {
		return nil, err
	}
	idx := make([]int, len(c.plan.Cols))
	for i, col := range c.plan.Cols {
		if idx[i], err = resolve(attrs, col); err != nil {
			return nil, err
		}
	}
	out := relation.NewSet(c.plan.Cols, 0)
	row := make(relation.Tuple, 0, len(attrs))
	var walk func(k int)
	walk = func(k int) {
		if k == len(rels) {
			if pred(row) {
				p := make(relation.Tuple, len(idx))
				for i, j := range idx {
					p[i] = row[j]
				}
				out.Add(p)
			}
			return
		}
		for _, t := range rels[k].Tuples() {
			n := len(row)
			row = append(row, t...)
			walk(k + 1)
			row = row[:n]
		}
	}
	walk(0)
	return out.Relation(), nil
}

// relationsEqualExact reports whether two relations are identical tuple
// for tuple (attributes, order, values). It returns an error rather than
// failing the test so reader goroutines, where t.Fatalf is not allowed,
// can call it.
func relationsEqualExact(a, b *relation.Relation) error {
	if len(a.Attrs) != len(b.Attrs) {
		return fmt.Errorf("attrs differ: %v vs %v", a.Attrs, b.Attrs)
	}
	for i := range a.Attrs {
		if a.Attrs[i] != b.Attrs[i] {
			return fmt.Errorf("attrs differ: %v vs %v", a.Attrs, b.Attrs)
		}
	}
	at, bt := a.Tuples(), b.Tuples()
	if len(at) != len(bt) {
		return fmt.Errorf("cardinality differs: %d vs %d", len(at), len(bt))
	}
	for i := range at {
		if !at[i].Equal(bt[i]) {
			return fmt.Errorf("tuple %d differs: %v vs %v", i, at[i], bt[i])
		}
	}
	return nil
}

// mutateVersioned applies one random mutation round to the versioned
// database: a handful of inserts with fresh keys (so they always land)
// and occasionally a delete by key residue. seq supplies fresh key
// values and advances past every key ever used.
func mutateVersioned(rng *rand.Rand, vrels map[string]*relation.Versioned, names []string, seq *int64) {
	for k := 2 + rng.Intn(3); k > 0; k-- {
		name := names[rng.Intn(len(names))]
		vr := vrels[name]
		tup := make(relation.Tuple, vr.Arity())
		*seq++
		tup[0] = value.Int(*seq)
		for j := 1; j < vr.Arity(); j++ {
			if stringCol(j) {
				tup[j] = value.String(fmt.Sprintf("s%d", rng.Intn(diffDomain)))
			} else {
				tup[j] = value.Int(int64(rng.Intn(diffDomain)))
			}
		}
		if _, err := vr.Insert(tup); err != nil {
			panic(err)
		}
	}
	if rng.Float64() < 0.4 {
		name := names[rng.Intn(len(names))]
		res := int64(rng.Intn(5))
		vrels[name].Delete(func(t relation.Tuple) bool { return t[0].AsInt()%5 == res })
	}
}

// TestDifferentialSnapshotReaders is the MVCC differential: a versioned
// database advances through a lineage of revisions while concurrent
// readers stay pinned at the version they captured. Every reader's
// answer — through every evaluator family — must be tuple-for-tuple
// identical to an evaluation at that version computed before any
// concurrency began. The writer keeps mutating
// (advancing the shared append frontier past every pinned prefix)
// while the readers run, so under -race this also proves pinned
// evaluation never touches writer state.
func TestDifferentialSnapshotReaders(t *testing.T) {
	cases := 8
	if testing.Short() {
		cases = 3
	}
	const nVersions = 6
	for ci := 0; ci < cases; ci++ {
		rng := rand.New(rand.NewSource(int64(5000 + ci)))
		c := genCase(rng, 0)

		vrels := make(map[string]*relation.Versioned, len(c.rels))
		var names []string
		for n, r := range c.rels {
			vrels[n] = relation.VersionedOf(r)
			names = append(names, n)
		}
		sort.Strings(names)
		seq := int64(10_000) // beyond any generated key

		pin := func() map[string]*relation.Relation {
			heads := make(map[string]*relation.Relation, len(vrels))
			for n, vr := range vrels {
				heads[n] = vr.Head()
			}
			return heads
		}

		versions := []map[string]*relation.Relation{pin()}
		for v := 1; v < nVersions; v++ {
			mutateVersioned(rng, vrels, names, &seq)
			versions = append(versions, pin())
		}

		// Ground truth per (version, family), before any concurrency.
		expected := make([][]*relation.Relation, len(versions))
		for vi, heads := range versions {
			expected[vi] = make([]*relation.Relation, len(families))
			for _, f := range families {
				r, err := evalWays(diffCase{rels: heads, plan: c.plan}, f, guard.Limits{})
				if err != nil {
					t.Fatalf("case %d version %d %s: %v (plan %s)", ci, vi, f, err, c.plan)
				}
				expected[vi][f] = r
			}
		}

		// Concurrency: one writer keeps advancing the lineage; readers
		// re-evaluate at their pinned versions and must reproduce the
		// ground truth exactly.
		stop := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() { // writer
			defer wg.Done()
			wrng := rand.New(rand.NewSource(int64(7000 + ci)))
			for i := 0; i < 60; i++ {
				select {
				case <-stop:
					return
				default:
				}
				mutateVersioned(wrng, vrels, names, &seq)
			}
		}()
		errs := make(chan error, 16)
		for r := 0; r < 4; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				rrng := rand.New(rand.NewSource(int64(8000 + 100*ci + r)))
				for i := 0; i < 6; i++ {
					vi := rrng.Intn(len(versions))
					f := families[rrng.Intn(len(families))]
					got, err := evalWays(diffCase{rels: versions[vi], plan: c.plan}, f, guard.Limits{})
					if err != nil {
						errs <- fmt.Errorf("case %d version %d %s: %v", ci, vi, f, err)
						return
					}
					if err := relationsEqualExact(expected[vi][f], got); err != nil {
						errs <- fmt.Errorf("case %d version %d %s: pinned read diverged from ground truth: %v", ci, vi, f, err)
						return
					}
				}
			}(r)
		}
		wg.Wait()
		close(stop)
		close(errs)
		for err := range errs {
			t.Error(err)
		}
	}
}

// TestDifferentialLarge runs cases with one relation of 1200–1800 rows,
// so products, selections, hash-join probes and index-join probes run
// over inputs a thousand rows wide and budgets trip mid-operator.
func TestDifferentialLarge(t *testing.T) {
	cases := 24
	if testing.Short() {
		cases = 6
	}
	for i := 0; i < cases; i++ {
		rng := rand.New(rand.NewSource(int64(9000 + i)))
		c := genCase(rng, 1200+rng.Intn(600))
		checkCase(t, c, []int64{1000, 20000})
	}
}
