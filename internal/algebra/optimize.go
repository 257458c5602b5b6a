package algebra

import (
	"fmt"

	"authdb/internal/guard"
	"authdb/internal/relation"
	"authdb/internal/value"
)

// indexJoinMinInner is the smallest inner side for which a join probes
// the base relation directly, checking the scan's own atoms per
// candidate: below it materializing the scan first costs as little.
const indexJoinMinInner = 64

// EvalPSJ evaluates a PSJ query choosing an access path per scan and a
// strategy per join step, recording its decisions in tr (nil disables).
//
// Per scan: an equality-with-constant atom is served from the relation's
// lazily built secondary hash index; otherwise comparison-with-constant
// atoms on one attribute fold into a single ordered-index range lookup;
// otherwise the scan is full, with the local predicate evaluated per row.
// Joins run greedily left-deep, ordered by cardinality estimates over
// the base relations. A step connected by equalities is an index
// nested-loop join: it probes either a base relation's persistent hash
// index, checking the scan's own atoms per candidate, or — the trace's
// "hash join" — the value-keyed index of the materialized scan. A step
// no equality connects is a guarded cartesian product. All paths
// account rows against the same guard. opt has no effect.
//
// A scan is lazy: only the start of the join is materialized up front.
// A later scan that is joined in by an equality from an outer at most a
// quarter of its estimate is never materialized at all — the index join
// reads just the candidates its probes return — and any other is
// materialized when it is joined in.
func EvalPSJ(p *PSJ, src Source, g *guard.Guard, opt ExecOptions, tr *Trace) (*relation.Relation, error) {
	if len(p.Scans) == 0 {
		return nil, fmt.Errorf("empty query")
	}
	// Each scan starts as the shared base rename, so index lookups on it
	// hit the base relation's persistent per-revision cache.
	parts := make([]*scanPart, len(p.Scans))
	for i, s := range p.Scans {
		base, err := src(s.Rel)
		if err != nil {
			return nil, err
		}
		base = base.Rename(relation.QualifyAttrs(s.Alias, base.Attrs))
		parts[i] = &scanPart{base: base, rel: base, est: base.Len(),
			tr: ScanTrace{Alias: s.Alias, Rel: s.Rel, Path: PathFullScan, In: base.Len(), Out: base.Len()}}
	}
	var global []Atom
	for _, a := range p.Preds {
		if i, ok := atomScan(a, parts); ok {
			parts[i].local = append(parts[i].local, a)
		} else {
			global = append(global, a)
		}
	}
	for _, sp := range parts {
		if len(sp.local) > 0 {
			sp.rel, sp.est = nil, estimate(sp.base, sp.local)
		}
	}

	// Greedy left-deep join: the start is the part with the smallest
	// estimate and each step picks the connected part with the lowest
	// estimated output.
	start := 0
	for i := 1; i < len(parts); i++ {
		if parts[i].est < parts[start].est {
			start = i
		}
	}
	if err := parts[start].materialize(g); err != nil {
		return nil, err
	}
	cur := parts[start].rel
	used := make([]bool, len(parts))
	used[start] = true
	remainingEq, remainingOther := splitEq(global)
	for joined := 1; joined < len(parts); joined++ {
		next, eqs := pickNext(cur, parts, used, remainingEq)
		sp := parts[next]
		var err error
		kind := JoinProduct
		switch {
		case len(eqs) > 0 && sp.est >= indexJoinMinInner && cur.Len()*4 <= sp.est:
			// A small outer probes the base relation's persistent index;
			// the scan's own atoms, if any, filter the candidates, so the
			// scan itself is never materialized.
			kind = JoinIndex
			var probed int
			cur, probed, err = indexJoin(cur, sp.base, eqs, sp.local, g)
			sp.tr.Path, sp.tr.Atoms, sp.tr.Out = PathIndexProbe, atomStrings(sp.local), probed
		case len(eqs) > 0:
			kind = JoinHash
			if err = sp.materialize(g); err == nil {
				cur, _, err = indexJoin(cur, sp.rel, eqs, nil, g)
			}
		default:
			if err = sp.materialize(g); err == nil {
				cur, err = guardedProduct(cur, sp.rel, g)
			}
		}
		if err != nil {
			return nil, err
		}
		remainingEq = removeAtoms(remainingEq, eqs)
		used[next] = true
		tr.join(JoinTrace{Kind: kind, With: p.Scans[next].Alias, On: atomStrings(eqs), Out: cur.Len()})
		// Apply any remaining predicates that became resolvable.
		remainingEq, err = applyResolvable(&cur, remainingEq, g)
		if err != nil {
			return nil, err
		}
		remainingOther, err = applyResolvable(&cur, remainingOther, g)
		if err != nil {
			return nil, err
		}
	}
	for _, sp := range parts {
		tr.scan(sp.tr)
	}
	rest := append(append([]Atom(nil), remainingEq...), remainingOther...)
	if len(rest) > 0 {
		pred, err := CompilePred(cur.Attrs, rest)
		if err != nil {
			return nil, err
		}
		cur, err = guardedSelect(cur, pred, g)
		if err != nil {
			return nil, err
		}
	}
	idx := make([]int, len(p.Cols))
	for i, c := range p.Cols {
		j, err := resolve(cur.Attrs, c)
		if err != nil {
			return nil, err
		}
		idx[i] = j
	}
	return guardedProject(cur, idx, g)
}

// scanPart is one scan on its way into the join: the shared base rename,
// the atoms local to the scan, and the materialized part — the base
// itself when nothing is local, nil while a filtered scan is pending.
// est is the planner's size for the part (exact once materialized), and
// tr what the trace reports for the scan.
type scanPart struct {
	base, rel *relation.Relation
	local     []Atom
	est       int
	tr        ScanTrace
}

// materialize filters a pending scan by its local atoms through the
// access path applyLocal chooses; a materialized part is left alone.
func (sp *scanPart) materialize(g *guard.Guard) error {
	if sp.rel != nil {
		return nil
	}
	out, path, served, err := applyLocal(sp.base, sp.local, g)
	if err != nil {
		return err
	}
	sp.rel, sp.est = out, out.Len()
	sp.tr.Path, sp.tr.Atoms, sp.tr.Out = path, served, out.Len()
	return nil
}

// estimate sizes a pending scan without reading it: the run its hash-eq
// access path would read anyway (the same index lookup), else the whole
// base. No ordered index is built for an estimate.
func estimate(base *relation.Relation, atoms []Atom) int {
	if k := hashEqAtom(atoms); k >= 0 {
		if j, err := resolve(base.Attrs, atoms[k].L); err == nil {
			return len(base.LookupEq(j, atoms[k].R.Const))
		}
	}
	return base.Len()
}

// hashEqAtom returns the position of the atom the hash-eq path serves —
// the first equality with a constant — or -1.
func hashEqAtom(atoms []Atom) int {
	for k, a := range atoms {
		if a.Op == value.EQ && !a.R.IsAttr {
			return k
		}
	}
	return -1
}

// applyLocal filters one scan by its local atoms, choosing an access
// path: the first equality-with-constant atom is served from the
// secondary hash index; failing that, every <,≤,>,≥-with-constant atom
// on one attribute folds into a single ordered-index range lookup; and
// failing that the scan is full. Residual atoms are evaluated per
// retrieved row either way. It reports the path taken and the atoms the
// access path itself served.
func applyLocal(part *relation.Relation, atoms []Atom, g *guard.Guard) (*relation.Relation, string, []string, error) {
	if out, served, err := tryHashPath(part, atoms, g); out != nil || err != nil {
		return out, PathHashEq, served, err
	}
	if out, served, err := tryRangePath(part, atoms, g); out != nil || err != nil {
		return out, PathIndexRange, served, err
	}
	pred, err := CompilePred(part.Attrs, atoms)
	if err != nil {
		return nil, "", nil, err
	}
	out, err := guardedSelect(part, pred, g)
	return out, PathFullScan, nil, err
}

// tryHashPath serves the first equality-with-constant atom from the hash
// index; a nil relation with nil error means no such atom exists.
func tryHashPath(part *relation.Relation, atoms []Atom, g *guard.Guard) (*relation.Relation, []string, error) {
	eqAt := hashEqAtom(atoms)
	if eqAt < 0 {
		return nil, nil, nil
	}
	eqIdx, err := resolve(part.Attrs, atoms[eqAt].L)
	if err != nil {
		return nil, nil, err
	}
	rest := append(append([]Atom(nil), atoms[:eqAt]...), atoms[eqAt+1:]...)
	out, err := filterRun(part, part.LookupEq(eqIdx, atoms[eqAt].R.Const), rest, g)
	return out, []string{atoms[eqAt].String()}, err
}

// tryRangePath folds every <,≤,>,≥-with-constant atom on the attribute
// of the first such atom into one ordered-index range lookup; a nil
// relation with nil error means no range atom exists.
func tryRangePath(part *relation.Relation, atoms []Atom, g *guard.Guard) (*relation.Relation, []string, error) {
	isRange := func(op value.Cmp) bool {
		return op == value.LT || op == value.LE || op == value.GT || op == value.GE
	}
	at := -1
	for _, a := range atoms {
		if !a.R.IsAttr && isRange(a.Op) {
			j, err := resolve(part.Attrs, a.L)
			if err != nil {
				return nil, nil, err
			}
			at = j
			break
		}
	}
	if at < 0 {
		return nil, nil, nil
	}
	var lo, hi *relation.RangeEnd
	var served []string
	var rest []Atom
	for _, a := range atoms {
		use := false
		if !a.R.IsAttr && isRange(a.Op) {
			j, err := resolve(part.Attrs, a.L)
			if err != nil {
				return nil, nil, err
			}
			use = j == at
		}
		if !use {
			rest = append(rest, a)
			continue
		}
		served = append(served, a.String())
		v := a.R.Const
		switch a.Op {
		case value.GE:
			lo = tighterLo(lo, &relation.RangeEnd{V: v})
		case value.GT:
			lo = tighterLo(lo, &relation.RangeEnd{V: v, Open: true})
		case value.LE:
			hi = tighterHi(hi, &relation.RangeEnd{V: v})
		case value.LT:
			hi = tighterHi(hi, &relation.RangeEnd{V: v, Open: true})
		}
	}
	out, err := filterRun(part, part.LookupRange(at, lo, hi), rest, g)
	return out, served, err
}

// tighterLo keeps the more restrictive lower bound (higher value; open
// beats closed at equal values).
func tighterLo(cur, cand *relation.RangeEnd) *relation.RangeEnd {
	if cur == nil {
		return cand
	}
	switch d := cand.V.Compare(cur.V); {
	case d > 0, d == 0 && cand.Open:
		return cand
	}
	return cur
}

// tighterHi keeps the more restrictive upper bound (lower value; open
// beats closed at equal values).
func tighterHi(cur, cand *relation.RangeEnd) *relation.RangeEnd {
	if cur == nil {
		return cand
	}
	switch d := cand.V.Compare(cur.V); {
	case d < 0, d == 0 && cand.Open:
		return cand
	}
	return cur
}

// filterRun materializes an index run through the residual atoms,
// accounting every retrieved tuple against the guard.
func filterRun(part *relation.Relation, run []relation.Tuple, rest []Atom, g *guard.Guard) (*relation.Relation, error) {
	pred := func(relation.Tuple) bool { return true }
	if len(rest) > 0 {
		var err error
		pred, err = CompilePred(part.Attrs, rest)
		if err != nil {
			return nil, err
		}
	}
	out := relation.New(part.Attrs)
	for _, t := range run {
		if err := g.Add(1); err != nil {
			return nil, err
		}
		if pred(t) {
			// The run is a subslice of one relation's distinct tuples, so
			// the filtered output is duplicate-free: the no-dedup Append
			// path applies.
			out.Append(t)
		}
	}
	return out, nil
}

// atomScan reports which single scan an atom is local to, if any.
func atomScan(a Atom, parts []*scanPart) (int, bool) {
	li := findPart(parts, a.L)
	if li < 0 {
		return 0, false
	}
	if !a.R.IsAttr {
		return li, true
	}
	ri := findPart(parts, a.R.Attr)
	if ri == li {
		return li, true
	}
	return 0, false
}

func findPart(parts []*scanPart, attr string) int {
	for i, p := range parts {
		if hasAttr(p.base.Attrs, attr) {
			return i
		}
	}
	return -1
}

func hasAttr(attrs []string, a string) bool {
	for _, x := range attrs {
		if x == a {
			return true
		}
	}
	return false
}

func splitEq(atoms []Atom) (eq, other []Atom) {
	for _, a := range atoms {
		if a.Op == value.EQ && a.R.IsAttr {
			eq = append(eq, a)
		} else {
			other = append(other, a)
		}
	}
	return eq, other
}

// connAtoms returns the equality atoms relating cur to parts[i].
func connAtoms(cur, part *relation.Relation, eqs []Atom) []Atom {
	var conn []Atom
	for _, a := range eqs {
		l, r := a.L, a.R.Attr
		if (hasAttr(cur.Attrs, l) && hasAttr(part.Attrs, r)) ||
			(hasAttr(cur.Attrs, r) && hasAttr(part.Attrs, l)) {
			conn = append(conn, a)
		}
	}
	return conn
}

// pickNext chooses the next part by cardinality estimate: among the
// parts connected to cur by an equality, the one minimizing
// |cur|·est(part)/V(base, join key), with V the distinct-count statistic
// of the part's base relation — never of a filtered intermediate — and
// taken only when two or more parts compete; a part with no connecting
// equality (cartesian product) is a last resort, smallest first. Ties
// break on scan order, so the plan is deterministic.
func pickNext(cur *relation.Relation, parts []*scanPart, used []bool, eqs []Atom) (int, []Atom) {
	conns := make([][]Atom, len(parts))
	only, connected := -1, 0
	for i, sp := range parts {
		if !used[i] {
			if conns[i] = connAtoms(cur, sp.base, eqs); len(conns[i]) > 0 {
				only, connected = i, connected+1
			}
		}
	}
	if connected == 1 {
		return only, conns[only]
	}
	bestIdx := -1
	bestEst := 0.0
	for i, sp := range parts {
		if used[i] {
			continue
		}
		var est float64
		if len(conns[i]) > 0 {
			distinct := 1
			for _, a := range conns[i] {
				attr := a.R.Attr
				if hasAttr(sp.base.Attrs, a.L) {
					attr = a.L
				}
				if j, err := resolve(sp.base.Attrs, attr); err == nil {
					distinct = max(distinct, sp.base.DistinctCount(j))
				}
			}
			est = float64(cur.Len()) * float64(sp.est) / float64(distinct)
		} else {
			// No join key: a product. Rank it after every joinable part
			// by estimating the full cross size against the whole input.
			est = 1e18 + float64(cur.Len())*float64(sp.est)
		}
		if bestIdx < 0 || est < bestEst {
			bestIdx, bestEst = i, est
		}
	}
	return bestIdx, conns[bestIdx]
}

func removeAtoms(all, drop []Atom) []Atom {
	out := all[:0:0]
outer:
	for _, a := range all {
		for _, d := range drop {
			if a == d {
				continue outer
			}
		}
		out = append(out, a)
	}
	return out
}

// applyResolvable filters *cur by every atom fully resolvable against its
// attributes and returns the atoms that remain outstanding.
func applyResolvable(cur **relation.Relation, atoms []Atom, g *guard.Guard) ([]Atom, error) {
	var ready, notReady []Atom
	for _, a := range atoms {
		ok := hasAttr((*cur).Attrs, a.L) && (!a.R.IsAttr || hasAttr((*cur).Attrs, a.R.Attr))
		if ok {
			ready = append(ready, a)
		} else {
			notReady = append(notReady, a)
		}
	}
	if len(ready) > 0 {
		pred, err := CompilePred((*cur).Attrs, ready)
		if err == nil {
			sel, serr := guardedSelect(*cur, pred, g)
			if serr != nil {
				return nil, serr
			}
			*cur = sel
		} else {
			// Ambiguity means the atom was not truly resolvable; defer it.
			notReady = append(notReady, ready...)
		}
	}
	return notReady, nil
}

// joinCols resolves the equality atoms of a join into column index pairs
// (li in l, ri in r), flipping atoms written in the other orientation.
func joinCols(l, r *relation.Relation, eqs []Atom) (li, ri []int) {
	li = make([]int, len(eqs))
	ri = make([]int, len(eqs))
	for k, a := range eqs {
		x, y := a.L, a.R.Attr
		if !hasAttr(l.Attrs, x) {
			x, y = y, x
		}
		li[k] = mustIndex(l.Attrs, x)
		ri[k] = mustIndex(r.Attrs, y)
	}
	return li, ri
}

// indexJoin is an index nested-loop join: for each row of l it probes r's
// persistent secondary hash index on the first equality's column and
// checks each candidate against the remaining equalities and against
// residual — atoms over r alone, so a filtered scan of r need never be
// materialized. The index is keyed by value.Value, so a probe hits only
// equal values of the same kind. When r is a base relation the index
// amortizes across every query that joins through it. Every probed
// candidate is accounted against the guard, and the count is returned.
func indexJoin(l, r *relation.Relation, eqs, residual []Atom, g *guard.Guard) (*relation.Relation, int, error) {
	li, ri := joinCols(l, r, eqs)
	keep, err := CompilePred(r.Attrs, residual)
	if err != nil {
		return nil, 0, err
	}
	out := relation.New(append(append([]string(nil), l.Attrs...), r.Attrs...))
	probed := 0
	for _, t := range l.Tuples() {
		if err := g.Check(); err != nil {
			return nil, 0, err
		}
		run := r.LookupEq(ri[0], t[li[0]])
		probed += len(run)
		for _, u := range run {
			if err := g.Add(1); err != nil {
				return nil, 0, err
			}
			if !restEqsMatch(t, u, li, ri) || !keep(u) {
				continue
			}
			row := make(relation.Tuple, 0, len(t)+len(u))
			out.Append(append(append(row, t...), u...))
		}
	}
	return out, probed, nil
}

// restEqsMatch verifies the equality columns beyond the first (the one
// the index served) between a probe row and a candidate.
func restEqsMatch(t, u relation.Tuple, li, ri []int) bool {
	for k := 1; k < len(li); k++ {
		if t[li[k]].Compare(u[ri[k]]) != 0 {
			return false
		}
	}
	return true
}

func mustIndex(attrs []string, a string) int {
	for i, x := range attrs {
		if x == a {
			return i
		}
	}
	panic("algebra: attribute vanished: " + a)
}
