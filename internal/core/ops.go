package core

import (
	"authdb/internal/algebra"
	"authdb/internal/guard"
	"authdb/internal/interval"
	"authdb/internal/value"
	"slices"
)

// MetaProductGuarded implements Definition 1 — the product of
// meta-relations: for every pair of meta-tuples, their concatenation.
// With padding it also adds the §4.2 refinement tuples q1 = (a1…am,
// ⊔…⊔) and q2 = (⊔…⊔, b1…bn), which keep subviews of one operand alive
// across projections that remove the other operand's attributes.
// Replications are removed. It runs under a cancellation-and-budget
// guard. Meta-relations are usually small (§4.1), but a query joining
// many occurrences of relations with many stored views multiplies them;
// the guard accounts every produced meta-tuple so the meta side obeys
// the same budget as the actual side. A nil guard is unlimited.
func MetaProductGuarded(a, b *MetaRel, padding bool, g *guard.Guard) (*MetaRel, error) {
	out := NewMetaRel(append(append([]string(nil), a.Attrs...), b.Attrs...))
	blankA, blankB := blanks(len(a.Attrs)), blanks(len(b.Attrs))
	var parts productParts
	for _, l := range a.Tuples {
		for _, r := range b.Tuples {
			if err := g.Add(1); err != nil {
				return nil, err
			}
			out.Tuples = append(out.Tuples, parts.of(l, r).tuple(l.Cells, r.Cells))
		}
	}
	if padding {
		for _, l := range a.Tuples {
			if err := g.Add(1); err != nil {
				return nil, err
			}
			out.Tuples = append(out.Tuples, parts.of(l, nil).tuple(l.Cells, blankB))
		}
		for _, r := range b.Tuples {
			if err := g.Add(1); err != nil {
				return nil, err
			}
			out.Tuples = append(out.Tuples, parts.of(nil, r).tuple(blankA, r.Cells))
		}
	}
	out.Dedupe()
	return out, nil
}

// blanks returns n padding cells ⊔.
func blanks(n int) []Cell {
	out := make([]Cell, n)
	for i := range out {
		out[i] = Blank()
	}
	return out
}

// productParts holds what one tuple of a product takes from both operands
// besides their cells: the union of their views, provenance and symbolic
// comparisons. The slices are scratch, reused from one combination to the
// next, so that a combination can be keyed before anything is allocated
// for it.
type productParts struct {
	views []string
	comps []CompRef
	cmps  []VarCmp
}

// of computes the parts of l × r. A nil operand is the §4.2 padding, which
// contributes blank cells only.
func (p *productParts) of(l, r *MetaTuple) *productParts {
	if l == nil || r == nil {
		if l == nil {
			l = r
		}
		p.views = append(p.views[:0], l.Views...)
		p.comps = append(p.comps[:0], l.Comps...)
		p.cmps = append(p.cmps[:0], l.Cmps...)
		return p
	}
	p.views = appendViewUnion(p.views[:0], l.Views, r.Views)
	p.comps = append(p.comps[:0], l.Comps...)
	for _, c := range r.Comps {
		if !slices.Contains(p.comps, c) {
			p.comps = append(p.comps, c)
		}
	}
	p.cmps = append(p.cmps[:0], l.Cmps...)
outer:
	for _, c := range r.Cmps {
		for _, x := range p.cmps {
			if x == c {
				continue outer
			}
		}
		p.cmps = append(p.cmps, c)
	}
	return p
}

// tuple builds the product tuple: the cells lc then rc, and copies of the
// parts.
func (p *productParts) tuple(lc, rc []Cell) *MetaTuple {
	cells := make([]Cell, 0, len(lc)+len(rc))
	return &MetaTuple{
		Cells: append(append(cells, lc...), rc...),
		Views: append([]string(nil), p.views...),
		Comps: append([]CompRef(nil), p.comps...),
		Cmps:  append([]VarCmp(nil), p.cmps...),
	}
}

// DropDangling implements the theorem's pruning step: after the products,
// discard meta-tuples that "contain references to meta-tuples outside A'"
// — i.e. whose variables (or symbolic comparisons) mention stored
// membership tuples absent from the combination.
func (r *MetaRel) DropDangling(inst *Instance) {
	kept := r.Tuples[:0]
	for _, t := range r.Tuples {
		if !inst.hasDangling(t) {
			kept = append(kept, t)
		}
	}
	r.Tuples = kept
}

// MetaSelect implements Definition 2 extended with the §4.2 four-case
// refinement. For the query predicate λ (the atom) and each meta-tuple's
// own predicate μ on the selected attribute(s):
//
//	λ ⇒ μ          the meta-tuple is selected and the field cleared
//	μ ⇒ λ          the meta-tuple is selected unmodified
//	λ ∧ μ empty    the meta-tuple is discarded
//	otherwise      the meta-tuple is selected, modified to μ ∧ λ
//
// Per Definition 2 the selected attributes must be starred; tuples whose
// selected cell is unprojected are discarded. With fourCase disabled the
// operator conjoins unconditionally (Definition 2 verbatim).
//
// Soundness note: every tuple of the actual answer satisfies λ, so a mask
// that retains μ unmodified is always sound (§4.2); clearing, by contrast,
// is performed only when λ ⇒ μ is certain.
func MetaSelect(mr *MetaRel, atom algebra.Atom, inst *Instance, fourCase bool) (*MetaRel, error) {
	i, err := mr.attrIndex(atom.L)
	if err != nil {
		return nil, err
	}
	out := NewMetaRel(mr.Attrs)
	if atom.R.IsAttr {
		j, err := mr.attrIndex(atom.R.Attr)
		if err != nil {
			return nil, err
		}
		for _, t := range mr.Tuples {
			if q := selectAttrAttr(t, i, j, atom.Op, inst, fourCase); q != nil {
				out.Tuples = append(out.Tuples, q)
			}
		}
		return out, nil
	}
	return MetaSelectConst(mr, atom.L, interval.FromCmp(atom.Op, atom.R.Const), inst, fourCase)
}

// MetaSelectConst applies the constant selection λ, given directly in
// interval form, to one attribute. The authorization pipeline combines
// all of a query's constant comparisons on the same attribute into one λ
// before calling this: the §4.2 case analysis compares the *whole*
// restriction with μ (its walkthrough reasons about two-sided budget
// ranges), and atom-at-a-time application would conjoin where the
// combined λ clears.
func MetaSelectConst(mr *MetaRel, attr string, lam interval.Interval, inst *Instance, fourCase bool) (*MetaRel, error) {
	i, err := mr.attrIndex(attr)
	if err != nil {
		return nil, err
	}
	out := NewMetaRel(mr.Attrs)
	for _, t := range mr.Tuples {
		if q := selectAttrConst(t, i, lam, inst, fourCase); q != nil {
			out.Tuples = append(out.Tuples, q)
		}
	}
	return out, nil
}

// selectAttrConst handles λ = (A_i θ c).
func selectAttrConst(t *MetaTuple, i int, lam interval.Interval, inst *Instance, fourCase bool) *MetaTuple {
	if !t.Cells[i].Star {
		// Definition 2 requires the selected attribute to be projected —
		// a restriction that is security-critical in general: keeping a
		// tuple whose hidden attribute the query filters on would let
		// the user learn that attribute through the delivered row set.
		// The sound exception is μ ⇒ λ: the view's own restriction
		// already guarantees the query predicate on every view row, so
		// the delivered rows remain exactly a function of the view image
		// (e.g. a view pinned to SPONSOR = Acme queried with that same
		// condition). When additionally λ ⇒ μ the hidden restriction is
		// the query's own and the field clears, letting the tuple
		// survive the final projection.
		if fourCase && t.Cells[i].Cons.Implies(lam) {
			q := t.clone()
			if lam.Implies(q.Cells[i].Cons) {
				q.setVarCons(q.Cells[i].Var, interval.Full())
				q.Cells[i].Cons = interval.Full()
				q.normalizeVar(q.Cells[i].Var, i, inst)
			}
			return q
		}
		return nil
	}
	q := t.clone()
	cell := &q.Cells[i]
	mu := cell.Cons
	inter := interval.Intersect(mu, lam)
	if !fourCase {
		cell.Cons = inter
		return q
	}
	switch {
	case inter.IsEmpty():
		return nil // contradiction: discard
	case lam.Implies(mu):
		// Clear: the query guarantees more than the view requires. When
		// the cell carries a join variable the equality linkage itself is
		// not implied by an attribute-constant λ, so only the interval
		// clears — on every occurrence, since the variable is one value.
		q.setVarCons(cell.Var, interval.Full())
		cell.Cons = interval.Full()
		q.normalizeVar(cell.Var, i, inst)
	case mu.Implies(lam):
		// Keep unmodified.
	default:
		q.setVarCons(cell.Var, inter)
		cell.Cons = inter
	}
	return q
}

// setVarCons narrows/clears the constraint on every cell sharing var
// (no-op for var 0); the caller adjusts the triggering cell itself.
func (m *MetaTuple) setVarCons(v VarID, iv interval.Interval) {
	if v == 0 {
		return
	}
	for k := range m.Cells {
		if m.Cells[k].Var == v {
			m.Cells[k].Cons = iv
		}
	}
}

// normalizeVar drops a variable that no longer expresses anything: a
// single in-tuple occurrence, not symbolically locked, and not dangling
// (all its defining meta-tuples are part of this combination). Such a cell
// degenerates to its interval, possibly the blank ⊔, letting later
// projections remove it (§4.2: "clearing selection predicates ensures that
// more meta-tuples will survive future projections").
func (m *MetaTuple) normalizeVar(v VarID, at int, inst *Instance) {
	if v == 0 || m.lockedVar(v) {
		return
	}
	if m.varOccurrences(v) != 1 || inst.dangling(v, m) {
		return
	}
	m.Cells[at].Var = 0
}

// selectAttrAttr handles λ = (A_i θ A_j).
func selectAttrAttr(t *MetaTuple, i, j int, op value.Cmp, inst *Instance, fourCase bool) *MetaTuple {
	if !t.Cells[i].Star || !t.Cells[j].Star {
		return nil
	}
	q := t.clone()
	// Fold away variables that are mere intervals so the case analysis
	// below sees real linkage only.
	q.foldFreeVar(i, inst)
	q.foldFreeVar(j, inst)
	ci, cj := &q.Cells[i], &q.Cells[j]

	if !fourCase {
		// Definition 2 verbatim: represent λ ∧ μ. Equality folds both
		// cells to the common interval and links them; other comparators
		// retain μ (λ holds on every answer tuple regardless).
		if op == value.EQ {
			q.conjoinEquality(i, j, inst)
		}
		return q
	}

	switch {
	case ci.Var != 0 && ci.Var == cj.Var:
		// μ already equates the two attributes.
		switch op {
		case value.EQ:
			// λ ⇔ the equality part of μ: clear the linkage when it is
			// carried by exactly these two cells, keeping any residual
			// interval; otherwise the remaining occurrences still need it.
			v := ci.Var
			if !q.lockedVar(v) && q.varOccurrences(v) == 2 && !inst.dangling(v, q) {
				ci.Var, cj.Var = 0, 0
			}
			return q
		case value.LE, value.GE:
			return q // μ ⇒ λ: keep unmodified
		default: // LT, GT, NE contradict equality
			return nil
		}
	case ci.Var != 0 || cj.Var != 0:
		if op == value.EQ {
			if q.conjoinEquality(i, j, inst) {
				return q
			}
			return nil
		}
		// When λ implies one of the tuple's own symbolic comparisons on
		// exactly these variables, that comparison clears (the query
		// guarantees it on every answer row), possibly unlocking the
		// variables for folding — the symbolic analogue of the §4.2
		// clearing case.
		if ci.Var != 0 && cj.Var != 0 {
			q.clearImpliedCmps(ci.Var, cj.Var, op)
			q.foldFreeVar(i, inst)
			q.foldFreeVar(j, inst)
			ci, cj = &q.Cells[i], &q.Cells[j]
			if ci.Var == 0 && cj.Var == 0 {
				return decideByIntervals(q, ci.Cons, cj.Cons, op)
			}
		}
		// Symbolic order comparisons between linked variables: decide by
		// intervals when certain, otherwise keep μ unmodified (sound).
		return decideByIntervals(q, ci.Cons, cj.Cons, op)
	default:
		// Pure interval cells.
		if op == value.EQ {
			inter := interval.Intersect(ci.Cons, cj.Cons)
			if inter.IsEmpty() {
				return nil
			}
			// Equal values lie in both intervals; residual per cell is
			// the common interval (the equality itself is λ, which every
			// answer tuple satisfies).
			ci.Cons, cj.Cons = inter, inter
			return q
		}
		return decideByIntervals(q, ci.Cons, cj.Cons, op)
	}
}

// foldFreeVar replaces a free variable cell (single occurrence, unlocked,
// non-dangling) by its interval.
func (m *MetaTuple) foldFreeVar(at int, inst *Instance) {
	m.normalizeVar(m.Cells[at].Var, at, inst)
}

// conjoinEquality narrows both cells to the intersection of their
// constraints and unifies their variables, reporting satisfiability. At
// least one side carries a variable, or neither.
func (m *MetaTuple) conjoinEquality(i, j int, inst *Instance) bool {
	ci, cj := &m.Cells[i], &m.Cells[j]
	inter := interval.Intersect(ci.Cons, cj.Cons)
	if inter.IsEmpty() {
		return false
	}
	switch {
	case ci.Var != 0 && cj.Var != 0 && ci.Var != cj.Var:
		// Unify: rewrite all occurrences of the second variable.
		from, to := cj.Var, ci.Var
		for k := range m.Cells {
			if m.Cells[k].Var == from {
				m.Cells[k].Var = to
			}
		}
		for k := range m.Cmps {
			if m.Cmps[k].X == from {
				m.Cmps[k].X = to
			}
			if m.Cmps[k].Y == from {
				m.Cmps[k].Y = to
			}
		}
		m.setVarCons(to, inter)
	case ci.Var != 0:
		m.setVarCons(ci.Var, inter)
		cj.Cons = inter
	case cj.Var != 0:
		m.setVarCons(cj.Var, inter)
		ci.Cons = inter
	default:
		ci.Cons, cj.Cons = inter, inter
	}
	return true
}

// decideByIntervals resolves an order comparison λ = (A_i θ A_j) against
// the cells' interval constraints: keep when μ ⇒ λ is certain, discard
// when λ ∧ μ is certainly empty, otherwise keep μ unmodified.
func decideByIntervals(q *MetaTuple, a, b interval.Interval, op value.Cmp) *MetaTuple {
	cmp := compareIntervals(a, b)
	switch op {
	case value.LT:
		if cmp == cmpAlwaysLess {
			return q
		}
		if cmp == cmpAlwaysGreater || cmp == cmpAlwaysGreaterEq {
			return nil
		}
	case value.LE:
		if cmp == cmpAlwaysLess || cmp == cmpAlwaysLessEq {
			return q
		}
		if cmp == cmpAlwaysGreater {
			return nil
		}
	case value.GT:
		if cmp == cmpAlwaysGreater {
			return q
		}
		if cmp == cmpAlwaysLess || cmp == cmpAlwaysLessEq {
			return nil
		}
	case value.GE:
		if cmp == cmpAlwaysGreater || cmp == cmpAlwaysGreaterEq {
			return q
		}
		if cmp == cmpAlwaysLess {
			return nil
		}
	case value.NE:
		if cmp == cmpAlwaysLess || cmp == cmpAlwaysGreater {
			return q
		}
	}
	return q // undecided: retain μ (λ is guaranteed by the actual selection)
}

// clearImpliedCmps removes from the tuple every symbolic comparison on
// the variable pair (x, y) that the query predicate x θ y implies.
func (m *MetaTuple) clearImpliedCmps(x, y VarID, op value.Cmp) {
	kept := m.Cmps[:0]
	for _, c := range m.Cmps {
		implied := (c.X == x && c.Y == y && cmpImplies(op, c.Op)) ||
			(c.X == y && c.Y == x && cmpImplies(op.Flip(), c.Op))
		if !implied {
			kept = append(kept, c)
		}
	}
	m.Cmps = kept
}

// cmpImplies reports whether (a θq b) ⇒ (a θc b) for all a, b.
func cmpImplies(q, c value.Cmp) bool {
	if q == c {
		return true
	}
	switch q {
	case value.LT:
		return c == value.LE || c == value.NE
	case value.GT:
		return c == value.GE || c == value.NE
	case value.EQ:
		return c == value.LE || c == value.GE
	}
	return false
}

type intervalOrder int

const (
	cmpUnknown intervalOrder = iota
	cmpAlwaysLess
	cmpAlwaysLessEq
	cmpAlwaysGreater
	cmpAlwaysGreaterEq
)

// compareIntervals classifies the possible order between values drawn from
// a and b.
func compareIntervals(a, b interval.Interval) intervalOrder {
	if a.Hi.Bounded && b.Lo.Bounded {
		d := a.Hi.V.Compare(b.Lo.V)
		if d < 0 {
			return cmpAlwaysLess
		}
		if d == 0 {
			if a.Hi.Open || b.Lo.Open {
				return cmpAlwaysLess
			}
			return cmpAlwaysLessEq
		}
	}
	if a.Lo.Bounded && b.Hi.Bounded {
		d := a.Lo.V.Compare(b.Hi.V)
		if d > 0 {
			return cmpAlwaysGreater
		}
		if d == 0 {
			if a.Lo.Open || b.Hi.Open {
				return cmpAlwaysGreater
			}
			return cmpAlwaysGreaterEq
		}
	}
	return cmpUnknown
}

// MetaProject implements Definition 3 generalized to a projection list:
// the meta-tuple survives only if every removed attribute's cell is blank
// (⊔, possibly starred); the remaining cells are rearranged to the
// requested column order.
func MetaProject(mr *MetaRel, cols []string) (*MetaRel, error) {
	idx := make([]int, len(cols))
	keep := make([]bool, len(mr.Attrs))
	for k, c := range cols {
		j, err := mr.attrIndex(c)
		if err != nil {
			return nil, err
		}
		idx[k] = j
		keep[j] = true
	}
	out := NewMetaRel(cols)
outer:
	for _, t := range mr.Tuples {
		for j, c := range t.Cells {
			if !keep[j] && !c.IsBlank() {
				continue outer
			}
		}
		cells := make([]Cell, len(idx))
		for k, j := range idx {
			cells[k] = t.Cells[j]
		}
		out.Tuples = append(out.Tuples, &MetaTuple{
			Views: append([]string(nil), t.Views...),
			Cells: cells,
			Comps: append([]CompRef(nil), t.Comps...),
			Cmps:  append([]VarCmp(nil), t.Cmps...),
		})
	}
	out.Dedupe()
	return out, nil
}
