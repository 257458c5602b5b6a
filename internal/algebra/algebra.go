// Package algebra implements conjunctive relational algebra: queries in
// the product, selection, projection normal form over base-relation scans
// (PSJ), plus two evaluators.
//
// The paper (§4.1) implements a conjunctive query Q as "a sequence of
// products, followed by selections, and ending with projections", noting
// that this strategy "is not necessarily optimal. However … optimality is
// not so essential for meta-relations, because they are relatively small.
// For the actual relations, where optimality is essential, a different
// strategy may be implemented." Accordingly this package offers:
//
//   - EvalNaive: literal evaluation of the paper's
//     products→selections→projections normal form, the meta side's §4.1
//     reference and the test oracle;
//   - Stream: predicate pushdown, secondary-index access paths, and
//     index nested-loop equi-joins probing hash indexes keyed by
//     value.Value (a base relation's, or a materialized scan's), whose
//     last step hands the answer's rows to a Sink instead of building the
//     answer — the one evaluator for the actual relations, which
//     retrieval masks as it streams; EvalPSJ collects its rows into a
//     relation, for update authorization and every other caller.
//
// Both evaluators produce identical relations; the test suite cross-checks
// them and the benchmark harness measures the gap (experiment E9).
package algebra

import (
	"fmt"

	"authdb/internal/guard"
	"authdb/internal/relation"
	"authdb/internal/value"
)

// Source resolves base relation names to instances.
type Source func(name string) (*relation.Relation, error)

// MapSource adapts a map of relations to a Source.
func MapSource(m map[string]*relation.Relation) Source {
	return func(name string) (*relation.Relation, error) {
		r, ok := m[name]
		if !ok {
			return nil, fmt.Errorf("unknown relation %s", name)
		}
		return r, nil
	}
}

// Operand is the right-hand side of a predicate atom: either a (qualified)
// attribute or a constant.
type Operand struct {
	IsAttr bool
	Attr   string
	Const  value.Value
}

// AttrOp returns an attribute operand.
func AttrOp(a string) Operand { return Operand{IsAttr: true, Attr: a} }

// ConstOp returns a constant operand.
func ConstOp(v value.Value) Operand { return Operand{Const: v} }

// String renders the operand: an attribute by name, a constant as the
// statement literal it parses from, so 5 and "5" render apart.
func (o Operand) String() string {
	if o.IsAttr {
		return o.Attr
	}
	return value.Literal(o.Const)
}

// Atom is a primitive conjunctive predicate L θ R, with L a qualified
// attribute and R an attribute or constant (paper §2, "comparative"
// subformulas plus the implicit equalities of membership subformulas).
type Atom struct {
	L  string
	Op value.Cmp
	R  Operand
}

// String renders the atom, e.g. "PROJECT.BUDGET >= 250000".
func (a Atom) String() string {
	return a.L + " " + a.Op.String() + " " + a.R.String()
}

// Scan reads a base relation under an alias; its output attributes are the
// relation's attributes qualified by the alias.
type Scan struct {
	Rel   string
	Alias string
}

// Attrs returns the scan's output attributes, resolving its relation
// against sch.
func (s Scan) Attrs(sch *relation.DBSchema) ([]string, error) {
	rs := sch.Lookup(s.Rel)
	if rs == nil {
		return nil, fmt.Errorf("unknown relation %s", s.Rel)
	}
	return relation.QualifyAttrs(s.Alias, rs.Attrs), nil
}

// resolve returns the index of qualified attribute a in attrs, trying the
// exact name first and then an unambiguous bare-name match.
func resolve(attrs []string, a string) (int, error) {
	for i, x := range attrs {
		if x == a {
			return i, nil
		}
	}
	found := -1
	for i, x := range attrs {
		if _, bare := relation.SplitQualified(x); bare == a {
			if found >= 0 {
				return -1, fmt.Errorf("ambiguous attribute %s", a)
			}
			found = i
		}
	}
	if found < 0 {
		return -1, fmt.Errorf("unknown attribute %s", a)
	}
	return found, nil
}

// CompilePred resolves a conjunction of atoms against an attribute list,
// returning a tuple predicate.
func CompilePred(attrs []string, pred []Atom) (func(relation.Tuple) bool, error) {
	type cp struct {
		li, ri int
		op     value.Cmp
		c      value.Value
		isAttr bool
	}
	cps := make([]cp, 0, len(pred))
	for _, a := range pred {
		li, err := resolve(attrs, a.L)
		if err != nil {
			return nil, err
		}
		c := cp{li: li, op: a.Op}
		if a.R.IsAttr {
			ri, err := resolve(attrs, a.R.Attr)
			if err != nil {
				return nil, err
			}
			c.ri, c.isAttr = ri, true
		} else {
			c.c = a.R.Const
		}
		cps = append(cps, c)
	}
	return func(t relation.Tuple) bool {
		for _, c := range cps {
			r := c.c
			if c.isAttr {
				r = t[c.ri]
			}
			if !c.op.Eval(t[c.li], r) {
				return false
			}
		}
		return true
	}, nil
}

// EvalNaive evaluates the normal form literally: the scans, left to
// right, as nested-loop products, then one selection (when p has atoms),
// then one projection (when p names columns). Every materialized tuple of
// a product, selection, or projection is accounted against g, so a
// runaway query fails with guard.ErrBudgetExceeded or guard.ErrCanceled
// instead of exhausting the process. A nil guard is unlimited.
func EvalNaive(p *PSJ, src Source, g *guard.Guard) (*relation.Relation, error) {
	if len(p.Scans) == 0 {
		return nil, fmt.Errorf("empty query")
	}
	var cur *relation.Relation
	for _, s := range p.Scans {
		base, err := src(s.Rel)
		if err != nil {
			return nil, err
		}
		if err := g.Check(); err != nil {
			return nil, err
		}
		r := base.Rename(relation.QualifyAttrs(s.Alias, base.Attrs))
		if cur == nil {
			cur = r
		} else if cur, err = guardedProduct(cur, r, g); err != nil {
			return nil, err
		}
	}
	if len(p.Preds) > 0 {
		pred, err := CompilePred(cur.Attrs, p.Preds)
		if err != nil {
			return nil, err
		}
		if cur, err = guardedSelect(cur, pred, g); err != nil {
			return nil, err
		}
	}
	if p.Cols == nil {
		return cur, nil
	}
	idx := make([]int, len(p.Cols))
	for i, c := range p.Cols {
		j, err := resolve(cur.Attrs, c)
		if err != nil {
			return nil, err
		}
		idx[i] = j
	}
	var out collector
	project := projection(cur.Attrs, idx, cur.Len(), g, &out)
	for _, t := range cur.Tuples() {
		if err := project(t); err != nil {
			return nil, err
		}
	}
	return out.set.Relation(), nil
}

// guardedProduct is relation.Product with per-output-row accounting, its
// rows carved from one slab. A nil guard accounts nothing.
func guardedProduct(l, r *relation.Relation, g *guard.Guard) (*relation.Relation, error) {
	var out distinctRows
	out.open(append(append([]string(nil), l.Attrs...), r.Attrs...), l.Len()*r.Len())
	if err := product(l, r, g, out.add); err != nil {
		return nil, err
	}
	return out.relation(), nil
}

// guardedSelect is relation.Select with per-input-row accounting (the
// scan over the input is the work being bounded).
func guardedSelect(in *relation.Relation, pred func(relation.Tuple) bool, g *guard.Guard) (*relation.Relation, error) {
	// Selections of a set are distinct: no membership check.
	var kept []relation.Tuple
	for _, t := range in.Tuples() {
		if err := g.Add(1); err != nil {
			return nil, err
		}
		if pred(t) {
			kept = append(kept, t)
		}
	}
	return relation.NewDistinct(in.Attrs, kept), nil
}
