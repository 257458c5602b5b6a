// Package algebra implements conjunctive relational algebra: plan trees of
// product, selection, and projection over base-relation scans, plus two
// evaluators.
//
// The paper (§4.1) implements a conjunctive query Q as "a sequence of
// products, followed by selections, and ending with projections", noting
// that this strategy "is not necessarily optimal. However … optimality is
// not so essential for meta-relations, because they are relatively small.
// For the actual relations, where optimality is essential, a different
// strategy may be implemented." Accordingly this package offers:
//
//   - EvalNaive: literal bottom-up evaluation of the plan tree (and, via
//     PSJ, of the paper's products→selections→projections normal form),
//     the meta side's §4.1 reference and the test oracle;
//   - EvalPSJ: predicate pushdown, secondary-index access paths, and
//     index nested-loop equi-joins probing hash indexes keyed by
//     value.Value (a base relation's, or a materialized scan's) — the
//     one evaluator for the actual relations, which retrieval and update
//     authorization both run.
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

// Node is a relational algebra plan node.
type Node interface {
	isNode()
	// Attrs returns the (qualified) output attribute list of the node,
	// resolving scans against sch.
	Attrs(sch *relation.DBSchema) ([]string, error)
}

// Scan reads a base relation under an alias; its output attributes are the
// relation's attributes qualified by the alias.
type Scan struct {
	Rel   string
	Alias string
}

// Product is the cartesian product of two subplans.
type Product struct{ L, R Node }

// Select filters its input by a conjunction of atoms.
type Select struct {
	In   Node
	Pred []Atom
}

// Project projects its input onto the named columns, in order.
type Project struct {
	In   Node
	Cols []string
}

func (Scan) isNode()    {}
func (Product) isNode() {}
func (Select) isNode()  {}
func (Project) isNode() {}

// Attrs implements Node.
func (s Scan) Attrs(sch *relation.DBSchema) ([]string, error) {
	rs := sch.Lookup(s.Rel)
	if rs == nil {
		return nil, fmt.Errorf("unknown relation %s", s.Rel)
	}
	return relation.QualifyAttrs(s.Alias, rs.Attrs), nil
}

// Attrs implements Node.
func (p Product) Attrs(sch *relation.DBSchema) ([]string, error) {
	l, err := p.L.Attrs(sch)
	if err != nil {
		return nil, err
	}
	r, err := p.R.Attrs(sch)
	if err != nil {
		return nil, err
	}
	return append(l, r...), nil
}

// Attrs implements Node.
func (s Select) Attrs(sch *relation.DBSchema) ([]string, error) { return s.In.Attrs(sch) }

// Attrs implements Node.
func (p Project) Attrs(sch *relation.DBSchema) ([]string, error) {
	return append([]string(nil), p.Cols...), nil
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

// EvalNaive evaluates the plan tree bottom-up with nested-loop products.
func EvalNaive(n Node, src Source) (*relation.Relation, error) {
	return EvalNaiveGuarded(n, src, nil)
}

// EvalNaiveGuarded is EvalNaive under a cancellation-and-budget guard:
// every materialized tuple of a product, selection, or projection is
// accounted, so a runaway plan fails with guard.ErrBudgetExceeded or
// guard.ErrCanceled instead of exhausting the process. A nil guard is
// unlimited.
func EvalNaiveGuarded(n Node, src Source, g *guard.Guard) (*relation.Relation, error) {
	switch n := n.(type) {
	case Scan:
		base, err := src(n.Rel)
		if err != nil {
			return nil, err
		}
		if err := g.Check(); err != nil {
			return nil, err
		}
		return base.Rename(relation.QualifyAttrs(n.Alias, base.Attrs)), nil
	case Product:
		l, err := EvalNaiveGuarded(n.L, src, g)
		if err != nil {
			return nil, err
		}
		r, err := EvalNaiveGuarded(n.R, src, g)
		if err != nil {
			return nil, err
		}
		return guardedProduct(l, r, g)
	case Select:
		in, err := EvalNaiveGuarded(n.In, src, g)
		if err != nil {
			return nil, err
		}
		pred, err := CompilePred(in.Attrs, n.Pred)
		if err != nil {
			return nil, err
		}
		return guardedSelect(in, pred, g)
	case Project:
		in, err := EvalNaiveGuarded(n.In, src, g)
		if err != nil {
			return nil, err
		}
		idx := make([]int, len(n.Cols))
		for i, c := range n.Cols {
			j, err := resolve(in.Attrs, c)
			if err != nil {
				return nil, err
			}
			idx[i] = j
		}
		return guardedProject(in, idx, g)
	default:
		return nil, fmt.Errorf("unknown plan node %T", n)
	}
}

// guardedProduct is relation.Product with per-output-row accounting. A
// nil guard accounts nothing, so EvalNaive runs the same loop.
func guardedProduct(l, r *relation.Relation, g *guard.Guard) (*relation.Relation, error) {
	attrs := append(append([]string(nil), l.Attrs...), r.Attrs...)
	out := relation.New(attrs)
	for _, a := range l.Tuples() {
		for _, b := range r.Tuples() {
			if err := g.Add(1); err != nil {
				return nil, err
			}
			row := make(relation.Tuple, 0, len(a)+len(b))
			// Pairs of rows of two sets are distinct: the no-dedup Append
			// path applies.
			out.Append(append(append(row, a...), b...))
		}
	}
	return out, nil
}

// guardedSelect is relation.Select with per-input-row accounting (the
// scan over the input is the work being bounded).
func guardedSelect(in *relation.Relation, pred func(relation.Tuple) bool, g *guard.Guard) (*relation.Relation, error) {
	out := relation.New(in.Attrs)
	for _, t := range in.Tuples() {
		if err := g.Add(1); err != nil {
			return nil, err
		}
		if pred(t) {
			// Selections of a proper set are duplicate-free, so the
			// no-dedup Append path applies.
			out.Append(t)
		}
	}
	return out, nil
}

// guardedProject is relation.Project with per-input-row accounting. The
// output is sized by the input and its rows are carved from one slab; a
// row that collapses onto an earlier one is reused for the next.
func guardedProject(in *relation.Relation, idx []int, g *guard.Guard) (*relation.Relation, error) {
	attrs := make([]string, len(idx))
	for i, j := range idx {
		attrs[i] = in.Attrs[j]
	}
	tuples := in.Tuples()
	out := relation.NewSized(attrs, len(tuples))
	slab := relation.NewSlab(len(idx))
	for n, t := range tuples {
		if err := g.Add(1); err != nil {
			return nil, err
		}
		row := slab.Row(len(tuples) - n)
		for i, j := range idx {
			row[i] = t[j]
		}
		if out.Adopt(row) {
			slab.Keep()
		}
	}
	return out, nil
}
