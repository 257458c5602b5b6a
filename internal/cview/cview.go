// Package cview represents conjunctive views and queries — the language of
// the paper's §2. A view is a conjunctive relational calculus expression;
// equivalently (and this is the form the package keeps) a
// product–selection–projection expression: a projection list of
// relation-occurrence attributes and a conjunction of primitive
// conditions. Queries ("retrieve" statements) are unnamed views.
//
// Relation occurrences are addressed by alias: a bare relation name when
// the relation appears once, or "R:1", "R:2", … when several membership
// subformulas reference the same relation (paper §2, the EST example, and
// §5 footnote 4).
package cview

import (
	"fmt"
	"strconv"
	"strings"

	"authdb/internal/algebra"
	"authdb/internal/relation"
	"authdb/internal/value"
)

// ColRef names an attribute of a relation occurrence, e.g.
// {Alias: "EMPLOYEE:1", Attr: "NAME"}.
type ColRef struct {
	Alias string
	Attr  string
}

// Qualified returns the "alias.ATTR" form used throughout query processing.
func (c ColRef) Qualified() string { return c.Alias + "." + c.Attr }

// String renders the reference as written in statements.
func (c ColRef) String() string { return c.Qualified() }

// Term is the right-hand side of a condition: a column or a constant.
type Term struct {
	IsCol bool
	Col   ColRef
	Const value.Value
}

// ColTerm returns a column term.
func ColTerm(alias, attr string) Term { return Term{IsCol: true, Col: ColRef{alias, attr}} }

// ConstTerm returns a constant term.
func ConstTerm(v value.Value) Term { return Term{Const: v} }

// String renders the term. Constants render as reparseable literals
// (quoted when they would not lex as one identifier), so a rendered
// definition round-trips through the parser.
func (t Term) String() string {
	if t.IsCol {
		return t.Col.String()
	}
	return value.Literal(t.Const)
}

// Cond is one primitive condition of a where-clause conjunction.
type Cond struct {
	L  ColRef
	Op value.Cmp
	R  Term
}

// String renders the condition.
func (c Cond) String() string {
	return c.L.String() + " " + c.Op.String() + " " + c.R.String()
}

// Def is a view definition (Name set) or a retrieve query (Name empty):
// a projection list and a conjunction of conditions. A view definition
// may additionally carry alternative conjunctions in Or — the §6
// disjunction extension: the view is the union of the conjunctive
// branches Where, Or[0], Or[1], …, all sharing the projection list.
// Queries must stay conjunctive (the paper's query language).
type Def struct {
	Name  string
	Cols  []ColRef
	Where []Cond
	Or    [][]Cond
}

// Branches returns the conjunctive branches of the definition: just
// Where for a conjunctive view, otherwise Where followed by each
// alternative.
func (d *Def) Branches() [][]Cond {
	out := [][]Cond{d.Where}
	return append(out, d.Or...)
}

// Branch returns a conjunctive definition for one branch.
func (d *Def) Branch(i int) *Def {
	return &Def{Name: d.Name, Cols: d.Cols, Where: d.Branches()[i]}
}

// String renders the definition as a view/retrieve statement in the
// paper's concrete syntax.
func (d *Def) String() string {
	var b strings.Builder
	if d.Name != "" {
		b.WriteString("view " + d.Name + " (")
	} else {
		b.WriteString("retrieve (")
	}
	for i, c := range d.Cols {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(c.String())
	}
	b.WriteString(")")
	for bi, branch := range d.Branches() {
		for i, c := range branch {
			switch {
			case bi == 0 && i == 0:
				b.WriteString("\nwhere " + c.String())
			case i == 0:
				b.WriteString("\nor " + c.String())
			default:
				b.WriteString("\nand " + c.String())
			}
		}
	}
	return b.String()
}

// Aliases returns the relation occurrences referenced by the definition,
// in first-mention order (projection list first, then conditions).
func (d *Def) Aliases() []string {
	order := make([]string, 0, len(d.Cols)+len(d.Where))
	seen := make(map[string]bool)
	add := func(a string) {
		if a != "" && !seen[a] {
			seen[a] = true
			order = append(order, a)
		}
	}
	for _, c := range d.Cols {
		add(c.Alias)
	}
	for _, c := range d.Where {
		add(c.L.Alias)
		if c.R.IsCol {
			add(c.R.Col.Alias)
		}
	}
	return order
}

// Analyzed is a validated definition together with its algebra plan.
type Analyzed struct {
	Def *Def
	// Scans lists the relation occurrences in alias order.
	Scans []algebra.Scan
	// PSJ is the paper's products→selections→projections normal form.
	PSJ *algebra.PSJ
}

// Analyze validates the definition against a database scheme and compiles
// it to PSJ normal form. Disjunctive definitions cannot be analyzed as a
// whole; analyze each Branch instead.
func Analyze(d *Def, sch *relation.DBSchema) (*Analyzed, error) {
	if len(d.Or) > 0 {
		return nil, fmt.Errorf("%s: disjunctive definition; analyze its branches individually", defName(d))
	}
	if len(d.Cols) == 0 {
		return nil, fmt.Errorf("%s: empty projection list", defName(d))
	}
	aliases := d.Aliases()
	for _, a := range aliases {
		base := relation.BaseOfAlias(a)
		if sch.Lookup(base) == nil {
			return nil, fmt.Errorf("%s: unknown relation %s", defName(d), base)
		}
		if i := strings.IndexByte(a, ':'); i >= 0 {
			if n, err := strconv.Atoi(a[i+1:]); err != nil || n < 1 {
				return nil, fmt.Errorf("%s: bad occurrence suffix in %s", defName(d), a)
			}
		}
	}
	for i, a := range aliases {
		base := relation.BaseOfAlias(a)
		for _, b := range aliases[:i] {
			if relation.BaseOfAlias(b) == base && (a == base) != (b == base) {
				return nil, fmt.Errorf("%s: relation %s referenced both bare and with :i suffixes", defName(d), base)
			}
		}
	}
	check := func(c ColRef) error {
		rs := sch.Lookup(relation.BaseOfAlias(c.Alias))
		if rs.AttrIndex(c.Attr) < 0 {
			return fmt.Errorf("%s: relation %s has no attribute %s", defName(d), rs.Name, c.Attr)
		}
		return nil
	}
	for _, c := range d.Cols {
		if err := check(c); err != nil {
			return nil, err
		}
	}
	for _, c := range d.Where {
		if err := check(c.L); err != nil {
			return nil, err
		}
		if c.R.IsCol {
			if err := check(c.R.Col); err != nil {
				return nil, err
			}
		}
	}
	a := &Analyzed{Def: d, Scans: make([]algebra.Scan, len(aliases))}
	p := &algebra.PSJ{Scans: make([]algebra.Scan, len(aliases)), Cols: make([]string, 0, len(d.Cols))}
	for i, al := range aliases {
		a.Scans[i] = algebra.Scan{Rel: relation.BaseOfAlias(al), Alias: al}
	}
	copy(p.Scans, a.Scans)
	// The qualified names are substrings of one string: a read analyzes
	// its query on every request, and this is one allocation for all.
	each := func(f func(ColRef)) {
		for _, c := range d.Where {
			f(c.L)
			if c.R.IsCol {
				f(c.R.Col)
			}
		}
		for _, c := range d.Cols {
			f(c)
		}
	}
	size := 0
	each(func(c ColRef) { size += len(c.Alias) + 1 + len(c.Attr) })
	var b strings.Builder
	b.Grow(size)
	each(func(c ColRef) { b.WriteString(c.Alias); b.WriteByte('.'); b.WriteString(c.Attr) })
	names := b.String()
	qualified := func(c ColRef) string {
		n := len(c.Alias) + 1 + len(c.Attr)
		q := names[:n]
		names = names[n:]
		return q
	}
	for _, c := range d.Where {
		atom := algebra.Atom{L: qualified(c.L), Op: c.Op}
		if c.R.IsCol {
			atom.R = algebra.AttrOp(qualified(c.R.Col))
		} else {
			atom.R = algebra.ConstOp(c.R.Const)
		}
		p.Preds = append(p.Preds, atom)
	}
	for _, c := range d.Cols {
		p.Cols = append(p.Cols, qualified(c))
	}
	a.PSJ = p
	return a, nil
}

func defName(d *Def) string {
	if d.Name != "" {
		return "view " + d.Name
	}
	return "retrieve"
}
