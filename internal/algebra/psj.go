package algebra

import (
	"fmt"
	"strings"

	"authdb/internal/relation"
)

// PSJ is a conjunctive query in the paper's normal form: a sequence of
// products (the scans, in order), followed by selections (the conjunction
// of atoms), ending with projections (the output columns). Every
// conjunctive relational calculus expression has this form (§2), and §4.1
// requires the meta-side execution to use exactly this shape.
type PSJ struct {
	Scans []Scan
	Preds []Atom
	Cols  []string
}

// Normalize flattens a conjunctive plan tree into PSJ form. Only trees
// whose projections are outermost and whose selections sit above the
// products they reference can be represented; the trees produced by the
// query compiler always qualify.
func Normalize(n Node) (*PSJ, error) {
	p := &PSJ{}
	cols, err := flatten(n, p)
	if err != nil {
		return nil, err
	}
	p.Cols = cols
	return p, nil
}

// flatten walks the tree; it returns the projection column list if the
// node ends in projections, or nil when the node's natural output is the
// full product width.
func flatten(n Node, p *PSJ) ([]string, error) {
	switch n := n.(type) {
	case Scan:
		p.Scans = append(p.Scans, n)
		return nil, nil
	case Product:
		lc, err := flatten(n.L, p)
		if err != nil {
			return nil, err
		}
		rc, err := flatten(n.R, p)
		if err != nil {
			return nil, err
		}
		if lc != nil || rc != nil {
			return nil, fmt.Errorf("cannot normalize: projection below a product")
		}
		return nil, nil
	case Select:
		c, err := flatten(n.In, p)
		if err != nil {
			return nil, err
		}
		if c != nil {
			return nil, fmt.Errorf("cannot normalize: projection below a selection")
		}
		p.Preds = append(p.Preds, n.Pred...)
		return nil, nil
	case Project:
		if _, err := flatten(n.In, p); err != nil {
			return nil, err
		}
		return n.Cols, nil
	default:
		return nil, fmt.Errorf("unknown plan node %T", n)
	}
}

// Node rebuilds the canonical plan tree: left-deep products, one selection,
// one projection.
func (p *PSJ) Node() Node {
	if len(p.Scans) == 0 {
		panic("algebra: PSJ with no scans")
	}
	var n Node = p.Scans[0]
	for _, s := range p.Scans[1:] {
		n = Product{L: n, R: s}
	}
	if len(p.Preds) > 0 {
		n = Select{In: n, Pred: p.Preds}
	}
	if p.Cols != nil {
		n = Project{In: n, Cols: p.Cols}
	}
	return n
}

// Attrs returns the full product-width attribute list (before projection).
func (p *PSJ) Attrs(sch *relation.DBSchema) ([]string, error) {
	var out []string
	for _, s := range p.Scans {
		a, err := (s).Attrs(sch)
		if err != nil {
			return nil, err
		}
		out = append(out, a...)
	}
	return out, nil
}

// Relations returns the set of distinct base relations the query scans.
func (p *PSJ) Relations() map[string]bool {
	out := make(map[string]bool, len(p.Scans))
	for _, s := range p.Scans {
		out[s.Rel] = true
	}
	return out
}

// String renders the query plan compactly for logs and errors.
func (p *PSJ) String() string {
	var b strings.Builder
	p.WriteText(&b)
	return b.String()
}

// WriteText writes String's text to b.
func (p *PSJ) WriteText(b *strings.Builder) {
	b.WriteString("π(")
	for i, c := range p.Cols {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(c)
	}
	b.WriteString(") σ(")
	for i, a := range p.Preds {
		if i > 0 {
			b.WriteString(" and ")
		}
		b.WriteString(a.L)
		b.WriteByte(' ')
		b.WriteString(a.Op.String())
		b.WriteByte(' ')
		b.WriteString(a.R.String())
	}
	b.WriteString(") ×(")
	for i, sc := range p.Scans {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(sc.Alias)
	}
	b.WriteByte(')')
}
