package algebra

import (
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
