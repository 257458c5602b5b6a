// Package qmod reimplements the INGRES access control algorithm of
// Stonebraker and Wong (1974): query modification. Permissions are views
// of single relations — a subset of the attributes plus a qualification on
// that relation. For each relation a query addresses, the algorithm looks
// for permissions whose attributes contain every attribute the query
// addresses on that relation; their qualifications are conjoined (ORed
// among themselves) with the query's own qualification. If no permission
// covers the addressed attributes, the whole query is rejected.
//
// This is the behaviour the paper's §1 criticises: permissions cannot span
// relations, and rows and columns are asymmetric — a request for one
// attribute too many is denied outright rather than having the extra
// column withheld.
package qmod

import (
	"fmt"

	"authdb/internal/algebra"
	"authdb/internal/cview"
	"authdb/internal/relation"
	"authdb/internal/value"
)

// Qual is one primitive qualification ATTR θ const or ATTR θ ATTR over the
// permission's relation.
type Qual struct {
	Attr  string
	Op    value.Cmp
	RAttr string // other attribute when RIsAttr
	Const value.Value
	IsAtt bool
}

// String renders the qualification atom.
func (q Qual) String() string {
	r := q.Const.String()
	if q.IsAtt {
		r = q.RAttr
	}
	return q.Attr + " " + q.Op.String() + " " + r
}

// Permission grants user the given attributes of one relation, on the
// rows satisfying the qualification (a conjunction).
type Permission struct {
	User  string
	Rel   string
	Attrs []string
	Quals []Qual
}

// System is an INGRES-style authority.
type System struct {
	sch   *relation.DBSchema
	src   algebra.Source
	perms []Permission
}

// New creates the authority over a database scheme and source.
func New(sch *relation.DBSchema, src algebra.Source) *System {
	return &System{sch: sch, src: src}
}

// Permit registers a permission after validating it against the scheme.
func (s *System) Permit(p Permission) error {
	rs := s.sch.Lookup(p.Rel)
	if rs == nil {
		return fmt.Errorf("unknown relation %s", p.Rel)
	}
	for _, a := range p.Attrs {
		if rs.AttrIndex(a) < 0 {
			return fmt.Errorf("relation %s has no attribute %s", p.Rel, a)
		}
	}
	for _, q := range p.Quals {
		if rs.AttrIndex(q.Attr) < 0 {
			return fmt.Errorf("relation %s has no attribute %s", p.Rel, q.Attr)
		}
		if q.IsAtt && rs.AttrIndex(q.RAttr) < 0 {
			return fmt.Errorf("relation %s has no attribute %s", p.Rel, q.RAttr)
		}
	}
	s.perms = append(s.perms, p)
	return nil
}

// Modified describes the outcome of query modification.
type Modified struct {
	// Applied lists, per alias, the permissions whose qualifications were
	// attached (ORed together per alias).
	Applied map[string][]Permission
}

// Query runs the modification algorithm and, when authorized, evaluates
// the modified query. A denial returns a nil relation and an error naming
// the uncovered attributes.
func (s *System) Query(user string, def *cview.Def) (*relation.Relation, *Modified, error) {
	an, err := cview.Analyze(def, s.sch)
	if err != nil {
		return nil, nil, err
	}
	// Addressed attributes per alias: projection columns plus every
	// attribute appearing in the qualification.
	addressed := make(map[string]map[string]bool)
	touch := func(c cview.ColRef) {
		if addressed[c.Alias] == nil {
			addressed[c.Alias] = make(map[string]bool)
		}
		addressed[c.Alias][c.Attr] = true
	}
	for _, c := range def.Cols {
		touch(c)
	}
	for _, c := range def.Where {
		touch(c.L)
		if c.R.IsCol {
			touch(c.R.Col)
		}
	}
	mod := &Modified{Applied: make(map[string][]Permission)}
	for _, sc := range an.Scans {
		need := addressed[sc.Alias]
		var applicable []Permission
		for _, p := range s.perms {
			if p.User != user || p.Rel != sc.Rel {
				continue
			}
			if coversAttrs(p.Attrs, need) {
				applicable = append(applicable, p)
			}
		}
		if len(applicable) == 0 {
			return nil, nil, fmt.Errorf("access denied: no permission of %s on %s covers attributes %v",
				user, sc.Rel, keys(need))
		}
		mod.Applied[sc.Alias] = applicable
	}

	// Evaluate: the base conjunctive query filtered by, per alias, the
	// disjunction of the applicable permissions' qualifications.
	ans, err := s.evalModified(an, mod)
	if err != nil {
		return nil, nil, err
	}
	return ans, mod, nil
}

func coversAttrs(have []string, need map[string]bool) bool {
	set := make(map[string]bool, len(have))
	for _, a := range have {
		set[a] = true
	}
	for a := range need {
		if !set[a] {
			return false
		}
	}
	return true
}

func keys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

// evalModified evaluates the query with the per-alias permission
// disjunctions. Because the added qualifications are disjunctive, the
// conjunctive evaluators cannot express them directly; the filter is
// applied tuple-wise on each scan before the join, which is equivalent and
// keeps the baseline honest about delivered rows.
func (s *System) evalModified(an *cview.Analyzed, mod *Modified) (*relation.Relation, error) {
	parts := make(map[string]*relation.Relation, len(an.Scans))
	for _, sc := range an.Scans {
		base, err := s.src(sc.Rel)
		if err != nil {
			return nil, err
		}
		rs := s.sch.Lookup(sc.Rel)
		perms := mod.Applied[sc.Alias]
		filtered := base.Select(func(t relation.Tuple) bool {
			return anyPermMatches(rs, perms, t)
		})
		parts[sc.Alias] = filtered
	}
	src := func(alias string) (*relation.Relation, error) {
		r, ok := parts[alias]
		if !ok {
			return nil, fmt.Errorf("unknown scan %s", alias)
		}
		return r, nil
	}
	// Rebuild the plan against alias-named restricted inputs.
	psj := &algebra.PSJ{Cols: an.PSJ.Cols, Preds: an.PSJ.Preds}
	for _, sc := range an.Scans {
		psj.Scans = append(psj.Scans, algebra.Scan{Rel: sc.Alias, Alias: sc.Alias})
	}
	return algebra.EvalNaive(psj, src, nil)
}

// anyPermMatches evaluates the disjunction of the permissions'
// conjunctive qualifications on one tuple.
func anyPermMatches(rs *relation.Schema, perms []Permission, t relation.Tuple) bool {
	for _, p := range perms {
		ok := true
		for _, q := range p.Quals {
			l := t[rs.AttrIndex(q.Attr)]
			r := q.Const
			if q.IsAtt {
				r = t[rs.AttrIndex(q.RAttr)]
			}
			if !q.Op.Eval(l, r) {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}
