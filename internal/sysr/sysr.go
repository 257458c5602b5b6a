// Package sysr reimplements the System R authorization mechanism of
// Griffiths and Wade (TODS 1976) to the extent the paper's §1 comparison
// requires: SELECT privileges on tables and views, GRANT OPTION,
// timestamped recursive revocation, and — crucially — views as access
// windows. A query is authorized all-or-nothing: the user needs SELECT on
// every object the query references, and privileges on a view V of A and B
// authorize queries against V only, never against A or B themselves, even
// when the request falls entirely within V.
package sysr

import (
	"fmt"
	"sort"

	"authdb/internal/algebra"
	"authdb/internal/cview"
	"authdb/internal/relation"
)

// Grant is one row of SYSAUTH: grantor gave grantee SELECT on object,
// possibly with the grant option, at logical time TS.
type Grant struct {
	TS      int
	Grantor string
	Grantee string
	Object  string
	Option  bool
}

// System is a System R–style authorization authority over a database.
type System struct {
	sch    *relation.DBSchema
	src    algebra.Source
	owners map[string]string // object -> owner (tables and views)
	views  map[string]*cview.Def
	grants []Grant
	clock  int
}

// New creates the authority over an existing database scheme and source.
// Each base relation is assigned to owner (the DBA figure), who holds all
// privileges with the grant option.
func New(sch *relation.DBSchema, src algebra.Source, owner string) *System {
	s := &System{
		sch:    sch,
		src:    src,
		owners: make(map[string]string),
		views:  make(map[string]*cview.Def),
	}
	for _, n := range sch.Names() {
		s.owners[n] = owner
	}
	return s
}

// DefineView registers a conjunctive view over base relations. The
// definer must hold SELECT on every underlying relation; the view's
// grant option derives from holding the option on all of them.
func (s *System) DefineView(definer string, def *cview.Def) error {
	if def.Name == "" {
		return fmt.Errorf("view must be named")
	}
	if _, ok := s.views[def.Name]; ok || s.sch.Lookup(def.Name) != nil {
		return fmt.Errorf("object %s already exists", def.Name)
	}
	an, err := cview.Analyze(def, s.sch)
	if err != nil {
		return err
	}
	for _, sc := range an.Scans {
		if !s.HasSelect(definer, sc.Rel) {
			return fmt.Errorf("%s lacks SELECT on %s", definer, sc.Rel)
		}
	}
	s.views[def.Name] = def
	s.owners[def.Name] = definer
	return nil
}

// GrantSelect records a grant; the grantor must hold SELECT with the
// grant option on the object.
func (s *System) GrantSelect(grantor, grantee, object string, withOption bool) error {
	if s.owners[object] == "" {
		return fmt.Errorf("unknown object %s", object)
	}
	if !s.hasOption(grantor, object) {
		return fmt.Errorf("%s lacks the grant option on %s", grantor, object)
	}
	s.clock++
	s.grants = append(s.grants, Grant{
		TS: s.clock, Grantor: grantor, Grantee: grantee, Object: object, Option: withOption,
	})
	return nil
}

// RevokeSelect removes every grant of object from revoker to revokee and
// then recursively invalidates grants that can no longer be supported —
// the Griffiths–Wade semantics: a grant at time t stands only if the
// grantor held the grant option from still-valid earlier grants (or
// ownership).
func (s *System) RevokeSelect(revoker, revokee, object string) int {
	kept := s.grants[:0]
	removed := 0
	for _, g := range s.grants {
		if g.Object == object && g.Grantor == revoker && g.Grantee == revokee {
			removed++
			continue
		}
		kept = append(kept, g)
	}
	s.grants = kept
	if removed > 0 {
		removed += s.rebuild()
	}
	return removed
}

// rebuild drops grants whose support chain broke, iterating to a fixpoint;
// it returns how many fell.
func (s *System) rebuild() int {
	dropped := 0
	for {
		changed := false
		kept := s.grants[:0]
		for _, g := range s.grants {
			if s.supportedBefore(g.Grantor, g.Object, g.TS) {
				kept = append(kept, g)
			} else {
				dropped++
				changed = true
			}
		}
		s.grants = kept
		if !changed {
			return dropped
		}
	}
}

// supportedBefore reports whether user held the grant option on object
// strictly before time ts (ownership counts from the beginning).
func (s *System) supportedBefore(user, object string, ts int) bool {
	if s.owners[object] == user {
		return true
	}
	for _, g := range s.grants {
		if g.Grantee == user && g.Object == object && g.Option && g.TS < ts {
			return true
		}
	}
	return false
}

// hasOption reports whether user may grant SELECT on object now.
func (s *System) hasOption(user, object string) bool {
	return s.supportedBefore(user, object, s.clock+1)
}

// HasSelect reports whether user may read object.
func (s *System) HasSelect(user, object string) bool {
	if s.owners[object] == user {
		return true
	}
	for _, g := range s.grants {
		if g.Grantee == user && g.Object == object {
			return true
		}
	}
	return false
}

// Grants returns a snapshot of the current grant table, ordered by time.
func (s *System) Grants() []Grant {
	out := append([]Grant(nil), s.grants...)
	sort.Slice(out, func(i, j int) bool { return out[i].TS < out[j].TS })
	return out
}

// Query authorizes and answers def all-or-nothing. The definition may
// reference base relations and views (by name, single occurrence each for
// views); SELECT is required on every referenced object. There is no
// partial delivery: any missing privilege rejects the query — the System R
// behaviour the paper's §1 criticises.
func (s *System) Query(user string, def *cview.Def) (*relation.Relation, error) {
	// Split references into views and base relations.
	viewRefs := make(map[string]bool)
	for _, a := range def.Aliases() {
		base := relation.BaseOfAlias(a)
		if _, ok := s.views[base]; ok {
			viewRefs[base] = true
			continue
		}
		if s.sch.Lookup(base) == nil {
			return nil, fmt.Errorf("unknown object %s", base)
		}
		if !s.HasSelect(user, base) {
			return nil, fmt.Errorf("access denied: %s lacks SELECT on %s", user, base)
		}
	}
	for v := range viewRefs {
		if !s.HasSelect(user, v) {
			return nil, fmt.Errorf("access denied: %s lacks SELECT on %s", user, v)
		}
	}
	// Materialize referenced views and evaluate over the extended scheme.
	sch, src, err := s.extend(viewRefs)
	if err != nil {
		return nil, err
	}
	an, err := cview.Analyze(def, sch)
	if err != nil {
		return nil, err
	}
	return algebra.EvalPSJ(an.PSJ, src, nil, algebra.ExecOptions{}, nil)
}

// viewColumns names a view's output columns: bare attribute names, with
// duplicates disambiguated by a numeric suffix (System R's column
// renaming).
func viewColumns(def *cview.Def) []string {
	count := make(map[string]int, len(def.Cols))
	for _, c := range def.Cols {
		count[c.Attr]++
	}
	seen := make(map[string]int, len(def.Cols))
	attrs := make([]string, len(def.Cols))
	for i, c := range def.Cols {
		if count[c.Attr] == 1 {
			attrs[i] = c.Attr
			continue
		}
		seen[c.Attr]++
		attrs[i] = fmt.Sprintf("%s_%d", c.Attr, seen[c.Attr])
	}
	return attrs
}

// extend builds a scheme and source where each referenced view appears as
// a (materialized) relation named after it, with bare column names.
func (s *System) extend(viewRefs map[string]bool) (*relation.DBSchema, algebra.Source, error) {
	sch := relation.NewDBSchema()
	for _, n := range s.sch.Names() {
		if err := sch.Add(s.sch.Lookup(n)); err != nil {
			return nil, nil, err
		}
	}
	mat := make(map[string]*relation.Relation)
	for v := range viewRefs {
		def := s.views[v]
		an, err := cview.Analyze(def, s.sch)
		if err != nil {
			return nil, nil, err
		}
		r, err := algebra.EvalPSJ(an.PSJ, s.src, nil, algebra.ExecOptions{}, nil)
		if err != nil {
			return nil, nil, err
		}
		attrs := viewColumns(def)
		vs, err := relation.NewSchema(v, attrs)
		if err != nil {
			return nil, nil, err
		}
		if err := sch.Add(vs); err != nil {
			return nil, nil, err
		}
		mat[v] = r.Rename(attrs)
	}
	src := func(name string) (*relation.Relation, error) {
		if r, ok := mat[name]; ok {
			return r, nil
		}
		return s.src(name)
	}
	return sch, src, nil
}
