package core

import (
	"fmt"
	"io"
	"maps"
	"slices"
	"sort"

	"authdb/internal/algebra"
	"authdb/internal/cview"
	"authdb/internal/interval"
	"authdb/internal/relation"
	"authdb/internal/value"
)

// StoredCell is a compiled meta-tuple cell at rest: the variable is still
// a display name and its COMPARISON constraints live in the view's VarIv
// table, mirroring the paper's storage scheme where comparative
// subformulas sit in the auxiliary COMPARISON relation.
type StoredCell struct {
	Star bool
	Var  string
	// Const holds the constant for substituted equalities; nil otherwise.
	Const *value.Value
}

// StoredTuple is one membership subformula of a view, compiled to a
// meta-tuple over relation Rel (the row the paper stores in R').
type StoredTuple struct {
	Alias string
	Rel   string
	Cells []StoredCell
}

// StoredVarCmp is a COMPARISON row relating two variables.
type StoredVarCmp struct {
	X  string
	Op value.Cmp
	Y  string
}

// StoredView is one compiled conjunctive branch of a view definition: its
// meta-tuples, the interval form of its variable constraints, and where
// each variable occurs. Conjunctive views have exactly one branch;
// disjunctive views (§6 extension) one per disjunct.
type StoredView struct {
	Name string
	// Branch is the disjunct index (0 for conjunctive views).
	Branch int
	// Key identifies the branch in provenance references.
	Key    string
	Def    *cview.Def
	Tuples []StoredTuple
	// PSJ is the branch's query in normal form; Tuples[i] is the
	// meta-tuple of PSJ.Scans[i].
	PSJ *algebra.PSJ
	// VarIv maps variable names to the conjunction of their constant
	// comparisons from COMPARISON, in interval form.
	VarIv map[string]interval.Interval
	// VarOccs maps variable names to the indices of Tuples mentioning
	// them.
	VarOccs map[string][]int
	// VarCmps holds the symbolic variable-to-variable comparisons.
	VarCmps []StoredVarCmp
}

// viewEntry binds a view's original definition to its compiled branches.
type viewEntry struct {
	def      *cview.Def
	branches []*StoredView
}

// Store holds the authorization state the paper adds to the database: the
// meta-relations R' (grouped here by view), the COMPARISON relation (as
// per-view variable constraints), and the PERMISSION relation. A
// mutation never writes to a map or slice it did not build, so clones
// share everything they have not changed since.
type Store struct {
	sch      *relation.DBSchema
	views    map[string]*viewEntry
	order    []string
	perms    *permTable
	varCount int
	// viewGen counts view-set mutations (define, drop). Masks derive
	// from the participating views' definitions alone, so a closure
	// entry keyed on those views and stamped with viewGen stays valid as
	// long as the mask it holds, whatever the data does. The engine's
	// lock serializes mutations, so this is a plain counter.
	viewGen uint64
}

// NewStore creates an empty authorization store over a database scheme.
func NewStore(sch *relation.DBSchema) *Store {
	return &Store{
		sch:   sch,
		views: make(map[string]*viewEntry),
		perms: new(permTable),
	}
}

// Clone returns a copy of the store bound to sch that can be mutated
// without affecting the original — the copy-on-write step a versioned
// engine takes before a definition change (define/drop view, permit,
// revoke), so readers pinned to the old store keep a stable
// meta-database. It copies no map or slice (see Store). The view
// generation carries over, keeping it monotone along the clone lineage —
// which is what lets one Closure serve every version: an entry whose
// key and viewGen stamp match a pinned store was compiled from identical
// definitions.
func (s *Store) Clone(sch *relation.DBSchema) *Store {
	ns := *s
	ns.sch = sch
	return &ns
}

// ViewGen returns the view-set mutation generation; it advances on every
// DefineView and DropView.
func (s *Store) ViewGen() uint64 { return s.viewGen }

// perm returns user's record, or the zero record.
func (s *Store) perm(user string) permRec { return s.perms.get(user) }

// setPerm publishes user's new record.
func (s *Store) setPerm(user string, r permRec) { s.perms = s.perms.with(user, r) }

// Schema returns the database scheme the store is defined over.
func (s *Store) Schema() *relation.DBSchema { return s.sch }

// ViewNames returns the defined views in definition order.
func (s *Store) ViewNames() []string { return append([]string(nil), s.order...) }

// Branches returns every compiled branch of a view (one for conjunctive
// views, one per disjunct otherwise), or nil.
func (s *Store) Branches(name string) []*StoredView {
	e := s.views[name]
	if e == nil {
		return nil
	}
	return e.branches
}

// ViewDef returns a view's original definition, or nil.
func (s *Store) ViewDef(name string) *cview.Def {
	e := s.views[name]
	if e == nil {
		return nil
	}
	return e.def
}

// Users returns the users holding any permit, sorted.
func (s *Store) Users() []string {
	var out []string
	s.perms.each(func(u string, r permRec) {
		if len(r.views) > 0 {
			out = append(out, u)
		}
	})
	sort.Strings(out)
	return out
}

// DefineView compiles a view definition into meta-tuples and stores it.
// This is the automatic translation the paper's §6 front-end performs:
// "the system will insert automatically the appropriate meta-tuples into
// the meta-relations".
func (s *Store) DefineView(def *cview.Def) error {
	if def.Name == "" {
		return fmt.Errorf("view definition must be named")
	}
	if _, ok := s.views[def.Name]; ok {
		return fmt.Errorf("view %s already defined", def.Name)
	}
	entry := &viewEntry{def: def}
	for bi := range def.Branches() {
		v, used, err := s.compile(def.Branch(bi))
		if err != nil {
			return err
		}
		v.Branch = bi
		v.Key = def.Name
		if bi > 0 {
			v.Key = fmt.Sprintf("%s#%d", def.Name, bi)
		}
		// Variable names must stay unique across branches.
		s.varCount += used
		entry.branches = append(entry.branches, v)
	}
	s.views = maps.Clone(s.views)
	s.views[def.Name] = entry
	s.order = append(slices.Clip(s.order), def.Name)
	s.viewGen++
	return nil
}

// DropView removes a view and every permit referencing it.
func (s *Store) DropView(name string) bool {
	if _, ok := s.views[name]; !ok {
		return false
	}
	s.views = maps.Clone(s.views)
	delete(s.views, name)
	s.order = slices.DeleteFunc(slices.Clone(s.order), func(n string) bool { return n == name })
	var held []permEntry
	s.perms.each(func(u string, r permRec) {
		if r.index(name) >= 0 {
			held = append(held, permEntry{u, r})
		}
	})
	for _, e := range held {
		j := e.rec.index(name)
		s.setPerm(e.user, permRec{views: slices.Concat(e.rec.views[:j], e.rec.views[j+1:])})
	}
	s.viewGen++
	return true
}

// Permit records a (user, view) row in PERMISSION.
func (s *Store) Permit(view, user string) error {
	e, ok := s.views[view]
	if !ok {
		return fmt.Errorf("unknown view %s", view)
	}
	r := s.perm(user)
	if r.index(view) >= 0 {
		return nil // idempotent
	}
	s.setPerm(user, permRec{views: append(slices.Clip(r.views), e)})
	return nil
}

// Revoke removes a (user, view) row; it reports whether one existed.
func (s *Store) Revoke(view, user string) bool {
	r := s.perm(user)
	i := r.index(view)
	if i < 0 {
		return false
	}
	s.setPerm(user, permRec{views: slices.Concat(r.views[:i], r.views[i+1:])})
	return true
}

// ViewsFor returns the views permitted to user, in grant order.
func (s *Store) ViewsFor(user string) []string {
	var out []string
	for _, e := range s.perm(user).views {
		out = append(out, e.def.Name)
	}
	return out
}

// compile translates a conjunctive view definition into stored meta-tuples
// following §3: membership subformulas become meta-tuples (projected
// positions starred, once-occurring variables blanked); equality
// comparisons are substituted away; the remaining comparisons become
// COMPARISON entries (constant ones folded to intervals, symbolic ones
// kept). It returns the number of variable names consumed.
func (s *Store) compile(def *cview.Def) (*StoredView, int, error) {
	an, err := cview.Analyze(def, s.sch)
	if err != nil {
		return nil, 0, err
	}
	v := &StoredView{
		Name:    def.Name,
		Key:     def.Name,
		Def:     def,
		PSJ:     an.PSJ,
		VarIv:   make(map[string]interval.Interval),
		VarOccs: make(map[string][]int),
	}
	tupleOf := make(map[string]int, len(an.Scans))
	for i, sc := range an.Scans {
		rs := s.sch.Lookup(sc.Rel)
		cells := make([]StoredCell, rs.Arity())
		v.Tuples = append(v.Tuples, StoredTuple{Alias: sc.Alias, Rel: sc.Rel, Cells: cells})
		tupleOf[sc.Alias] = i
	}
	// Union-find over qualified attribute positions, driven by the
	// equality conditions ("all occurrences of d1 are substituted with
	// d2", §3).
	parent := make(map[string]string)
	var find func(string) string
	find = func(x string) string {
		p, ok := parent[x]
		if !ok || p == x {
			parent[x] = x
			return x
		}
		r := find(p)
		parent[x] = r
		return r
	}
	union := func(a, b string) { parent[find(a)] = find(b) }
	consts := make(map[string]value.Value) // root -> pinned constant
	for _, c := range def.Where {
		if c.Op != value.EQ {
			continue
		}
		lq := c.L.Qualified()
		if c.R.IsCol {
			ra, rb := find(lq), find(c.R.Col.Qualified())
			if ra == rb {
				continue
			}
			cv, cok := consts[ra]
			dv, dok := consts[rb]
			if cok && dok && !cv.Equal(dv) {
				return nil, 0, fmt.Errorf("view %s: contradictory equalities (%s vs %s)", def.Name, cv, dv)
			}
			union(ra, rb)
			r := find(ra)
			if cok {
				consts[r] = cv
			} else if dok {
				consts[r] = dv
			}
		} else {
			r := find(lq)
			if prev, ok := consts[r]; ok && !prev.Equal(c.R.Const) {
				return nil, 0, fmt.Errorf("view %s: attribute %s equated to both %s and %s", def.Name, lq, prev, c.R.Const)
			}
			consts[r] = c.R.Const
		}
	}

	// Projection stars apply to whole equality groups: in the calculus
	// form the equated occurrences are one projected variable, so every
	// occurrence is suffixed with * (Figure 1 stars ASSIGNMENT's x1 and
	// x2 although the view projects EMPLOYEE.NAME and PROJECT.NUMBER).
	starred := make(map[string]bool, len(def.Cols))
	for _, c := range def.Cols {
		starred[find(c.Qualified())] = true
	}

	// Count group membership to distinguish join variables from
	// once-occurring ones.
	members := make(map[string][]string)
	for ti := range v.Tuples {
		rs := s.sch.Lookup(v.Tuples[ti].Rel)
		for ci := range v.Tuples[ti].Cells {
			q := v.Tuples[ti].Alias + "." + rs.Attrs[ci]
			r := find(q)
			members[r] = append(members[r], q)
		}
	}

	// Allocate variable names in condition order, so the compiled form
	// matches the paper's figure (x1, x2, x3 for ELP; x4 for EST; …).
	varName := make(map[string]string) // root -> variable
	next := 0
	alloc := func(root string) string {
		if n, ok := varName[root]; ok {
			return n
		}
		if _, ok := consts[root]; ok {
			return "" // substituted by a constant
		}
		next++
		n := fmt.Sprintf("x%d", s.varCount+next)
		varName[root] = n
		v.VarIv[n] = interval.Full()
		return n
	}
	for _, c := range def.Where {
		switch {
		case c.Op == value.EQ && c.R.IsCol:
			r := find(c.L.Qualified())
			if len(members[r]) > 1 {
				alloc(r)
			}
		case c.Op != value.EQ:
			alloc(find(c.L.Qualified()))
			if c.R.IsCol {
				alloc(find(c.R.Col.Qualified()))
			}
		}
	}

	// Fold the non-equality comparisons into variable intervals or keep
	// them as symbolic COMPARISON rows.
	for _, c := range def.Where {
		if c.Op == value.EQ {
			continue
		}
		lr := find(c.L.Qualified())
		lc, lIsConst := consts[lr]
		if !c.R.IsCol {
			if lIsConst {
				if !c.Op.Eval(lc, c.R.Const) {
					return nil, 0, fmt.Errorf("view %s: condition %s is contradictory", def.Name, c)
				}
				continue
			}
			x := varName[lr]
			iv := interval.Intersect(v.VarIv[x], interval.FromCmp(c.Op, c.R.Const))
			if iv.IsEmpty() {
				return nil, 0, fmt.Errorf("view %s: conditions on %s are contradictory", def.Name, c.L.Qualified())
			}
			v.VarIv[x] = iv
			continue
		}
		rr := find(c.R.Col.Qualified())
		rc, rIsConst := consts[rr]
		switch {
		case lIsConst && rIsConst:
			if !c.Op.Eval(lc, rc) {
				return nil, 0, fmt.Errorf("view %s: condition %s is contradictory", def.Name, c)
			}
		case lIsConst:
			y := varName[rr]
			iv := interval.Intersect(v.VarIv[y], interval.FromCmp(c.Op.Flip(), lc))
			if iv.IsEmpty() {
				return nil, 0, fmt.Errorf("view %s: conditions on %s are contradictory", def.Name, c.R.Col.Qualified())
			}
			v.VarIv[y] = iv
		case rIsConst:
			x := varName[lr]
			iv := interval.Intersect(v.VarIv[x], interval.FromCmp(c.Op, rc))
			if iv.IsEmpty() {
				return nil, 0, fmt.Errorf("view %s: conditions on %s are contradictory", def.Name, c.L.Qualified())
			}
			v.VarIv[x] = iv
		case lr == rr:
			// Same group on both sides: A θ A is contradictory unless θ
			// admits equality.
			if c.Op == value.LT || c.Op == value.GT || c.Op == value.NE {
				return nil, 0, fmt.Errorf("view %s: condition %s is contradictory", def.Name, c)
			}
		default:
			v.VarCmps = append(v.VarCmps, StoredVarCmp{X: varName[lr], Op: c.Op, Y: varName[rr]})
		}
	}

	// Fill the cells and the occurrence index.
	occSeen := make(map[string]map[int]bool)
	for ti := range v.Tuples {
		rs := s.sch.Lookup(v.Tuples[ti].Rel)
		for ci := range v.Tuples[ti].Cells {
			q := v.Tuples[ti].Alias + "." + rs.Attrs[ci]
			r := find(q)
			v.Tuples[ti].Cells[ci].Star = starred[r]
			if cv, ok := consts[r]; ok {
				c := cv
				v.Tuples[ti].Cells[ci].Const = &c
				continue
			}
			if n, ok := varName[r]; ok {
				v.Tuples[ti].Cells[ci].Var = n
				if occSeen[n] == nil {
					occSeen[n] = make(map[int]bool)
				}
				if !occSeen[n][ti] {
					occSeen[n][ti] = true
					v.VarOccs[n] = append(v.VarOccs[n], ti)
				}
			}
		}
	}
	return v, next, nil
}

// RenderMeta writes the stored meta-relation R' for one base relation in
// the notation of Figure 1 (VIEW column plus one column per attribute).
func (s *Store) RenderMeta(w io.Writer, rel string) {
	rs := s.sch.Lookup(rel)
	if rs == nil {
		return
	}
	var rows [][]string
	for _, name := range s.order {
		for _, v := range s.views[name].branches {
			for _, t := range v.Tuples {
				if t.Rel != rel {
					continue
				}
				row := []string{name}
				for _, c := range t.Cells {
					row = append(row, renderStoredCell(c))
				}
				rows = append(rows, row)
			}
		}
	}
	relation.RenderTable(w, rel+"'", append([]string{"VIEW"}, rs.Attrs...), rows, false)
}

func renderStoredCell(c StoredCell) string {
	s := ""
	switch {
	case c.Const != nil:
		s = c.Const.String()
	case c.Var != "":
		s = c.Var
	}
	if c.Star {
		s += "*"
	}
	return s
}

// RenderComparison writes the COMPARISON relation: one row per constant
// bound of each constrained variable plus the symbolic rows.
func (s *Store) RenderComparison(w io.Writer) {
	var rows [][]string
	for _, name := range s.order {
		for _, v := range s.views[name].branches {
			vars := make([]string, 0, len(v.VarIv))
			for x := range v.VarIv {
				vars = append(vars, x)
			}
			sort.Strings(vars)
			for _, x := range vars {
				for _, cond := range comparisonRows(x, v.VarIv[x]) {
					rows = append(rows, append([]string{name}, cond...))
				}
			}
			for _, c := range v.VarCmps {
				rows = append(rows, []string{name, c.X, c.Op.String(), c.Y})
			}
		}
	}
	relation.RenderTable(w, "COMPARISON", []string{"VIEW", "X", "COMPARE", "Y"}, rows, false)
}

// comparisonRows decomposes an interval back into COMPARISON triples.
func comparisonRows(x string, iv interval.Interval) [][]string {
	var out [][]string
	if v, ok := iv.IsPoint(); ok {
		return [][]string{{x, "=", v.String()}}
	}
	if iv.Lo.Bounded {
		op := ">="
		if iv.Lo.Open {
			op = ">"
		}
		out = append(out, []string{x, op, iv.Lo.V.String()})
	}
	if iv.Hi.Bounded {
		op := "<="
		if iv.Hi.Open {
			op = "<"
		}
		out = append(out, []string{x, op, iv.Hi.V.String()})
	}
	for _, n := range iv.Excluded() {
		out = append(out, []string{x, "!=", n.String()})
	}
	return out
}

// RenderPermission writes the PERMISSION relation in grant order.
func (s *Store) RenderPermission(w io.Writer) {
	var rows [][]string
	for _, u := range s.Users() {
		for _, e := range s.perm(u).views {
			rows = append(rows, []string{u, e.def.Name})
		}
	}
	relation.RenderTable(w, "PERMISSION", []string{"USER", "VIEW"}, rows, false)
}
