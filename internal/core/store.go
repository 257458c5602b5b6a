package core

import (
	"fmt"
	"io"
	"maps"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"

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

// viewEntry binds a view's original definition to its compiled branches
// and the definition's id, which no other definition in the process
// shares, in any store: a view dropped and redefined under the same name
// gets a new one. The closure's key names definitions by it.
type viewEntry struct {
	id       uint64
	def      *cview.Def
	branches []*StoredView
}

// Store holds the authorization state the paper adds to the database: the
// meta-relations R' (grouped here by view), the COMPARISON relation (as
// per-view variable constraints), and the PERMISSION relation. A
// mutation never writes to a map or slice it did not build, so clones
// share everything they have not changed since.
type Store struct {
	sch   *relation.DBSchema
	views map[string]*viewEntry
	order []*viewEntry
	perms *permTable
	// restricted marks a store Of built for owner.
	restricted bool
	owner      string
}

// defIDs counts the definitions ever stored by any store in the process;
// each takes the next value as its id. One counter for every store keeps
// ids unique across stores that do not descend from one another — a
// replica's rebuilt store, a clone that is abandoned while its parent
// goes on — so a closure shared by all of them never confuses two
// definitions.
var defIDs atomic.Uint64

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
// meta-database. It copies no map or slice (see Store).
func (s *Store) Clone(sch *relation.DBSchema) *Store {
	ns := *s
	ns.sch = sch
	return &ns
}

// Of returns the part of the meta-database user's permits name: only the
// views user is permitted, in grant order, and only user's PERMISSION
// rows. It is read-only; it shares the scheme, the grant list and the
// stored branches with s. On a store Of built for user it returns that
// store, so a caller may restrict a store it was handed again at no cost.
func (s *Store) Of(user string) *Store {
	if s.restricted && s.owner == user {
		return s
	}
	r := s.perm(user)
	o := &Store{sch: s.sch, views: make(map[string]*viewEntry, len(r.views)), order: r.views,
		perms: new(permTable).with(user, r), restricted: true, owner: user}
	for _, e := range r.views {
		o.views[e.def.Name] = e
	}
	return o
}

// perm returns user's record, or the zero record.
func (s *Store) perm(user string) permRec { return s.perms.get(user) }

// setPerm publishes user's new record.
func (s *Store) setPerm(user string, r permRec) { s.perms = s.perms.with(user, r) }

// Schema returns the database scheme the store is defined over.
func (s *Store) Schema() *relation.DBSchema { return s.sch }

// ViewNames returns the defined views in definition order (in grant
// order on a store built by Of).
func (s *Store) ViewNames() []string {
	var out []string
	for _, e := range s.order {
		out = append(out, e.def.Name)
	}
	return out
}

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
		v, err := s.compile(def.Branch(bi))
		if err != nil {
			return err
		}
		v.Branch = bi
		v.Key = def.Name
		if bi > 0 {
			v.Key = fmt.Sprintf("%s#%d", def.Name, bi)
		}
		entry.branches = append(entry.branches, v)
	}
	s.views = maps.Clone(s.views)
	s.views[def.Name] = entry
	s.order = append(slices.Clip(s.order), entry)
	entry.id = defIDs.Add(1)
	return nil
}

// DropView removes a view and every permit referencing it.
func (s *Store) DropView(name string) bool {
	if _, ok := s.views[name]; !ok {
		return false
	}
	s.views = maps.Clone(s.views)
	delete(s.views, name)
	s.order = slices.DeleteFunc(slices.Clone(s.order), func(e *viewEntry) bool { return e.def.Name == name })
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
func (s *Store) ViewsFor(user string) []string { return s.Of(user).ViewNames() }

// compile translates a conjunctive view definition into stored meta-tuples
// following §3: membership subformulas become meta-tuples (projected
// positions starred, once-occurring variables blanked); equality
// comparisons are substituted away; the remaining comparisons become
// COMPARISON entries (constant ones folded to intervals, symbolic ones
// kept). Variables are named x1, x2, … within the branch; a rendering
// shifts them past the variables it has rendered before (shifted).
func (s *Store) compile(def *cview.Def) (*StoredView, error) {
	an, err := cview.Analyze(def, s.sch)
	if err != nil {
		return nil, err
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
				return nil, fmt.Errorf("view %s: contradictory equalities (%s vs %s)", def.Name, cv, dv)
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
				return nil, fmt.Errorf("view %s: attribute %s equated to both %s and %s", def.Name, lq, prev, c.R.Const)
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
	// matches the paper's figure (x1, x2, x3 for ELP; x4 for EST once
	// shifted past ELP's three; …).
	varName := make(map[string]string) // root -> variable
	alloc := func(root string) string {
		if n, ok := varName[root]; ok {
			return n
		}
		if _, ok := consts[root]; ok {
			return "" // substituted by a constant
		}
		n := fmt.Sprintf("x%d", len(v.VarIv)+1)
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
					return nil, fmt.Errorf("view %s: condition %s is contradictory", def.Name, c)
				}
				continue
			}
			x := varName[lr]
			iv := interval.Intersect(v.VarIv[x], interval.FromCmp(c.Op, c.R.Const))
			if iv.IsEmpty() {
				return nil, fmt.Errorf("view %s: conditions on %s are contradictory", def.Name, c.L.Qualified())
			}
			v.VarIv[x] = iv
			continue
		}
		rr := find(c.R.Col.Qualified())
		rc, rIsConst := consts[rr]
		switch {
		case lIsConst && rIsConst:
			if !c.Op.Eval(lc, rc) {
				return nil, fmt.Errorf("view %s: condition %s is contradictory", def.Name, c)
			}
		case lIsConst:
			y := varName[rr]
			iv := interval.Intersect(v.VarIv[y], interval.FromCmp(c.Op.Flip(), lc))
			if iv.IsEmpty() {
				return nil, fmt.Errorf("view %s: conditions on %s are contradictory", def.Name, c.R.Col.Qualified())
			}
			v.VarIv[y] = iv
		case rIsConst:
			x := varName[lr]
			iv := interval.Intersect(v.VarIv[x], interval.FromCmp(c.Op, rc))
			if iv.IsEmpty() {
				return nil, fmt.Errorf("view %s: conditions on %s are contradictory", def.Name, c.L.Qualified())
			}
			v.VarIv[x] = iv
		case lr == rr:
			// Same group on both sides: A θ A is contradictory unless θ
			// admits equality.
			if c.Op == value.LT || c.Op == value.GT || c.Op == value.NE {
				return nil, fmt.Errorf("view %s: condition %s is contradictory", def.Name, c)
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
	return v, nil
}

// shifted returns the display name of branch-local variable x (x1, x2,
// …) when base variables are rendered before its branch.
func shifted(x string, base int) string {
	n, _ := strconv.Atoi(x[1:])
	return "x" + strconv.Itoa(n+base)
}

// eachBranch calls f for every branch of the store's views in order,
// with the number of variables in the branches before it (shifted): on
// the whole store, Figure 1's numbering in definition order.
func (s *Store) eachBranch(f func(v *StoredView, base int)) {
	base := 0
	for _, e := range s.order {
		for _, v := range e.branches {
			f(v, base)
			base += len(v.VarIv)
		}
	}
}

// Calculus renders a compiled branch as a domain relational calculus
// expression in the notation of §2, for the REPL's "show view". The
// meta-tuples are the formula's memberships with its equalities already
// substituted (§3), so the rendering reads them: the head names the
// projected groups a1, a2, …; a variable cell prints its group's name, a
// constant cell its constant, any other cell a fresh quantified b_j; the
// comparisons follow from COMPARISON.
func (s *Store) Calculus(v *StoredView) string {
	names := make(map[string]string) // variable, or "tuple.cell" of a cell without one -> name
	key := func(ti, ci int) string {
		if x := v.Tuples[ti].Cells[ci].Var; x != "" {
			return x
		}
		return fmt.Sprint(ti, ".", ci)
	}
	var head, quant, body, cmps []string
	for _, c := range v.Def.Cols {
		ti := slices.IndexFunc(v.Tuples, func(t StoredTuple) bool { return t.Alias == c.Alias })
		ci := s.sch.Lookup(v.Tuples[ti].Rel).AttrIndex(c.Attr)
		k := key(ti, ci)
		if _, ok := names[k]; !ok {
			names[k] = fmt.Sprintf("a%d", len(names)+1)
			if cv := v.Tuples[ti].Cells[ci].Const; cv != nil {
				cmps = append(cmps, names[k]+" = "+cv.String())
			}
		}
		head = append(head, names[k])
	}
	seen := make(map[string]bool)
	for ti, t := range v.Tuples {
		parts := make([]string, len(t.Cells))
		for ci, c := range t.Cells {
			k := key(ti, ci)
			n, ok := names[k]
			switch {
			case !ok && c.Const != nil:
				n = c.Const.String()
			case !ok:
				n = fmt.Sprintf("b%d", len(quant)+1)
				quant = append(quant, "(exists "+n+")")
				names[k] = n
			}
			if c.Var != "" && !seen[c.Var] {
				seen[c.Var] = true
				for _, cmp := range v.VarIv[c.Var].Comparisons() {
					cmps = append(cmps, n+" "+cmp.Op.String()+" "+cmp.V.String())
				}
			}
			parts[ci] = n
		}
		body = append(body, "("+strings.Join(parts, ", ")+") in "+t.Rel)
	}
	for _, c := range v.VarCmps {
		cmps = append(cmps, names[c.X]+" "+c.Op.String()+" "+names[c.Y])
	}
	if len(quant) > 0 {
		quant = append(quant, " ")
	}
	return "{" + strings.Join(head, ", ") + " | " + strings.Join(quant, "") + strings.Join(append(body, cmps...), " and ") + "}"
}

// RenderMeta writes the stored meta-relation R' for one base relation in
// the notation of Figure 1 (VIEW column plus one column per attribute).
// The VIEW column holds the branch's Key, so a disjunct's rows are told
// from the first branch's: V, V#1, ….
func (s *Store) RenderMeta(w io.Writer, rel string) {
	rs := s.sch.Lookup(rel)
	if rs == nil {
		return
	}
	var rows [][]string
	s.eachBranch(func(v *StoredView, base int) {
		for _, t := range v.Tuples {
			if t.Rel != rel {
				continue
			}
			row := []string{v.Key}
			for _, c := range t.Cells {
				row = append(row, renderStoredCell(c, base))
			}
			rows = append(rows, row)
		}
	})
	relation.RenderTable(w, rel+"'", append([]string{"VIEW"}, rs.Attrs...), rows, false)
}

func renderStoredCell(c StoredCell, base int) string {
	s := ""
	switch {
	case c.Const != nil:
		s = c.Const.String()
	case c.Var != "":
		s = shifted(c.Var, base)
	}
	if c.Star {
		s += "*"
	}
	return s
}

// RenderComparison writes the COMPARISON relation: one row per constant
// bound of each constrained variable plus the symbolic rows, each
// labelled with its branch's Key as RenderMeta labels them.
func (s *Store) RenderComparison(w io.Writer) {
	var rows [][]string
	s.eachBranch(func(v *StoredView, base int) {
		for k := 1; k <= len(v.VarIv); k++ {
			x := fmt.Sprintf("x%d", k)
			for _, c := range v.VarIv[x].Comparisons() {
				rows = append(rows, []string{v.Key, shifted(x, base), c.Op.String(), c.V.String()})
			}
		}
		for _, c := range v.VarCmps {
			rows = append(rows, []string{v.Key, shifted(c.X, base), c.Op.String(), shifted(c.Y, base)})
		}
	})
	relation.RenderTable(w, "COMPARISON", []string{"VIEW", "X", "COMPARE", "Y"}, rows, false)
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
