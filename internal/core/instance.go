package core

import (
	"fmt"
	"slices"
	"strings"

	"authdb/internal/interval"
	"authdb/internal/relation"
)

// Options selects the refinements of §4.2, the §6(3) extension, and
// retrieval's closure and pushdown; the zero value disables everything
// (the bare model of §4.1). The ablation experiment (E8) toggles the
// refinements individually. How each side of the pipeline is computed is
// not an option: retrieval plans the meta side (MaskPlanFor) and runs the
// actual side on the indexed executor, and ReferencePlan and Explain reach
// §4.1's order verbatim by name.
type Options struct {
	// Padding extends meta-relation products with the all-blank padding
	// tuples q1, q2 of §4.2, so subviews of one operand survive
	// projections that remove the other operand's attributes.
	Padding bool
	// FourCase enables the §4.2 selection refinement: clear when λ ⇒ μ,
	// keep when μ ⇒ λ, discard contradictions, conjoin otherwise. When
	// false, selection always conjoins (Definition 2 verbatim).
	FourCase bool
	// SelfJoins infers merged meta-tuples from pairs of different views'
	// tuples over the same relation when both project its key (§4.2).
	SelfJoins bool
	// Subsume drops final mask tuples whose reveal is covered by another
	// mask tuple.
	Subsume bool
	// IndexedExec has no effect: the actual side always uses the
	// relations' secondary indexes. It remains while the benchmark
	// harness reads it.
	IndexedExec bool
	// ExtendedMasks enables the §6(3) extension: masks "expressed with
	// additional attributes". The mask is applied before the final
	// projection, so a view's selection conditions on attributes the
	// query did not request (e.g. PSA's SPONSOR = Acme against a query
	// for NUMBER and BUDGET only) still admit the permitted rows instead
	// of losing the mask at projection time. Off by default — the base
	// model stops where Definition 3 stops.
	ExtendedMasks bool
	// ViewCopies caps how many fresh instantiations of one view are made
	// when the query scans a relation more often than the view mentions
	// it; 0 means 1.
	ViewCopies int
}

// DefaultOptions enables every refinement and subsumption — the
// configuration the paper's worked examples assume.
func DefaultOptions() Options {
	return Options{
		Padding:     true,
		FourCase:    true,
		SelfJoins:   true,
		Subsume:     true,
		IndexedExec: true,
		ViewCopies:  2,
	}
}

// Instance is the per-request instantiation of a user's permitted views:
// stored meta-tuples with globally unique variable identities, variable
// provenance for the pruning rule, and the symbolic comparisons.
type Instance struct {
	store *Store
	// byRel maps each base relation to its instantiated meta-tuples
	// (over the relation's bare attributes), including inferred
	// self-joins.
	byRel map[string][]*MetaTuple
	// names maps variable identities to display names.
	names map[VarID]string
	// ivs remembers each variable's original interval (COMPARISON form).
	ivs map[VarID]interval.Interval
	// occs maps each variable to the stored tuples that mention it; a
	// combination lacking any of them leaves the variable dangling.
	occs map[VarID][]CompRef
	next VarID
	// views lists the instantiated view names (post entirety pruning).
	views []string
}

// Instantiate builds the instance for user against a query scanning the
// given relations with the given multiplicities: each branch that takes
// part (participants), in grant order, in as many fresh copies as
// participants names.
func (s *Store) Instantiate(user string, scanCount map[string]int, opt Options) *Instance {
	inst := &Instance{
		store: s,
		byRel: make(map[string][]*MetaTuple),
		names: make(map[VarID]string),
		ivs:   make(map[VarID]interval.Interval),
		occs:  make(map[VarID][]CompRef),
	}
	s.participants(user, func(rel string) int { return scanCount[rel] }, opt, func(name string, v *StoredView, copies int) {
		for cpy := 0; cpy < copies; cpy++ {
			inst.addView(v, cpy)
		}
		if n := len(inst.views); n == 0 || inst.views[n-1] != name {
			inst.views = append(inst.views, name)
		}
	})
	if opt.SelfJoins {
		inst.inferSelfJoins()
	}
	return inst
}

// participants calls f, in grant order, for each branch of user's views
// that takes part in a query scanning each relation scans(rel) times,
// with its number of copies: up to opt.ViewCopies when the query scans
// its relations repeatedly. A branch with a membership tuple over a
// relation the query never scans is pruned (§5: "defined in these
// relations in their entirety"), each disjunct on its own. Instantiate
// builds from it and cacheKey is written from it, so the key names
// exactly the views a mask is computed from.
func (s *Store) participants(user string, scans func(rel string) int, opt Options, f func(name string, v *StoredView, copies int)) {
	for _, e := range s.perm(user).views {
		name := e.def.Name
		for _, v := range e.branches {
			maxScans := 1
			for _, t := range v.Tuples {
				n := scans(t.Rel)
				if n == 0 {
					maxScans = 0
					break
				}
				maxScans = max(maxScans, n)
			}
			if maxScans == 0 {
				continue
			}
			copies := 1
			if opt.ViewCopies > 1 {
				copies = min(maxScans, opt.ViewCopies)
			}
			f(name, v, copies)
		}
	}
}

// addView instantiates one copy of a stored view with fresh variables.
func (inst *Instance) addView(v *StoredView, cpy int) {
	vars := make(map[string]VarID, len(v.VarIv))
	suffix := strings.Repeat("'", cpy)
	idOf := func(local string) VarID {
		if id, ok := vars[local]; ok {
			return id
		}
		inst.next++
		id := inst.next
		vars[local] = id
		inst.names[id] = local + suffix
		iv, ok := v.VarIv[local]
		if !ok {
			iv = interval.Full()
		}
		inst.ivs[id] = iv
		for _, ti := range v.VarOccs[local] {
			inst.occs[id] = append(inst.occs[id], CompRef{View: v.Key, Idx: cpy*len(v.Tuples) + ti})
		}
		return id
	}
	var cmps []VarCmp
	for _, c := range v.VarCmps {
		cmps = append(cmps, VarCmp{X: idOf(c.X), Op: c.Op, Y: idOf(c.Y)})
	}
	for ti, t := range v.Tuples {
		cells := make([]Cell, len(t.Cells))
		mentions := make(map[VarID]bool)
		for ci, sc := range t.Cells {
			switch {
			case sc.Const != nil:
				cells[ci] = Const(*sc.Const, sc.Star)
			case sc.Var != "":
				id := idOf(sc.Var)
				cells[ci] = Cell{Star: sc.Star, Var: id, Cons: inst.ivs[id]}
				mentions[id] = true
			default:
				cells[ci] = Cell{Star: sc.Star, Cons: interval.Full()}
			}
		}
		mt := &MetaTuple{
			Views: []string{v.Name},
			Cells: cells,
			Comps: []CompRef{{View: v.Key, Idx: cpy*len(v.Tuples) + ti}},
		}
		for _, c := range cmps {
			if mentions[c.X] || mentions[c.Y] {
				mt.Cmps = append(mt.Cmps, c)
			}
		}
		inst.byRel[t.Rel] = append(inst.byRel[t.Rel], mt)
	}
}

// VarName returns the display name of a variable.
func (inst *Instance) VarName(v VarID) string {
	if n, ok := inst.names[v]; ok {
		return n
	}
	return fmt.Sprintf("v%d", v)
}

// Views returns the instantiated (entirety-complete, permitted) views.
func (inst *Instance) Views() []string { return append([]string(nil), inst.views...) }

// dangling reports whether variable v dangles in a meta-tuple with the
// given provenance: some stored tuple mentioning v is absent.
func (inst *Instance) dangling(v VarID, m *MetaTuple) bool {
	for _, ref := range inst.occs[v] {
		if !m.hasComp(ref) {
			return true
		}
	}
	return false
}

// hasDangling reports whether any variable of m — in a cell or in a
// symbolic comparison — dangles.
func (inst *Instance) hasDangling(m *MetaTuple) bool {
	for _, c := range m.Cells {
		if c.Var != 0 && inst.dangling(c.Var, m) {
			return true
		}
	}
	for _, c := range m.Cmps {
		if inst.dangling(c.X, m) || inst.dangling(c.Y, m) {
			return true
		}
	}
	return false
}

// needs lists the stored tuples m's variables mention that its own
// provenance lacks: m dangles until a combination supplies every one.
func (inst *Instance) needs(m *MetaTuple) []CompRef {
	var out []CompRef
	add := func(v VarID) {
		for _, ref := range inst.occs[v] {
			if !m.hasComp(ref) && !slices.Contains(out, ref) {
				out = append(out, ref)
			}
		}
	}
	for _, c := range m.Cells {
		if c.Var != 0 {
			add(c.Var)
		}
	}
	for _, c := range m.Cmps {
		add(c.X)
		add(c.Y)
	}
	return out
}

// MetaRelFor returns the instantiated meta-relation for one query scan,
// with attributes qualified by the scan alias. Tuples are cloned so each
// scan (and each authorization run) mutates its own copies; variable
// identities are shared deliberately — two scans of EMPLOYEE both carrying
// EST's x4 is exactly how the view's cross-occurrence join condition is
// expressed (Example 3).
func (inst *Instance) MetaRelFor(rel, alias string) *MetaRel {
	rs := inst.store.sch.Lookup(rel)
	if rs == nil {
		return NewMetaRel(nil)
	}
	mr := NewMetaRel(relation.QualifyAttrs(alias, rs.Attrs))
	for _, t := range inst.byRel[rel] {
		mr.Tuples = append(mr.Tuples, t.clone())
	}
	return mr
}

// inferSelfJoins implements the §4.2 refinement: for every pair of
// meta-tuples of *different* views over the same relation whose subviews
// can participate in a lossless join (both project the relation's declared
// key), add the merged meta-tuple: per attribute, the conjunction of the
// two selection conditions and the union of the projections. Pairs whose
// constraints cannot be conjoined cell-wise without cross-view variable
// unification are skipped (conservative, costs only completeness).
func (inst *Instance) inferSelfJoins() {
	for rel, tuples := range inst.byRel {
		rs := inst.store.sch.Lookup(rel)
		if rs == nil || len(rs.Key) == 0 {
			continue
		}
		starsKey := func(m *MetaTuple) bool {
			for _, k := range rs.Key {
				if !m.Cells[k].Star {
					return false
				}
			}
			return true
		}
		var merged []*MetaTuple
		for i := 0; i < len(tuples); i++ {
			for j := i + 1; j < len(tuples); j++ {
				a, b := tuples[i], tuples[j]
				shared := slices.ContainsFunc(a.Views, func(v string) bool { return slices.Contains(b.Views, v) })
				if slices.Equal(a.Views, b.Views) || shared {
					continue
				}
				if !starsKey(a) || !starsKey(b) {
					continue
				}
				if m := mergeTuples(a, b); m != nil {
					merged = append(merged, m)
				}
			}
		}
		inst.byRel[rel] = append(tuples, merged...)
	}
}

// mergeTuples builds the self-join meta-tuple of a and b, or nil when a
// cell-wise merge is impossible or empty. Note the paper's prose asks for
// the "disjunction" of the cell subviews, but its own Example 3 result
// (SAE ⋈ EST yielding (*, x4*, *)) requires the lossless-key-join
// semantics implemented here: conjunction of selection conditions, union
// of projections (see DESIGN.md).
func mergeTuples(a, b *MetaTuple) *MetaTuple {
	cells := make([]Cell, len(a.Cells))
	for i := range a.Cells {
		ca, cb := a.Cells[i], b.Cells[i]
		switch {
		case ca.Var != 0 && cb.Var != 0:
			return nil // would require cross-view variable unification
		case ca.Var != 0:
			if !cb.Cons.IsFull() {
				return nil
			}
			cells[i] = Cell{Star: ca.Star || cb.Star, Var: ca.Var, Cons: ca.Cons}
		case cb.Var != 0:
			if !ca.Cons.IsFull() {
				return nil
			}
			cells[i] = Cell{Star: ca.Star || cb.Star, Var: cb.Var, Cons: cb.Cons}
		default:
			iv := interval.Intersect(ca.Cons, cb.Cons)
			if iv.IsEmpty() {
				return nil // the join is vacuous
			}
			cells[i] = Cell{Star: ca.Star || cb.Star, Cons: iv}
		}
	}
	return &MetaTuple{
		Views: mergeViews(a.Views, b.Views),
		Cells: cells,
		Comps: append(append([]CompRef(nil), a.Comps...), b.Comps...),
		Cmps:  append(append([]VarCmp(nil), a.Cmps...), b.Cmps...),
	}
}
