package core

import (
	"fmt"
	"slices"

	"authdb/internal/algebra"
	"authdb/internal/cview"
	"authdb/internal/guard"
	"authdb/internal/interval"
	"authdb/internal/relation"
)

// Snapshot records the meta-relation after one phase of ReferencePlan,
// for the paper's worked examples and for debugging.
type Snapshot struct {
	Phase string
	Meta  *MetaRel
}

// Decision is the outcome of the authorization process of §5: the
// meta-answer A' as a mask, the masked answer actually delivered, and the
// inferred permit statements describing the portions delivered. The
// unmasked answer A is an intermediate of the pipeline and is not kept.
// The meta side (mask, permits, outcome flags, participating views) is
// the embedded MaskPlan, shared read-only with the closure.
type Decision struct {
	*MaskPlan
	// PSJ is the normal-form plan of the request.
	PSJ *algebra.PSJ
	// Masked is the deliverable relation: permitted values only, other
	// cells null, fully-withheld rows dropped.
	Masked *relation.Relation
	// Stats counts Masked.
	Stats MaskStats
	// PushdownApplied reports whether MaskPlan.Pushdown was fused into
	// the actual-side plan for this retrieval.
	PushdownApplied bool
	// MetaTuples is MaskPlan.MetaTuples when this retrieval recomputed the
	// plan, zero when the closure supplied it.
	MetaTuples int
}

// MaskPlan is the meta-side half of a Decision: everything the
// authorization process derives from the user's definitions (permitted
// views and their meta-tuples) and the query alone — never from the
// relation instances. It is therefore cacheable per (participating
// views, query) and shareable across principals and concurrent read
// sessions: Apply and Permits treat the mask as read-only.
type MaskPlan struct {
	// Mask is the compiled meta-answer A'.
	Mask *Mask
	// Views lists the permitted views that participated (after entirety
	// pruning).
	Views []string
	// Inst is the per-request view instantiation (variable names,
	// provenance); useful for rendering intermediate meta-relations.
	Inst *Instance
	// Permits describes the delivered portions when the outcome is
	// partial; empty on full grant (§5 Example 3) or full denial.
	Permits []PermitStatement
	// FullyAuthorized reports that some mask tuple delivers the entire
	// answer unconditionally; Denied that no mask tuple reveals a
	// delivered column, so nothing is delivered.
	FullyAuthorized bool
	Denied          bool
	// WidePSJ is set under Options.ExtendedMasks: the plan without its
	// final projection, whose answer the mask is written over.
	WidePSJ *algebra.PSJ
	// Pushdown is the mask-derived necessary delivery condition: atoms
	// over the mask's attributes that every delivered row satisfies
	// (Mask.PushdownAtoms). Definition-derived, so cached with the plan;
	// retrieval fuses it unless the mask grants everything.
	Pushdown []algebra.Atom
	// Intermediates holds the per-phase meta-relations of ReferencePlan;
	// MaskPlanFor records none.
	Intermediates []Snapshot
	// MetaTuples counts the meta-tuples the scans and products of this
	// plan's computation materialized — the meta side's unit of work.
	MetaTuples int
}

// Authorizer binds a database scheme, its relation instances, and an
// authorization store; it implements the commutative diagram of Figure 2:
// the query runs on the relations to yield A and, mirrored operator by
// operator, on the meta-relations to yield A'.
type Authorizer struct {
	Store  *Store
	Source algebra.Source
	Opt    Options
	// Guard, when non-nil, bounds both the actual-side evaluation and
	// the meta-side operators with a cancellation-and-budget check at
	// tuple-batch granularity.
	Guard *guard.Guard
	// Cache has no effect: the closure entry keeps the mask plan across
	// data churn. The field remains only because the benchmark harness
	// still sets it; it goes with ROADMAP item 2 (j).
	Cache *MaskCache
	// Closure, when non-nil, serves whole retrieves from materialized
	// resident state (the delivered relation and its statistics) keyed on
	// the participating views and validated against both the view
	// generation and the pinned relation revisions, and otherwise hands back a plan the definitions still
	// stamp; see Closure. Only RetrievePlan consults it.
	Closure *Closure
}

// NewAuthorizer builds an authorizer with the given options.
func NewAuthorizer(store *Store, src algebra.Source, opt Options) *Authorizer {
	return &Authorizer{Store: store, Source: src, Opt: opt}
}

// Retrieve authorizes and answers the query def for user.
func (a *Authorizer) Retrieve(user string, def *cview.Def) (*Decision, error) {
	an, err := cview.Analyze(def, a.Store.Schema())
	if err != nil {
		return nil, err
	}
	return a.RetrievePlan(user, an.PSJ)
}

// RetrievePlan runs the dual pipelines for an already-compiled plan,
// with one closure lookup first: a hit is the whole answer; otherwise
// the meta side is the entry's plan when the closure hands one back
// (stamped with the store's current view generation), recomputed
// by MaskPlanFor otherwise, and the actual side is then evaluated and
// masked by it.
func (a *Authorizer) RetrievePlan(user string, psj *algebra.PSJ) (*Decision, error) {
	closure := a.Closure
	var revs []*relation.Relation
	var mp *MaskPlan
	if closure != nil {
		// Pin the scanned revisions once: they stamp both the lookup
		// and the eventual Store, so the materialization is keyed to
		// exactly the data this statement reads.
		revs = a.scanRevs(psj)
		if revs == nil {
			closure = nil // unknown relation: let the evaluator report it
		} else {
			d, plan, err := closure.Lookup(a, user, psj, revs)
			if d != nil || err != nil {
				return d, err
			}
			mp = plan
		}
	}
	metaTuples := 0
	if mp == nil {
		var err error
		mp, err = a.MaskPlanFor(user, psj)
		if err != nil {
			return nil, err
		}
		metaTuples = mp.MetaTuples
	}
	// Fuse the mask-derived necessary delivery condition into the actual
	// side: rows failing it match no mask tuple, so masking would drop
	// them anyway and pruning early changes nothing delivered. A full
	// grant has nothing to prune.
	fuse := len(mp.Pushdown) > 0 && !mp.FullyAuthorized
	d, psjExec, err := a.decide(psj, mp, metaTuples, fuse, nil)
	if err != nil {
		return nil, err
	}
	closure.Store(a.Store, user, psj, a.Opt, revs, d, psjExec)
	return d, nil
}

// Explain runs the dual pipeline the way §4.1 states it, for display:
// the meta side is ReferencePlan, every phase recorded in Intermediates;
// the actual side runs unfused over the full A and records its access
// paths in tr (which may be nil). It does not consult the closure.
func (a *Authorizer) Explain(user string, def *cview.Def, tr *algebra.Trace) (*Decision, error) {
	an, err := cview.Analyze(def, a.Store.Schema())
	if err != nil {
		return nil, err
	}
	mp, err := a.ReferencePlan(user, an.PSJ)
	if err != nil {
		return nil, err
	}
	d, _, err := a.decide(an.PSJ, mp, mp.MetaTuples, false, tr)
	return d, err
}

// decide evaluates the actual side of psj and masks it with mp, the one
// step every path from a MaskPlan to a Decision takes. With fuse, mp's
// pushdown atoms are conjoined with the executed plan. The second result
// is the plan executed.
func (a *Authorizer) decide(psj *algebra.PSJ, mp *MaskPlan, metaTuples int, fuse bool, tr *algebra.Trace) (*Decision, *algebra.PSJ, error) {
	ans, psjExec, err := a.execute(psj, mp, fuse, tr)
	if err != nil {
		return nil, nil, err
	}
	d := &Decision{MaskPlan: mp, PSJ: psj, PushdownApplied: fuse, MetaTuples: metaTuples}
	d.Masked, d.Stats = mp.Mask.Apply(ans)
	// Sorted once here, the delivered relation converts without a sort on
	// every closure hit until a refresh appends behind it.
	d.Masked.Canonicalize()
	return d, psjExec, nil
}

// execute evaluates the actual side of psj for mp, with mp's pushdown
// atoms conjoined when fuse is set, and returns the answer and the plan
// executed. The §6(3) extension masks the wide (pre-projection) answer,
// so it executes the plan without the final projection.
func (a *Authorizer) execute(psj *algebra.PSJ, mp *MaskPlan, fuse bool, tr *algebra.Trace) (*relation.Relation, *algebra.PSJ, error) {
	psjExec := psj
	if mp.WidePSJ != nil {
		psjExec = mp.WidePSJ
	}
	if fuse {
		psjExec = fusePushdown(psjExec, mp.Pushdown)
	}
	ans, err := a.evalActual(psjExec, a.Source, tr)
	return ans, psjExec, err
}

// evalActual evaluates an actual-side plan against src on the indexed
// executor under the authorizer's guard, recording access paths in tr
// when it is non-nil.
func (a *Authorizer) evalActual(p *algebra.PSJ, src algebra.Source, tr *algebra.Trace) (*relation.Relation, error) {
	return algebra.EvalPSJ(p, src, a.Guard, algebra.ExecOptions{UseIndexes: true}, tr)
}

// scanRevs resolves the revision each of the plan's scans reads, in
// scan order; nil when any scan fails to resolve.
func (a *Authorizer) scanRevs(psj *algebra.PSJ) []*relation.Relation {
	revs := make([]*relation.Relation, len(psj.Scans))
	for i, s := range psj.Scans {
		r, err := a.Source(s.Rel)
		if err != nil {
			return nil
		}
		revs[i] = r
	}
	return revs
}

// MaskPlanFor runs the meta-side pipeline alone, bypassing the closure:
// instantiate the user's permitted views, mirror the query's products,
// selections, and (unless extended) projection over the meta-relations,
// and compile the result into a mask plus its derived outcome flags and
// permit statements. The products are planned
// (plannedProduct): a combination the pruning step, a selection or the
// projection is certain to discard is never built. The mask is
// ReferencePlan's, tuple for tuple.
func (a *Authorizer) MaskPlanFor(user string, psj *algebra.PSJ) (*MaskPlan, error) {
	mp, err := a.instantiate(user, psj)
	if err != nil {
		return nil, err
	}
	sels := groupSelections(psj.Preds)
	mr, produced, err := a.plannedProduct(mp.Inst, psj, sels)
	if err != nil {
		return nil, err
	}
	mp.MetaTuples = produced
	mr.DedupeLoose()
	return a.compile(mp, psj, sels, mr, false)
}

// ReferencePlan is the meta side in §4.1's order verbatim: every scan's
// meta-relation multiplied in full, the theorem's pruning of dangling
// meta-tuples, then the selections and the projection, with a snapshot
// recorded after every phase. It is what Explain displays and the oracle
// MaskPlanFor is tested against.
func (a *Authorizer) ReferencePlan(user string, psj *algebra.PSJ) (*MaskPlan, error) {
	mp, err := a.instantiate(user, psj)
	if err != nil {
		return nil, err
	}
	inst := mp.Inst
	mr := inst.MetaRelFor(psj.Scans[0].Rel, psj.Scans[0].Alias)
	mp.MetaTuples = len(mr.Tuples)
	mp.record("scan "+psj.Scans[0].Alias, mr)
	for _, s := range psj.Scans[1:] {
		next := inst.MetaRelFor(s.Rel, s.Alias)
		mp.record("scan "+s.Alias, next)
		mp.MetaTuples += len(next.Tuples) + len(mr.Tuples)*len(next.Tuples)
		if a.Opt.Padding {
			mp.MetaTuples += len(mr.Tuples) + len(next.Tuples)
		}
		mr, err = MetaProductGuarded(mr, next, a.Opt.Padding, a.Guard)
		if err != nil {
			return nil, err
		}
	}
	if len(psj.Scans) > 1 {
		mp.record("product", mr)
	}
	mr.DropDangling(inst)
	mr.DedupeLoose()
	if len(psj.Scans) > 1 {
		mp.record("pruned", mr)
	}
	return a.compile(mp, psj, groupSelections(psj.Preds), mr, true)
}

// instantiate starts a MaskPlan for psj: the user's permitted views
// instantiated against the relations the query scans and, under
// Options.ExtendedMasks, the wide plan.
func (a *Authorizer) instantiate(user string, psj *algebra.PSJ) (*MaskPlan, error) {
	if len(psj.Scans) == 0 {
		return nil, fmt.Errorf("query scans no relations")
	}
	mp := &MaskPlan{}
	if a.Opt.ExtendedMasks {
		wideAttrs, err := psj.Attrs(a.Store.Schema())
		if err != nil {
			return nil, err
		}
		mp.WidePSJ = &algebra.PSJ{Scans: psj.Scans, Preds: psj.Preds, Cols: wideAttrs}
	}
	scanCount := make(map[string]int)
	for _, s := range psj.Scans {
		scanCount[s.Rel]++
	}
	mp.Inst = a.Store.Instantiate(user, scanCount, a.Opt)
	mp.Views = mp.Inst.Views()
	return mp, nil
}

// record appends a snapshot of mr after phase.
func (mp *MaskPlan) record(phase string, mr *MetaRel) {
	mp.Intermediates = append(mp.Intermediates, Snapshot{Phase: phase, Meta: mr.clone()})
}

// compile is the tail both meta sides share: the selections and (unless
// extended) the projection over the pruned product mr, then the mask and
// its derived outcome flags, pushdown atoms and permit statements. With
// record, each phase is snapshotted.
func (a *Authorizer) compile(mp *MaskPlan, psj *algebra.PSJ, sels []selection, mr *MetaRel, record bool) (*MaskPlan, error) {
	inst := mp.Inst
	var err error
	var out []int // every column, unless extended
	for _, sel := range sels {
		if sel.isConst {
			mr, err = MetaSelectConst(mr, sel.attr, sel.lam, inst, a.Opt.FourCase)
		} else {
			mr, err = MetaSelect(mr, sel.atom, inst, a.Opt.FourCase)
		}
		if err != nil {
			return nil, err
		}
		// Tuple-batch granularity on the meta side: each selection pass
		// re-accounts the surviving meta-tuples.
		if err := a.Guard.Add(len(mr.Tuples)); err != nil {
			return nil, err
		}
		if record {
			mp.record("select "+sel.label, mr)
		}
	}
	if a.Opt.ExtendedMasks {
		// §6(3): skip the meta projection so residual conditions on
		// unrequested attributes survive; the wide answer gets masked,
		// delivering the requested columns.
		mr.DropDangling(inst)
		mr.DedupeLoose()
		if record {
			mp.record("extended mask", mr)
		}
		out = make([]int, len(psj.Cols))
		for i, c := range psj.Cols {
			if out[i], err = mr.attrIndex(c); err != nil {
				return nil, err
			}
		}
	} else {
		mr, err = MetaProject(mr, psj.Cols)
		if err != nil {
			return nil, err
		}
		if record {
			mp.record("project", mr)
		}
		// Fail closed: a meta-tuple still referencing absent membership
		// tuples is not expressible within A' and must never mask data in.
		mr.DropDangling(inst)
		mr.DedupeLoose()
	}
	mp.Mask = NewMask(mr, inst, out)
	if a.Opt.Subsume {
		mp.Mask.Subsume()
	}
	mp.Pushdown = mp.Mask.PushdownAtoms()
	mp.FullyAuthorized = mp.Mask.grantsAll()
	mp.Denied = mp.Mask.denies()
	if !mp.FullyAuthorized && !mp.Denied {
		mp.Permits = mp.Mask.Permits()
	}
	return mp, nil
}

// selection is one meta-side selection step: either an attribute-constant
// restriction in combined interval form, or a single attribute-attribute
// atom.
type selection struct {
	isConst bool
	attr    string
	lam     interval.Interval
	atom    algebra.Atom
	label   string
}

// groupSelections merges every attribute-constant predicate on the same
// attribute into one interval λ (applied at the first occurrence's
// position); attribute-attribute predicates pass through in order. The
// §4.2 four-case analysis needs the whole per-attribute restriction to
// recognise clearing (λ ⇒ μ) and contradiction.
func groupSelections(preds []algebra.Atom) []selection {
	var out []selection
	at := make(map[string]int)
	for _, a := range preds {
		if a.R.IsAttr {
			out = append(out, selection{atom: a, label: a.String()})
			continue
		}
		if i, ok := at[a.L]; ok {
			out[i].lam = interval.Intersect(out[i].lam, interval.FromCmp(a.Op, a.R.Const))
			out[i].label = a.L + " in " + out[i].lam.String()
			continue
		}
		at[a.L] = len(out)
		out = append(out, selection{
			isConst: true,
			attr:    a.L,
			lam:     interval.FromCmp(a.Op, a.R.Const),
			label:   a.String(),
		})
	}
	return out
}

// planTuple is a meta-tuple of the planned product together with the
// stored tuples its variables mention but its provenance lacks. It dangles
// until a later scan supplies every one of them.
type planTuple struct {
	t    *MetaTuple
	need []CompRef
}

// plannedProduct returns what ReferencePlan's products followed by
// DropDangling return, less the meta-tuples a selection or the projection
// discards whatever else happens to them, in the reference's order. It
// walks the reference's enumeration — per scan: every pair, then the left
// tuples padded, then the right tuples padded, replications removed — and
// leaves out:
//
//   - base tuples and paddings with a cell that fails its cellFilter,
//     before they enter any product;
//   - combinations lacking a stored tuple one of their variables mentions
//     when no scan still to come is over that tuple's relation: every
//     extension of such a combination dangles.
//
// Both tests depend only on what the replication keys already tell apart
// (cell contents; the provenance set, which fixes the variables), so
// leaving a tuple out never lets through a later one that a first-wins
// removal would have dropped in its favour. The second result counts the
// meta-tuples materialized.
func (a *Authorizer) plannedProduct(inst *Instance, psj *algebra.PSJ, sels []selection) (*MetaRel, int, error) {
	n := len(psj.Scans)
	off := make([]int, n+1)
	var attrs []string
	for k, s := range psj.Scans {
		if rs := a.Store.Schema().Lookup(s.Rel); rs != nil {
			attrs = append(attrs, relation.QualifyAttrs(s.Alias, rs.Attrs)...)
		}
		off[k+1] = len(attrs)
	}
	out := &MetaRel{Attrs: attrs}
	filters, err := a.cellFilters(out, psj, sels)
	if err != nil {
		return nil, 0, err
	}

	// toCome counts the scans after the current one per relation; refRel
	// maps each stored tuple to the relation it is a row of R' for, since
	// only a scan of that relation can supply it. (Local, not a field of
	// Instance: plans are cached with their instance.)
	toCome := make(map[string]int, n)
	refRel := make(map[CompRef]string)
	for _, s := range psj.Scans {
		toCome[s.Rel]++
		for _, t := range inst.byRel[s.Rel] {
			for _, c := range t.Comps {
				refRel[c] = s.Rel
			}
		}
	}
	// deferred appends to acc the references of need that has does not
	// supply, and reports whether a scan still to come can supply them all.
	deferred := func(acc, need []CompRef, has *MetaTuple) ([]CompRef, bool) {
		for _, c := range need {
			if has != nil && has.hasComp(c) || slices.Contains(acc, c) {
				continue
			}
			if toCome[refRel[c]] == 0 {
				return nil, false
			}
			acc = append(acc, c)
		}
		return acc, true
	}

	produced := 0
	var left []planTuple
	var parts productParts
	var key []byte
	padDead := false // some scan so far has a padding no selection keeps
	for k, s := range psj.Scans {
		if err := a.Guard.Check(); err != nil {
			return nil, 0, err
		}
		toCome[s.Rel]--
		f := filters[off[k]:off[k+1]]
		var right []planTuple
	base:
		for _, t := range inst.byRel[s.Rel] {
			for i := range t.Cells {
				if f[i].discards(&t.Cells[i], a.Opt.FourCase) {
					continue base
				}
			}
			if n == 1 {
				t = t.clone() // it becomes a mask tuple; products copy
			}
			right = append(right, planTuple{t: t, need: inst.needs(t)})
		}
		produced += len(right)
		pad, leftPad := blanks(len(f)), blanks(off[k])
		rightPadDead := false
		for i := range pad {
			rightPadDead = rightPadDead || f[i].discards(&pad[i], a.Opt.FourCase)
		}

		var next []planTuple
		if k == 0 {
			for _, r := range right {
				if need, ok := deferred(nil, r.need, nil); ok {
					next = append(next, planTuple{r.t, need})
				}
			}
		} else {
			// The last product feeds DedupeLoose directly (nothing it lets
			// through dangles), and strict-then-loose removal of
			// replications is loose removal.
			last := k == n-1
			seen := make(map[string]struct{})
			add := func(l, r *planTuple, need []CompRef) error {
				if err := a.Guard.Add(1); err != nil {
					return err
				}
				produced++
				var lt, rt *MetaTuple
				lc, rc := leftPad, pad
				if l != nil {
					lt, lc = l.t, l.t.Cells
				}
				if r != nil {
					rt, rc = r.t, r.t.Cells
				}
				parts.of(lt, rt)
				key = appendCanonicalKey(key[:0], lc, rc, parts.views, parts.cmps)
				if !last {
					key = appendProvenance(key, parts.comps)
				}
				if _, dup := seen[string(key)]; !dup {
					seen[string(key)] = struct{}{}
					next = append(next, planTuple{parts.tuple(lc, rc), need})
				}
				return nil
			}
			for i := range left {
				l := &left[i]
				if err := a.Guard.Check(); err != nil {
					return nil, 0, err
				}
				for j := range right {
					r := &right[j]
					need, ok := deferred(nil, l.need, r.t)
					if ok {
						need, ok = deferred(need, r.need, l.t)
					}
					if !ok {
						continue
					}
					if err := add(l, r, need); err != nil {
						return nil, 0, err
					}
				}
			}
			if a.Opt.Padding && !rightPadDead {
				for i := range left {
					if need, ok := deferred(nil, left[i].need, nil); ok {
						if err := add(&left[i], nil, need); err != nil {
							return nil, 0, err
						}
					}
				}
			}
			if a.Opt.Padding && !padDead {
				for j := range right {
					if need, ok := deferred(nil, right[j].need, nil); ok {
						if err := add(nil, &right[j], need); err != nil {
							return nil, 0, err
						}
					}
				}
			}
		}
		left = next
		padDead = padDead || rightPadDead
	}
	for _, l := range left {
		out.Tuples = append(out.Tuples, l.t)
	}
	return out, produced, nil
}

// cellFilter records, for one attribute of the product, which later
// operators read the cell there. A cell it discards is one of those
// operators' certain discards in every combination the cell enters,
// decided by the cell as the views store it: its star, which no operator
// changes, and — only where no operator can rewrite them first — its
// constraint and its lack of a variable.
type cellFilter struct {
	// needStar: an attribute–attribute predicate selects on the attribute;
	// Definition 2 keeps only starred cells.
	needStar bool
	// lam is the first constant selection on the attribute, nil if none.
	lam *interval.Interval
	// unread: no predicate selects on the attribute and the projection
	// removes it; Definition 3 keeps only blank cells.
	unread bool
}

func (f cellFilter) discards(c *Cell, fourCase bool) bool {
	if f.needStar && !c.Star {
		return true
	}
	if f.lam != nil {
		switch {
		case !c.Star && !fourCase:
			return true
		case c.Var != 0 || !fourCase:
			// A selection on another occurrence of the variable may narrow
			// or clear the constraint first; leave it to selectAttrConst.
		case !c.Star:
			// Kept only when μ ⇒ λ. Nothing rewrites an unstarred cell
			// without a variable.
			if !c.Cons.Implies(*f.lam) {
				return true
			}
		default:
			// Contradiction. An equality predicate may narrow a starred
			// cell before λ applies, which keeps λ ∧ μ empty.
			if interval.Intersect(c.Cons, *f.lam).IsEmpty() {
				return true
			}
		}
	}
	// A variable is never cleared from a cell no selection is applied to,
	// and a constraint without one is never touched.
	return f.unread && !c.IsBlank()
}

// cellFilters resolves the selections and the projection against the
// product's attributes, reporting the resolution error the operators
// themselves would report.
func (a *Authorizer) cellFilters(product *MetaRel, psj *algebra.PSJ, sels []selection) ([]cellFilter, error) {
	filters := make([]cellFilter, len(product.Attrs))
	read := make([]bool, len(product.Attrs))
	for i := range sels {
		sel := &sels[i]
		if sel.isConst {
			p, err := product.attrIndex(sel.attr)
			if err != nil {
				return nil, err
			}
			read[p] = true
			if filters[p].lam == nil {
				filters[p].lam = &sel.lam
			}
			continue
		}
		for _, attr := range [2]string{sel.atom.L, sel.atom.R.Attr} {
			p, err := product.attrIndex(attr)
			if err != nil {
				return nil, err
			}
			read[p] = true
			filters[p].needStar = true
		}
	}
	if a.Opt.ExtendedMasks {
		return filters, nil // §6(3) skips the projection
	}
	for _, c := range psj.Cols {
		p, err := product.attrIndex(c)
		if err != nil {
			return nil, err
		}
		read[p] = true
	}
	for p := range filters {
		filters[p].unread = !read[p]
	}
	return filters, nil
}
