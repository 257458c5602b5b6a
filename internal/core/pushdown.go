package core

import (
	"authdb/internal/algebra"
	"authdb/internal/interval"
)

// PushdownAtoms derives, from the mask alone, a selection every delivered
// cell's row must satisfy — a necessary condition for delivery that the
// authorizer may conjoin with the actual-side plan so withheld rows are
// pruned before materialization instead of masked afterwards.
//
// The derivation is the per-attribute disjunction hull: Matches requires
// Cons.Contains(t[k]) for EVERY cell of a mask tuple (starred or not), so
// a row delivered through any tuple has t[k] inside that tuple's k-th
// interval, hence inside the hull of all tuples' k-th intervals. A full
// hull contributes nothing; a point hull one equality; a bounded hull its
// endpoint comparisons plus a ≠ per commonly excluded point. Atoms name
// the mask's own attributes, which are exactly the plan's output columns
// (or, under extended masks, the wide columns), so they resolve against
// the evaluator's scans.
//
// Soundness (fused = mask-then-filter): rows failing some atom fail the
// hull on that attribute, so no mask tuple matches them and Apply
// delivers nothing from them (a grouped mask delivers a group through a
// matching pre-image, never through one of them) — pruning them changes
// no delivered cell, no inferred permit (permits derive from the mask,
// not the data), no grant/deny flag, and no MaskStats figure, since
// those count the delivered relation. Only the unmasked answer, which
// nothing keeps, shrinks.
//
// The atoms depend on definitions only — never on relation instances —
// so they are computed once per MaskPlan and cached with it.
func (m *Mask) PushdownAtoms() []algebra.Atom {
	if len(m.Tuples) == 0 {
		return nil
	}
	var out []algebra.Atom
	for k, attr := range m.Attrs {
		hull := m.Tuples[0].Cells[k].Cons
		for _, t := range m.Tuples[1:] {
			hull = interval.Hull(hull, t.Cells[k].Cons)
			if hull.IsFull() {
				break
			}
		}
		for _, c := range hull.Comparisons() {
			out = append(out, algebra.Atom{L: attr, Op: c.Op, R: algebra.ConstOp(c.V)})
		}
	}
	return out
}

// fusePushdown conjoins pushdown atoms with a plan, leaving the original
// untouched (plans are shared through the closure).
func fusePushdown(p *algebra.PSJ, atoms []algebra.Atom) *algebra.PSJ {
	preds := make([]algebra.Atom, 0, len(p.Preds)+len(atoms))
	preds = append(append(preds, p.Preds...), atoms...)
	return &algebra.PSJ{Scans: p.Scans, Preds: preds, Cols: p.Cols}
}
