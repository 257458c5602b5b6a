package core

import (
	"authdb/internal/algebra"
	"authdb/internal/relation"
)

// Clone returns a deep copy of the meta-tuple.
func (m *MetaTuple) Clone() *MetaTuple { return m.clone() }

// Views returns the instantiated (entirety-complete, permitted) views.
func (inst *Instance) Views() []string { return inst.views }

// DecideTraced runs the step Retrieve ends with: execute psj's actual
// side for mp, with mp's pushdown atoms fused when prune is set and the
// mask has something to prune, and mask the answer. The actual side's
// access paths are recorded in tr.
func (a *Authorizer) DecideTraced(psj *algebra.PSJ, mp *MaskPlan, prune bool, tr *algebra.Trace) (*Decision, error) {
	return a.decide(psj, mp, 0, prune, tr)
}

// ApplyExtended is the reference for Apply on a mask whose delivered
// columns are outIdx (§6(3)): for each group of wide rows sharing the
// same projected values, the reveal with the most delivered output cells
// — obtained from ONE mask tuple matching ONE wide pre-image, rescanning
// every tuple for every row — wins. Groups are found by comparing each
// row's projected values with every earlier group's through Tuple.Equal.
// Apply is tested against it because the two share no code.
func (m *Mask) ApplyExtended(wide *relation.Relation, outIdx []int, outAttrs []string) (*relation.Relation, MaskStats) {
	type groupState struct {
		vals   relation.Tuple
		reveal []bool
		count  int
	}
	var groups []*groupState
	for _, t := range wide.Tuples() {
		vals := make(relation.Tuple, len(outIdx))
		for j, i := range outIdx {
			vals[j] = t[i]
		}
		var g *groupState
		for _, h := range groups {
			if h.vals.Equal(vals) {
				g = h
				break
			}
		}
		if g == nil {
			g = &groupState{vals: vals, reveal: make([]bool, len(outIdx))}
			groups = append(groups, g)
		}
		// Best single mask tuple for this wide pre-image, measured in
		// delivered output cells.
		for _, mt := range m.Tuples {
			if !mt.Matches(t) {
				continue
			}
			count := 0
			for _, i := range outIdx {
				if mt.Cells[i].Star {
					count++
				}
			}
			if count > g.count {
				g.count = count
				for j, i := range outIdx {
					g.reveal[j] = mt.Cells[i].Star
				}
			}
		}
	}
	var stats MaskStats
	out := relation.NewSet(outAttrs, 0)
	for _, g := range groups {
		if g.count == 0 {
			continue
		}
		row := make(relation.Tuple, len(outIdx))
		for j := range outIdx {
			if g.reveal[j] {
				row[j] = g.vals[j]
			}
		}
		// Groups differing only in withheld cells mask to one row.
		if out.Add(row) {
			stats.count(g.count, len(row))
		}
	}
	return out.Relation(), stats
}
