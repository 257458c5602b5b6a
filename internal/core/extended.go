package core

import (
	"strings"

	"authdb/internal/relation"
)

// ApplyExtended implements the §6(3) extension: the mask tuples are still
// defined over the full pre-projection width (so their residual
// conditions may mention attributes the query does not request), and they
// are applied to the *wide* answer — the query after products and
// selections, before the final projection. outIdx maps each requested
// output column to its wide position.
//
// Per-row delivery keeps the single-tuple soundness rule of Apply: for
// each group of wide rows sharing the same projected values, the reveal
// with the most delivered output cells — obtained from ONE mask tuple
// matching ONE wide pre-image — wins; the delivered row is then the
// projection of a tuple of one inferred permitted subview.
func (m *Mask) ApplyExtended(wide *relation.Relation, outIdx []int, outAttrs []string) (*relation.Relation, MaskStats) {
	type groupState struct {
		vals   relation.Tuple
		reveal []bool
		count  int
	}
	groups := make(map[string]*groupState)
	var order []string
	key := func(t relation.Tuple) string {
		var b strings.Builder
		for _, i := range outIdx {
			b.WriteByte(byte(t[i].Kind()))
			b.WriteString(t[i].String())
			b.WriteByte(0)
		}
		return b.String()
	}
	for _, t := range wide.Tuples() {
		k := key(t)
		g, ok := groups[k]
		if !ok {
			vals := make(relation.Tuple, len(outIdx))
			for j, i := range outIdx {
				vals[j] = t[i]
			}
			g = &groupState{vals: vals, reveal: make([]bool, len(outIdx))}
			groups[k] = g
			order = append(order, k)
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
	out := relation.New(outAttrs)
	for _, k := range order {
		g := groups[k]
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
		if out.Adopt(row) {
			stats.count(g.count, len(row))
		}
	}
	return out, stats
}

// ExtendedPermits renders one inferred permit per mask tuple that reveals
// at least one requested column; listed attributes are the revealed
// output columns, while conditions may mention the additional attributes
// the extension retains.
func (m *Mask) ExtendedPermits(outIdx []int) []PermitStatement {
	names := DisplayNames(m.Attrs)
	isOut := make(map[int]bool, len(outIdx))
	for _, i := range outIdx {
		isOut[i] = true
	}
	var out []PermitStatement
	for _, mt := range m.Tuples {
		revealsOutput := false
		for _, i := range outIdx {
			if mt.Cells[i].Star {
				revealsOutput = true
				break
			}
		}
		if !revealsOutput {
			continue
		}
		p := m.permitOf(mt, names)
		// Restrict the attribute list to the requested columns; hidden
		// starred attributes are not delivered.
		var attrs []string
		for i, c := range mt.Cells {
			if c.Star && isOut[i] {
				attrs = append(attrs, names[i])
			}
		}
		p.Attrs = attrs
		out = append(out, p)
	}
	return out
}

// fullGrantExtended reports whether some mask tuple unconditionally
// grants every requested column.
func fullGrantExtended(m *Mask, outIdx []int) bool {
	for _, t := range m.Tuples {
		if len(t.Cmps) != 0 {
			continue
		}
		ok := true
		for _, c := range t.Cells {
			if !c.IsBlank() {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		for _, i := range outIdx {
			if !t.Cells[i].Star {
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

// revealsAnything reports whether any mask tuple stars a requested column.
func revealsAnything(m *Mask, outIdx []int) bool {
	for _, t := range m.Tuples {
		for _, i := range outIdx {
			if t.Cells[i].Star {
				return true
			}
		}
	}
	return false
}
