package core

import (
	"cmp"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"authdb/internal/interval"
	"authdb/internal/relation"
	"authdb/internal/value"
)

// CompRef identifies one stored membership meta-tuple of a view; it is the
// provenance unit for the theorem's pruning rule ("retain only those
// meta-tuples that do not contain references to other meta-tuples").
type CompRef struct {
	View string
	Idx  int
}

// VarCmp is a residual symbolic comparative subformula between two view
// variables (e.g. "x5 < x6" for a view of employees earning less than
// their project's budget). It corresponds to a COMPARISON row whose both
// sides are variables; constant comparisons fold into cell intervals.
type VarCmp struct {
	X  VarID
	Op value.Cmp
	Y  VarID
}

// MetaTuple is one row of a meta-relation: a subview definition of the
// relation (or relation product) whose attributes are carried by the
// enclosing MetaRel. Views lists the owning view(s) — more than one after
// a §4.2 self-join merge or a product combining several views' tuples.
type MetaTuple struct {
	Views []string
	Cells []Cell
	// Comps is the set of stored membership tuples this meta-tuple is
	// built from; padding contributes nothing.
	Comps []CompRef
	// Cmps carries the symbolic variable comparisons of the owning views
	// that involve any variable of this tuple; the mask applies them when
	// filtering answer tuples, and involved variables are never cleared.
	Cmps []VarCmp
}

// Clone returns a deep copy of the meta-tuple.
func (m *MetaTuple) Clone() *MetaTuple { return m.clone() }

// clone returns a deep copy.
func (m *MetaTuple) clone() *MetaTuple {
	return &MetaTuple{
		Views: append([]string(nil), m.Views...),
		Cells: append([]Cell(nil), m.Cells...),
		Comps: append([]CompRef(nil), m.Comps...),
		Cmps:  append([]VarCmp(nil), m.Cmps...),
	}
}

// hasComp reports provenance membership.
func (m *MetaTuple) hasComp(c CompRef) bool { return slices.Contains(m.Comps, c) }

// lockedVar reports whether v participates in one of the tuple's symbolic
// comparisons; such variables are never cleared or folded away, since the
// comparison must stay evaluable on the answer.
func (m *MetaTuple) lockedVar(v VarID) bool {
	for _, c := range m.Cmps {
		if c.X == v || c.Y == v {
			return true
		}
	}
	return false
}

// varOccurrences counts the cells holding v.
func (m *MetaTuple) varOccurrences(v VarID) int {
	n := 0
	for i := range m.Cells {
		if m.Cells[i].Var == v {
			n++
		}
	}
	return n
}

// mergeViews returns the sorted union of two view-name lists.
func mergeViews(a, b []string) []string {
	return appendViewUnion(make([]string, 0, len(a)+len(b)), a, b)
}

// appendViewUnion appends the sorted union of a and b to the empty dst.
func appendViewUnion(dst, a, b []string) []string {
	for _, list := range [2][]string{a, b} {
	next:
		for _, v := range list {
			at := len(dst)
			for at > 0 && dst[at-1] >= v {
				if dst[at-1] == v {
					continue next
				}
				at--
			}
			dst = append(dst, "")
			copy(dst[at+1:], dst[at:])
			dst[at] = v
		}
	}
	return dst
}

// MetaRel is a meta-relation (or an intermediate/final meta-answer): an
// attribute list shared by a set of meta-tuples. Base meta-relations carry
// the alias-qualified attributes of one scan; intermediates the
// concatenation; the final meta-answer A' the query's projection list.
type MetaRel struct {
	Attrs  []string
	Tuples []*MetaTuple
}

// NewMetaRel creates an empty meta-relation over the given attributes.
func NewMetaRel(attrs []string) *MetaRel {
	return &MetaRel{Attrs: append([]string(nil), attrs...)}
}

// attrIndex resolves a (possibly bare) attribute name like
// algebra's resolver: exact match first, then unambiguous bare suffix.
func (r *MetaRel) attrIndex(a string) (int, error) {
	for i, x := range r.Attrs {
		if x == a {
			return i, nil
		}
	}
	found := -1
	for i, x := range r.Attrs {
		if _, bare := relation.SplitQualified(x); bare == a {
			if found >= 0 {
				return -1, fmt.Errorf("ambiguous attribute %s in meta-relation", a)
			}
			found = i
		}
	}
	if found < 0 {
		return -1, fmt.Errorf("unknown attribute %s in meta-relation", a)
	}
	return found, nil
}

// clone returns a deep copy of the meta-relation.
func (r *MetaRel) clone() *MetaRel {
	out := NewMetaRel(r.Attrs)
	for _, t := range r.Tuples {
		out.Tuples = append(out.Tuples, t.clone())
	}
	return out
}

// appendCanonicalKey appends the tuple's structural identity for
// replication removal: cells (with variables renumbered by first
// occurrence so that combos differing only in variable identity
// collapse), the view set, and the symbolic comparisons over the
// renumbered variables in sorted order. The encoding is injective —
// values carry their kind, strings their length — so two tuples share a
// key only when they are structurally equal.
func (m *MetaTuple) appendCanonicalKey(b []byte) []byte {
	return appendCanonicalKey(b, m.Cells, nil, m.Views, m.Cmps)
}

// appendCanonicalKey keys the tuple whose cells are lc followed by rc.
func appendCanonicalKey(b []byte, lc, rc []Cell, views []string, tupleCmps []VarCmp) []byte {
	var renBuf [8]VarID
	ren := renBuf[:0]
	for _, cells := range [2][]Cell{lc, rc} {
		for i := range cells {
			c := &cells[i] // a Cell is 136 bytes; do not copy it per key
			if c.Star {
				b = append(b, '*')
			}
			if c.Var != 0 {
				id := varNumber(ren, c.Var)
				if id == 0 {
					ren = append(ren, c.Var)
					id = len(ren)
				}
				b = append(b, 'v')
				b = strconv.AppendInt(b, int64(id), 10)
			}
			b = appendInterval(b, &c.Cons)
			b = append(b, '|')
		}
	}
	b = append(b, '#')
	for _, v := range views {
		b = append(b, v...)
		b = append(b, ',')
	}
	b = append(b, '#')
	// A comparison's variable that no cell holds renumbers to 0.
	var cmpBuf [4]VarCmp
	cmps := cmpBuf[:0]
	for _, c := range tupleCmps {
		cmps = append(cmps, VarCmp{X: VarID(varNumber(ren, c.X)), Op: c.Op, Y: VarID(varNumber(ren, c.Y))})
	}
	slices.SortFunc(cmps, func(a, b VarCmp) int {
		return cmp.Or(cmp.Compare(a.X, b.X), cmp.Compare(a.Op, b.Op), cmp.Compare(a.Y, b.Y))
	})
	for _, c := range cmps {
		b = strconv.AppendInt(b, int64(c.X), 10)
		b = append(b, ':')
		b = strconv.AppendInt(b, int64(c.Op), 10)
		b = append(b, ':')
		b = strconv.AppendInt(b, int64(c.Y), 10)
		b = append(b, ',')
	}
	return b
}

// varNumber returns v's 1-based position in ren, 0 when absent.
func varNumber(ren []VarID, v VarID) int {
	for i, x := range ren {
		if x == v {
			return i + 1
		}
	}
	return 0
}

// appendInterval encodes a cell constraint; the blank encodes as nothing.
func appendInterval(b []byte, iv *interval.Interval) []byte {
	if iv.IsFull() {
		return b
	}
	b = appendBound(b, &iv.Lo, '[', '(')
	b = append(b, ',')
	b = appendBound(b, &iv.Hi, ']', ')')
	for _, n := range iv.Excluded() {
		b = append(b, '\\')
		b = appendValue(b, n)
	}
	return b
}

func appendBound(b []byte, bd *interval.Bound, closed, open byte) []byte {
	switch {
	case !bd.Bounded:
		return append(b, '~')
	case bd.Open:
		b = append(b, open)
	default:
		b = append(b, closed)
	}
	return appendValue(b, bd.V)
}

func appendValue(b []byte, v value.Value) []byte {
	switch v.Kind() {
	case value.KindInt:
		b = append(b, 'i')
		return strconv.AppendInt(b, v.AsInt(), 10)
	case value.KindString:
		b = append(b, 's')
		b = strconv.AppendInt(b, int64(len(v.AsString())), 10)
		b = append(b, ':')
		return append(b, v.AsString()...)
	default:
		return append(b, 'n')
	}
}

// appendProvenanceKey appends the canonical key and the sorted
// provenance set, so strict deduplication never merges combinations built
// from different membership tuples — they are not interchangeable under
// the dangling-reference pruning rule.
func (m *MetaTuple) appendProvenanceKey(b []byte) []byte {
	return appendProvenance(m.appendCanonicalKey(b), m.Comps)
}

// appendProvenance completes a canonical key into a provenance key.
func appendProvenance(b []byte, comps []CompRef) []byte {
	b = append(b, '@')
	var refBuf [8]CompRef
	refs := append(refBuf[:0], comps...)
	slices.SortFunc(refs, func(a, b CompRef) int {
		return cmp.Or(cmp.Compare(a.View, b.View), cmp.Compare(a.Idx, b.Idx))
	})
	for _, c := range refs {
		b = append(b, c.View...)
		b = append(b, '/')
		b = strconv.AppendInt(b, int64(c.Idx), 10)
		b = append(b, ',')
	}
	return b
}

// Dedupe removes strict replications: meta-tuples equal in cells, views,
// symbolic comparisons, and provenance. Tuples differing only in
// provenance are kept apart — under the dangling-reference rule one
// combination may be expressible while its look-alike is not.
func (r *MetaRel) Dedupe() {
	r.dedupeBy((*MetaTuple).appendProvenanceKey)
}

// DedupeLoose removes replications up to variable renaming, ignoring
// provenance (§5: "after replications are removed"). It is safe only once
// dangling-reference pruning has run — all survivors' provenance is
// complete, so structurally equal tuples are interchangeable.
func (r *MetaRel) DedupeLoose() {
	r.dedupeBy((*MetaTuple).appendCanonicalKey)
}

// dedupeBy keeps the first tuple of every key; key appends to the buffer
// it is handed, which is reused from tuple to tuple.
func (r *MetaRel) dedupeBy(key func(*MetaTuple, []byte) []byte) {
	seen := make(map[string]struct{}, len(r.Tuples))
	var buf []byte
	kept := r.Tuples[:0]
	for _, t := range r.Tuples {
		buf = key(t, buf[:0])
		if _, dup := seen[string(buf)]; dup {
			continue
		}
		seen[string(buf)] = struct{}{}
		kept = append(kept, t)
	}
	r.Tuples = kept
}

// Render prints the meta-relation in the figure notation. The inst maps
// VarIDs to display names; nil falls back to "v<N>" names.
func (r *MetaRel) Render(w interface{ Write([]byte) (int, error) }, title string, inst *Instance) {
	name := func(v VarID) string { return fmt.Sprintf("v%d", v) }
	if inst != nil {
		name = inst.VarName
	}
	rows := make([][]string, 0, len(r.Tuples))
	for _, t := range r.Tuples {
		row := make([]string, 0, len(t.Cells)+1)
		row = append(row, strings.Join(t.Views, ","))
		for _, c := range t.Cells {
			row = append(row, c.render(name))
		}
		rows = append(rows, row)
	}
	attrs := append([]string{"VIEW"}, r.Attrs...)
	relation.RenderTable(w, title, attrs, rows, true)
}

// String renders the meta-relation with fallback variable names.
func (r *MetaRel) String() string {
	var b strings.Builder
	r.Render(&b, "", nil)
	return b.String()
}
