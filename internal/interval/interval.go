// Package interval implements constraint reasoning over single attributes:
// intervals of the value total order with open/closed endpoints plus a set
// of excluded points (for ≠).
//
// This is the machinery behind the paper's §4.2 selection refinement: for a
// query predicate λ and a meta-tuple predicate μ it decides, case by case,
// whether λ implies μ (clear the field), μ implies λ (keep unmodified),
// λ ∧ μ is contradictory (discard the meta-tuple), or neither (conjoin).
// In the paper these decisions "may require consulting relation COMPARISON";
// here the comparative subformulas are folded into interval form up front.
package interval

import (
	"sort"
	"strings"

	"authdb/internal/value"
)

// Bound is one endpoint of an interval. The zero Bound is unbounded
// (−∞ for a low bound, +∞ for a high bound).
type Bound struct {
	// Bounded marks the endpoint as finite; V and Open are meaningless
	// otherwise.
	Bounded bool
	// V is the endpoint value.
	V value.Value
	// Open excludes the endpoint itself (strict comparison).
	Open bool
}

// At returns a closed finite bound at v.
func At(v value.Value) Bound { return Bound{Bounded: true, V: v} }

// Above returns an open finite bound at v.
func Above(v value.Value) Bound { return Bound{Bounded: true, V: v, Open: true} }

// Interval is a (possibly unbounded) interval of the value order minus a
// finite set of excluded points. The zero Interval is the full line
// (no constraint at all), matching the paper's blank ⊔.
type Interval struct {
	Lo, Hi Bound
	// not is the sorted set of excluded points.
	not []value.Value
}

// Full returns the unconstrained interval (the blank predicate "true").
func Full() Interval { return Interval{} }

// Point returns the interval holding exactly v (the predicate A = v).
func Point(v value.Value) Interval {
	return Interval{Lo: At(v), Hi: At(v)}
}

// FromCmp returns the interval for the primitive predicate A θ c.
func FromCmp(c value.Cmp, v value.Value) Interval {
	switch c {
	case value.EQ:
		return Point(v)
	case value.NE:
		return Interval{not: []value.Value{v}}
	case value.LT:
		return Interval{Hi: Above(v)}
	case value.LE:
		return Interval{Hi: At(v)}
	case value.GT:
		return Interval{Lo: Above(v)}
	default: // GE
		return Interval{Lo: At(v)}
	}
}

// IsFull reports whether the interval is completely unconstrained; such a
// constraint renders as the paper's blank ⊔.
func (iv Interval) IsFull() bool {
	return !iv.Lo.Bounded && !iv.Hi.Bounded && len(iv.not) == 0
}

// IsPoint reports whether the interval admits exactly one representable
// value, returning it. (Open endpoints over a dense-looking order are
// treated conservatively: only closed equal endpoints count.)
func (iv Interval) IsPoint() (value.Value, bool) {
	if !iv.Lo.Bounded || !iv.Hi.Bounded || iv.Lo.Open || iv.Hi.Open {
		return value.Value{}, false
	}
	if iv.Lo.V.Compare(iv.Hi.V) != 0 {
		return value.Value{}, false
	}
	for _, n := range iv.not {
		if n.Equal(iv.Lo.V) {
			return value.Value{}, false
		}
	}
	return iv.Lo.V, true
}

// IsEmpty reports whether no value can satisfy the interval. Because the
// value order is not dense in general (integers) we only detect the
// syntactic cases: crossed bounds, an open/closed point, and a point
// excluded by ≠. That is sound: an interval reported non-empty may still
// be unsatisfiable over a sparse domain, which costs completeness, never
// soundness.
func (iv Interval) IsEmpty() bool {
	if iv.Lo.Bounded && iv.Hi.Bounded {
		d := iv.Lo.V.Compare(iv.Hi.V)
		if d > 0 {
			return true
		}
		if d == 0 {
			if iv.Lo.Open || iv.Hi.Open {
				return true
			}
			for _, n := range iv.not {
				if n.Equal(iv.Lo.V) {
					return true
				}
			}
		}
	}
	return false
}

// Contains reports whether v satisfies the interval constraint.
func (iv Interval) Contains(v value.Value) bool {
	if iv.Lo.Bounded {
		d := v.Compare(iv.Lo.V)
		if d < 0 || (d == 0 && iv.Lo.Open) {
			return false
		}
	}
	if iv.Hi.Bounded {
		d := v.Compare(iv.Hi.V)
		if d > 0 || (d == 0 && iv.Hi.Open) {
			return false
		}
	}
	for _, n := range iv.not {
		if n.Equal(v) {
			return false
		}
	}
	return true
}

// loLess reports whether low bound a admits values that b rejects
// (a starts strictly before b).
func loLess(a, b Bound) bool {
	if !a.Bounded {
		return b.Bounded
	}
	if !b.Bounded {
		return false
	}
	d := a.V.Compare(b.V)
	if d != 0 {
		return d < 0
	}
	return !a.Open && b.Open
}

// hiGreater reports whether high bound a admits values that b rejects
// (a ends strictly after b).
func hiGreater(a, b Bound) bool {
	if !a.Bounded {
		return b.Bounded
	}
	if !b.Bounded {
		return false
	}
	d := a.V.Compare(b.V)
	if d != 0 {
		return d > 0
	}
	return !a.Open && b.Open
}

// Intersect returns the conjunction λ ∧ μ of two interval constraints.
func Intersect(a, b Interval) Interval {
	out := a
	if loLess(a.Lo, b.Lo) {
		out.Lo = b.Lo
	}
	if hiGreater(a.Hi, b.Hi) {
		out.Hi = b.Hi
	}
	merged := mergeNot(a.not, b.not)
	// Drop exclusions that fall outside the final bounds; they carry no
	// information and would spoil canonical comparison.
	var kept []value.Value
	probe := Interval{Lo: out.Lo, Hi: out.Hi}
	for _, n := range merged {
		if probe.Contains(n) {
			kept = append(kept, n)
		}
	}
	out.not = kept
	return out
}

func mergeNot(a, b []value.Value) []value.Value {
	if len(a) == 0 && len(b) == 0 {
		return nil
	}
	m := append(append([]value.Value(nil), a...), b...)
	sort.Slice(m, func(i, j int) bool { return m[i].Less(m[j]) })
	out := m[:0]
	for i, v := range m {
		if i == 0 || !v.Equal(m[i-1]) {
			out = append(out, v)
		}
	}
	return out
}

// Hull returns a constraint implied by the disjunction a ∨ b: the weaker
// bound on each side, excluding only the points neither operand admits.
// Every value satisfying a or b satisfies Hull(a, b); the converse need
// not hold (the hull over-approximates, soundly for necessary-condition
// uses like mask-predicate pushdown).
func Hull(a, b Interval) Interval {
	if a.IsEmpty() {
		return b
	}
	if b.IsEmpty() {
		return a
	}
	out := Interval{Lo: a.Lo, Hi: a.Hi}
	if loLess(b.Lo, a.Lo) {
		out.Lo = b.Lo
	}
	if hiGreater(b.Hi, a.Hi) {
		out.Hi = b.Hi
	}
	// A point stays excluded only when both operands reject it; points
	// outside the hull bounds are already rejected and stay out of the
	// canonical form.
	probe := Interval{Lo: out.Lo, Hi: out.Hi}
	var kept []value.Value
	for _, n := range mergeNot(a.not, b.not) {
		if !a.Contains(n) && !b.Contains(n) && probe.Contains(n) {
			kept = append(kept, n)
		}
	}
	out.not = kept
	return out
}

// Implies reports whether a ⇒ b, i.e. every value satisfying a satisfies b.
// It must never report true incorrectly (that would leak data by clearing a
// restriction); reporting false when true only costs completeness.
func (a Interval) Implies(b Interval) bool {
	if a.IsEmpty() {
		return true
	}
	if loLess(a.Lo, b.Lo) || hiGreater(a.Hi, b.Hi) {
		return false
	}
	// Every point b excludes must be rejected by a as well.
	for _, n := range b.not {
		if a.Contains(n) {
			return false
		}
	}
	return true
}

// Equal reports structural equality of the canonical forms.
func (a Interval) Equal(b Interval) bool {
	if a.Lo != b.Lo || a.Hi != b.Hi || len(a.not) != len(b.not) {
		return false
	}
	for i := range a.not {
		if !a.not[i].Equal(b.not[i]) {
			return false
		}
	}
	return true
}

// Excluded returns the ≠-excluded points (read-only).
func (a Interval) Excluded() []value.Value { return a.not }

// Comparison is one primitive predicate "attribute Op V" of an
// interval's decomposition.
type Comparison struct {
	Op value.Cmp
	V  value.Value
}

// Comparisons decomposes the constraint into primitive predicates, the
// inverse of conjoining FromCmp intervals: a point becomes one =; a
// finite low bound >= or >, a finite high bound <= or <; each excluded
// point !=. A full interval decomposes into none.
func (a Interval) Comparisons() []Comparison {
	if v, ok := a.IsPoint(); ok {
		return []Comparison{{value.EQ, v}}
	}
	var out []Comparison
	if a.Lo.Bounded {
		op := value.GE
		if a.Lo.Open {
			op = value.GT
		}
		out = append(out, Comparison{op, a.Lo.V})
	}
	if a.Hi.Bounded {
		op := value.LE
		if a.Hi.Open {
			op = value.LT
		}
		out = append(out, Comparison{op, a.Hi.V})
	}
	for _, n := range a.not {
		out = append(out, Comparison{value.NE, n})
	}
	return out
}

// Conds renders the constraint as a conjunction of primitive predicates on
// the attribute named attr, e.g. "BUDGET >= 250000", each constant as its
// statement literal (B = 5 and B = "5" read apart). A full interval
// renders as no conditions; a point as a single equality.
func (a Interval) Conds(attr string) []string {
	cs := a.Comparisons()
	out := make([]string, len(cs))
	for i, c := range cs {
		out[i] = attr + " " + c.Op.String() + " " + value.Literal(c.V)
	}
	return out
}

// String renders the interval for debugging, e.g. "[250000, +inf)".
func (a Interval) String() string {
	if a.IsFull() {
		return "(-inf, +inf)"
	}
	var b strings.Builder
	switch {
	case !a.Lo.Bounded:
		b.WriteString("(-inf")
	case a.Lo.Open:
		b.WriteString("(" + a.Lo.V.String())
	default:
		b.WriteString("[" + a.Lo.V.String())
	}
	b.WriteString(", ")
	switch {
	case !a.Hi.Bounded:
		b.WriteString("+inf)")
	case a.Hi.Open:
		b.WriteString(a.Hi.V.String() + ")")
	default:
		b.WriteString(a.Hi.V.String() + "]")
	}
	for _, n := range a.not {
		b.WriteString(" \\ " + n.String())
	}
	return b.String()
}
