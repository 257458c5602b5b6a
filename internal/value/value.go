// Package value defines the atomic values of the relational model used
// throughout the library: typed constants drawn from attribute domains,
// a deterministic total order across them, and the comparators θ that
// appear in conjunctive selection predicates.
//
// The paper (Motro, ICDE 1989, §2) assumes attribute domains that are
// "nonempty, finite or countably infinite sets" with comparators
// <, ≤, ≥, =, ≠. We realise two domains — 64-bit integers and strings —
// which cover every example in the paper (names, titles, sponsors,
// salaries, budgets, project numbers).
package value

import (
	"fmt"
	"strconv"
	"strings"
)

// Kind discriminates the domain a Value belongs to.
type Kind uint8

const (
	// KindNull is the absence of a value. It is used for masked cells in
	// delivered answers; base relations never store nulls.
	KindNull Kind = iota
	// KindInt is the domain of 64-bit signed integers.
	KindInt
	// KindString is the domain of strings.
	KindString
)

// String returns the lowercase name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "null"
	case KindInt:
		return "int"
	case KindString:
		return "string"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Value is a single constant from an attribute domain. The zero Value is
// the null value. Values are comparable with == and usable as map keys.
type Value struct {
	kind Kind
	i    int64
	s    string
}

// Null returns the null value.
func Null() Value { return Value{} }

// Int returns an integer value.
func Int(i int64) Value { return Value{kind: KindInt, i: i} }

// String returns a string value.
func String(s string) Value { return Value{kind: KindString, s: s} }

// Kind reports the domain of v.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether v is the null value.
func (v Value) IsNull() bool { return v.kind == KindNull }

// AsInt returns the integer payload; it is 0 for non-integer values.
func (v Value) AsInt() int64 { return v.i }

// AsString returns the string payload; it is "" for non-string values.
func (v Value) AsString() string { return v.s }

// Compare imposes a deterministic total order over all values, kind-major
// (null < int < string) and natural within a kind. The total order is what
// interval reasoning in the authorization core is built on; cross-kind
// comparisons never arise from well-typed views but must still be
// deterministic for sorting and canonicalization.
func (v Value) Compare(w Value) int {
	if v.kind != w.kind {
		if v.kind < w.kind {
			return -1
		}
		return 1
	}
	switch v.kind {
	case KindInt:
		switch {
		case v.i < w.i:
			return -1
		case v.i > w.i:
			return 1
		}
	case KindString:
		return strings.Compare(v.s, w.s)
	}
	return 0
}

// Equal reports v == w under the domain order.
func (v Value) Equal(w Value) bool { return v == w }

// Less reports v < w under the domain order.
func (v Value) Less(w Value) bool { return v.Compare(w) < 0 }

// String renders the value the way the paper prints constants: bare words
// for strings, decimal for integers, and "-" for null (a masked cell).
func (v Value) String() string {
	switch v.kind {
	case KindNull:
		return "-"
	case KindInt:
		return strconv.FormatInt(v.i, 10)
	default:
		return v.s
	}
}
