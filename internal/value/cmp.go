package value

import "fmt"

// Cmp is a comparator θ from the paper's comparative subformulas d1 θ d2
// (§2): one of =, ≠, <, ≤, >, ≥.
type Cmp uint8

const (
	// EQ is =.
	EQ Cmp = iota
	// NE is ≠.
	NE
	// LT is <.
	LT
	// LE is ≤.
	LE
	// GT is >.
	GT
	// GE is ≥.
	GE
)

// Comparators lists every comparator, useful for exhaustive tests.
var Comparators = []Cmp{EQ, NE, LT, LE, GT, GE}

// String renders the comparator in the ASCII form accepted by the parser.
func (c Cmp) String() string {
	switch c {
	case EQ:
		return "="
	case NE:
		return "!="
	case LT:
		return "<"
	case LE:
		return "<="
	case GT:
		return ">"
	case GE:
		return ">="
	default:
		return fmt.Sprintf("cmp(%d)", uint8(c))
	}
}

// ParseCmp recognises a comparator token. It accepts both ASCII digraphs
// and the unicode forms the paper typesets (≠, ≤, ≥).
func ParseCmp(tok string) (Cmp, bool) {
	switch tok {
	case "=", "==":
		return EQ, true
	case "!=", "<>", "≠":
		return NE, true
	case "<":
		return LT, true
	case "<=", "≤":
		return LE, true
	case ">":
		return GT, true
	case ">=", "≥":
		return GE, true
	}
	return EQ, false
}

// Eval reports whether a θ b holds under the domain total order.
func (c Cmp) Eval(a, b Value) bool {
	d := a.Compare(b)
	switch c {
	case EQ:
		return d == 0
	case NE:
		return d != 0
	case LT:
		return d < 0
	case LE:
		return d <= 0
	case GT:
		return d > 0
	case GE:
		return d >= 0
	default:
		return false
	}
}

// Flip returns the comparator θ' such that a θ b ⇔ b θ' a. It is used to
// normalise predicates so the constant is always on the right-hand side.
func (c Cmp) Flip() Cmp {
	switch c {
	case LT:
		return GT
	case LE:
		return GE
	case GT:
		return LT
	case GE:
		return LE
	default: // EQ and NE are symmetric.
		return c
	}
}
