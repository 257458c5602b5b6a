package value

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// randValue draws from a mixed domain of nulls, ints, and strings.
func randValue(r *rand.Rand) Value {
	switch r.Intn(6) {
	case 0:
		return Null()
	case 1, 2, 3:
		return Int(int64(r.Intn(21) - 10))
	default:
		letters := []string{"", "a", "ab", "b", "ba", "z", "Acme", "acme"}
		return String(letters[r.Intn(len(letters))])
	}
}

// Generate implements quick.Generator so Value works with testing/quick.
func (Value) Generate(r *rand.Rand, _ int) reflect.Value {
	return reflect.ValueOf(randValue(r))
}

func TestKinds(t *testing.T) {
	cases := []struct {
		v    Value
		kind Kind
		str  string
	}{
		{Null(), KindNull, "-"},
		{Int(0), KindInt, "0"},
		{Int(-42), KindInt, "-42"},
		{String("Acme"), KindString, "Acme"},
		{String(""), KindString, ""},
	}
	for _, c := range cases {
		if c.v.Kind() != c.kind {
			t.Errorf("%v kind = %v, want %v", c.v, c.v.Kind(), c.kind)
		}
		if c.v.String() != c.str {
			t.Errorf("%v renders %q, want %q", c.v, c.v.String(), c.str)
		}
	}
	if !Null().IsNull() || Int(0).IsNull() || String("").IsNull() {
		t.Error("IsNull misclassifies")
	}
}

func TestKindString(t *testing.T) {
	if KindNull.String() != "null" || KindInt.String() != "int" || KindString.String() != "string" {
		t.Error("kind names wrong")
	}
	if Kind(99).String() == "" {
		t.Error("unknown kind must still render")
	}
}

func TestCompareTotalOrder(t *testing.T) {
	// Antisymmetry and transitivity over random triples.
	if err := quick.Check(func(a, b, c Value) bool {
		ab, ba := a.Compare(b), b.Compare(a)
		if ab != -ba {
			return false
		}
		if a.Compare(a) != 0 {
			return false
		}
		// Transitivity: a<=b and b<=c implies a<=c.
		if a.Compare(b) <= 0 && b.Compare(c) <= 0 && a.Compare(c) > 0 {
			return false
		}
		return true
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestCompareKindMajor(t *testing.T) {
	if !(Null().Less(Int(-1000)) && Int(1000).Less(String(""))) {
		t.Error("kind-major order violated: null < int < string")
	}
}

func TestEqualConsistentWithCompare(t *testing.T) {
	if err := quick.Check(func(a, b Value) bool {
		return a.Equal(b) == (a.Compare(b) == 0)
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestAccessors(t *testing.T) {
	if Int(7).AsInt() != 7 || String("x").AsString() != "x" {
		t.Error("payload accessors broken")
	}
	if Int(7).AsString() != "" || String("x").AsInt() != 0 {
		t.Error("cross-kind accessors must zero")
	}
}
