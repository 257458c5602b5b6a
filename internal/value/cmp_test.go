package value

import (
	"testing"
	"testing/quick"
)

func TestCmpEval(t *testing.T) {
	two, three := Int(2), Int(3)
	cases := []struct {
		op   Cmp
		a, b Value
		want bool
	}{
		{EQ, two, two, true}, {EQ, two, three, false},
		{NE, two, three, true}, {NE, two, two, false},
		{LT, two, three, true}, {LT, three, two, false}, {LT, two, two, false},
		{LE, two, two, true}, {LE, three, two, false},
		{GT, three, two, true}, {GT, two, two, false},
		{GE, two, two, true}, {GE, two, three, false},
		{LT, String("a"), String("b"), true},
		{GE, String("b"), String("a"), true},
	}
	for _, c := range cases {
		if got := c.op.Eval(c.a, c.b); got != c.want {
			t.Errorf("%v %v %v = %v, want %v", c.a, c.op, c.b, got, c.want)
		}
	}
}

func TestCmpFlip(t *testing.T) {
	if err := quick.Check(func(a, b Value) bool {
		for _, op := range Comparators {
			if op.Eval(a, b) != op.Flip().Eval(b, a) {
				return false
			}
		}
		return true
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestParseCmp(t *testing.T) {
	cases := map[string]Cmp{
		"=": EQ, "==": EQ,
		"!=": NE, "<>": NE, "≠": NE,
		"<": LT, "<=": LE, "≤": LE,
		">": GT, ">=": GE, "≥": GE,
	}
	for in, want := range cases {
		got, ok := ParseCmp(in)
		if !ok || got != want {
			t.Errorf("ParseCmp(%q) = %v,%v want %v", in, got, ok, want)
		}
	}
	if _, ok := ParseCmp("~"); ok {
		t.Error("ParseCmp accepted garbage")
	}
}

func TestCmpStringRoundTrip(t *testing.T) {
	for _, op := range Comparators {
		got, ok := ParseCmp(op.String())
		if !ok || got != op {
			t.Errorf("round trip of %v failed: %v %v", op, got, ok)
		}
	}
	if Cmp(99).String() == "" {
		t.Error("unknown comparator must render")
	}
}
