package relation

import (
	"testing"

	"authdb/internal/value"
)

// mod returns n tuples (i, i mod m).
func mod(n, m int64) []Tuple {
	out := make([]Tuple, n)
	for i := range out {
		out[i] = Tuple{vi(int64(i)), vi(int64(i) % m)}
	}
	return out
}

func TestLookupEq(t *testing.T) {
	r := NewDistinct([]string{"A", "B"}, mod(10, 3))
	got := r.LookupEq(1, vi(1))
	if len(got) != 3 {
		t.Fatalf("lookup returned %d tuples, want 3", len(got))
	}
	for _, tp := range got {
		if tp[1].AsInt() != 1 {
			t.Fatalf("wrong tuple %v", tp)
		}
	}
	if len(r.LookupEq(1, vi(99))) != 0 {
		t.Fatal("missing value matched")
	}
	if r.LookupEq(-1, vi(0)) != nil || r.LookupEq(5, vi(0)) != nil {
		t.Fatal("out-of-range attribute must return nil")
	}
	if _, ok := r.idx.byAttr[1]; !ok || len(r.idx.byAttr) != 1 {
		t.Fatalf("hash indexes built on %v, want attribute 1 only", r.idx.byAttr)
	}
}

// TestLookupEqAllocatesNothing: once the hash index is built, a lookup,
// hit or miss, allocates nothing — the index is keyed by the value, not
// by a string rendered from it.
func TestLookupEqAllocatesNothing(t *testing.T) {
	var tuples []Tuple
	for i := int64(0); i < 64; i++ {
		tuples = append(tuples, Tuple{vi(i), vs("k" + string(rune('a'+i%4)))})
	}
	r := NewDistinct([]string{"A", "B"}, tuples)
	r.LookupEq(1, vs("ka"))
	for _, v := range []value.Value{vs("kb"), vs("zz"), vi(3)} {
		if allocs := testing.AllocsPerRun(100, func() { r.LookupEq(1, v) }); allocs != 0 {
			t.Fatalf("LookupEq(%v) allocated %.0f objects, want none", v, allocs)
		}
	}
}

func TestLookupEqKindDistinct(t *testing.T) {
	r := build([]string{"A"}, Tuple{vi(1)}, Tuple{vs("1")})
	if len(r.LookupEq(0, vi(1))) != 1 {
		t.Fatal("Int(1) lookup must not match String(\"1\")")
	}
	if len(r.LookupEq(0, vs("1"))) != 1 {
		t.Fatal("String lookup must not match Int")
	}
}

func TestLookupRange(t *testing.T) {
	r := NewDistinct([]string{"A", "B"}, mod(10, 3))
	got := r.LookupRange(0, &RangeEnd{V: vi(3)}, &RangeEnd{V: vi(6), Open: true})
	if len(got) != 3 {
		t.Fatalf("[3,6) returned %d tuples, want 3", len(got))
	}
	for k, tp := range got {
		if tp[0].AsInt() != int64(3+k) {
			t.Fatalf("run out of order: %v", got)
		}
	}
	if got := r.LookupRange(0, nil, nil); len(got) != 10 {
		t.Fatalf("unbounded range returned %d tuples, want 10", len(got))
	}
	if got := r.LookupRange(0, &RangeEnd{V: vi(7), Open: true}, nil); len(got) != 2 {
		t.Fatalf("(7,+inf) returned %d tuples, want 2", len(got))
	}
	if r.LookupRange(-1, nil, nil) != nil || r.LookupRange(5, nil, nil) != nil {
		t.Fatal("out-of-range attribute must return nil")
	}
	if _, ok := r.idx.ord[0]; !ok || len(r.idx.ord) != 1 {
		t.Fatalf("ordered indexes built on %v, want attribute 0 only", r.idx.ord)
	}
}

func TestLookupRangeEmpty(t *testing.T) {
	r := NewDistinct([]string{"A"}, ints(0, 1, 2, 3, 4))
	cases := []struct {
		lo, hi *RangeEnd
	}{
		{&RangeEnd{V: vi(4), Open: true}, nil},                             // > max
		{nil, &RangeEnd{V: vi(0), Open: true}},                             // < min
		{&RangeEnd{V: vi(3)}, &RangeEnd{V: vi(2)}},                         // inverted
		{&RangeEnd{V: vi(2), Open: true}, &RangeEnd{V: vi(3), Open: true}}, // open-open gap
		{&RangeEnd{V: vi(99)}, nil},                                        // beyond domain
	}
	for k, c := range cases {
		if got := r.LookupRange(0, c.lo, c.hi); len(got) != 0 {
			t.Fatalf("case %d: empty range returned %v", k, got)
		}
	}
	empty := NewDistinct([]string{"A"}, nil)
	if got := empty.LookupRange(0, nil, nil); len(got) != 0 {
		t.Fatal("empty relation range must be empty")
	}
}

func TestLookupRangeKindBoundary(t *testing.T) {
	// The total order is kind-major: null < every int < every string.
	r := build([]string{"A"}, Tuple{vi(5)}, Tuple{vi(100)}, Tuple{vs("5")}, Tuple{vs("abc")})
	// An int-bounded upper range never captures strings.
	if got := r.LookupRange(0, nil, &RangeEnd{V: vi(1000)}); len(got) != 2 {
		t.Fatalf("int range caught strings: %v", got)
	}
	// A string-bounded lower range starts above every int.
	if got := r.LookupRange(0, &RangeEnd{V: vs("")}, nil); len(got) != 2 {
		t.Fatalf("string range caught ints: %v", got)
	}
	// String ordering is lexicographic: "5" > "100" as strings.
	if got := r.LookupRange(0, &RangeEnd{V: vs("2")}, &RangeEnd{V: vs("6")}); len(got) != 1 || got[0][0].String() != "5" {
		t.Fatalf("lexicographic string range wrong: %v", got)
	}
}

// TestLookupRangeBounds checks every one-sided bound, open and closed,
// and the point range an equality reads.
func TestLookupRangeBounds(t *testing.T) {
	r := NewDistinct([]string{"A"}, ints(0, 1, 2, 3, 4, 5))
	three := vi(3)
	for _, c := range []struct {
		name   string
		lo, hi *RangeEnd
		want   int
	}{
		{"[3,3]", &RangeEnd{V: three}, &RangeEnd{V: three}, 1},
		{"(-inf,3)", nil, &RangeEnd{V: three, Open: true}, 3},
		{"(-inf,3]", nil, &RangeEnd{V: three}, 4},
		{"(3,+inf)", &RangeEnd{V: three, Open: true}, nil, 2},
		{"[3,+inf)", &RangeEnd{V: three}, nil, 3},
	} {
		if got := r.LookupRange(0, c.lo, c.hi); len(got) != c.want {
			t.Fatalf("%s: got %d tuples, want %d", c.name, len(got), c.want)
		}
	}
}

func TestDistinctCount(t *testing.T) {
	r := NewDistinct([]string{"A", "B"}, mod(12, 4))
	if got := r.DistinctCount(0); got != 12 {
		t.Fatalf("DistinctCount(0) = %d, want 12", got)
	}
	if got := r.DistinctCount(1); got != 4 {
		t.Fatalf("DistinctCount(1) = %d, want 4", got)
	}
	if got := r.DistinctCount(-1); got != 0 {
		t.Fatalf("DistinctCount(-1) = %d, want 0", got)
	}
	if got := NewDistinct([]string{"A"}, nil).DistinctCount(0); got != 0 {
		t.Fatalf("empty DistinctCount = %d, want 0", got)
	}
}

// TestOrderedIndexAppendInterleave checks that concurrent readers of one
// relation build and share its indexes: every lookup, hash or ordered,
// sees every tuple. Run under -race.
func TestOrderedIndexAppendInterleave(t *testing.T) {
	r := NewDistinct([]string{"A"}, ints(0, 1, 2, 3, 4, 5, 6, 7))
	done := make(chan struct{})
	for w := 0; w < 4; w++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for k := 0; k < 50; k++ {
				if got := r.LookupRange(0, &RangeEnd{V: vi(2)}, &RangeEnd{V: vi(5)}); len(got) != 4 {
					t.Errorf("concurrent range got %d tuples", len(got))
					return
				}
				if got := r.LookupEq(0, vi(int64(k%8))); len(got) != 1 {
					t.Errorf("concurrent lookup got %d tuples", len(got))
					return
				}
				if r.DistinctCount(0) != 8 {
					t.Error("concurrent distinct wrong")
					return
				}
			}
		}()
	}
	for w := 0; w < 4; w++ {
		<-done
	}
}

// TestOrderedIndexSharedThroughRename: a rename holds its base's tuples,
// so an ordered index built through it serves the base too.
func TestOrderedIndexSharedThroughRename(t *testing.T) {
	r := build([]string{"A"}, ints(7, 8)...)
	q := r.Rename([]string{"X.A"})
	if len(q.LookupRange(0, &RangeEnd{V: vi(0)}, nil)) != 2 {
		t.Fatal("renamed view misses shared tuples")
	}
	if _, ok := r.idx.ord[0]; !ok {
		t.Fatal("the ordered index built through the rename is not the base's")
	}
	if len(r.LookupRange(0, &RangeEnd{V: vi(8)}, nil)) != 1 || q.DistinctCount(0) != 2 || r.DistinctCount(0) != 2 {
		t.Fatal("base and rename disagree on the shared tuples")
	}
}

// TestIndexSharedThroughRename: the same for the hash index, and a
// rename taken later shares it too.
func TestIndexSharedThroughRename(t *testing.T) {
	r := build([]string{"A"}, ints(7)...)
	q := r.Rename([]string{"X.A"})
	if len(q.LookupEq(0, vi(7))) != 1 {
		t.Fatal("renamed view misses shared tuples")
	}
	if _, ok := r.idx.byAttr[0]; !ok {
		t.Fatal("the hash index built through the rename is not the base's")
	}
	q2 := r.Rename([]string{"Y.A"})
	if len(q2.LookupEq(0, vi(7))) != 1 || len(r.LookupEq(0, vi(7))) != 1 || len(r.idx.byAttr) != 1 {
		t.Fatal("a later rename or the base did not share the index")
	}
}
