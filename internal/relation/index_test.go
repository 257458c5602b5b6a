package relation

import (
	"testing"

	"authdb/internal/value"
)

func TestLookupEq(t *testing.T) {
	r := New([]string{"A", "B"})
	for i := int64(0); i < 10; i++ {
		r.MustInsert(vi(i), vi(i%3))
	}
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
	r := New([]string{"A", "B"})
	for i := int64(0); i < 64; i++ {
		r.MustInsert(vi(i), vs("k"+string(rune('a'+i%4))))
	}
	r.LookupEq(1, vs("ka"))
	for _, v := range []value.Value{vs("kb"), vs("zz"), vi(3)} {
		if allocs := testing.AllocsPerRun(100, func() { r.LookupEq(1, v) }); allocs != 0 {
			t.Fatalf("LookupEq(%v) allocated %.0f objects, want none", v, allocs)
		}
	}
}

func TestLookupEqKindDistinct(t *testing.T) {
	r := New([]string{"A"})
	r.MustInsert(vi(1))
	r.MustInsert(vs("1"))
	if len(r.LookupEq(0, vi(1))) != 1 {
		t.Fatal("Int(1) lookup must not match String(\"1\")")
	}
	if len(r.LookupEq(0, vs("1"))) != 1 {
		t.Fatal("String lookup must not match Int")
	}
}

func TestIndexInvalidation(t *testing.T) {
	r := New([]string{"A"})
	r.MustInsert(vi(1))
	if len(r.LookupEq(0, vi(1))) != 1 {
		t.Fatal("initial lookup")
	}
	r.MustInsert(vi(1)) // duplicate: no change, index may stay
	r.MustInsert(vi(2))
	if len(r.LookupEq(0, vi(2))) != 1 {
		t.Fatal("index not refreshed after insert")
	}
}

func TestLookupRange(t *testing.T) {
	r := New([]string{"A", "B"})
	for i := int64(0); i < 10; i++ {
		r.MustInsert(vi(i), vi(i%3))
	}
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
	r := New([]string{"A"})
	for i := int64(0); i < 5; i++ {
		r.MustInsert(vi(i))
	}
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
	empty := New([]string{"A"})
	if got := empty.LookupRange(0, nil, nil); len(got) != 0 {
		t.Fatal("empty relation range must be empty")
	}
}

func TestLookupRangeKindBoundary(t *testing.T) {
	// The total order is kind-major: null < every int < every string.
	r := New([]string{"A"})
	r.MustInsert(vi(5))
	r.MustInsert(vi(100))
	r.MustInsert(vs("5"))
	r.MustInsert(vs("abc"))
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
	r := New([]string{"A"})
	for i := int64(0); i < 6; i++ {
		r.MustInsert(vi(i))
	}
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
	r := New([]string{"A", "B"})
	for i := int64(0); i < 12; i++ {
		r.MustInsert(vi(i), vi(i%4))
	}
	if got := r.DistinctCount(0); got != 12 {
		t.Fatalf("DistinctCount(0) = %d, want 12", got)
	}
	if got := r.DistinctCount(1); got != 4 {
		t.Fatalf("DistinctCount(1) = %d, want 4", got)
	}
	if got := r.DistinctCount(-1); got != 0 {
		t.Fatalf("DistinctCount(-1) = %d, want 0", got)
	}
	if got := New([]string{"A"}).DistinctCount(0); got != 0 {
		t.Fatalf("empty DistinctCount = %d, want 0", got)
	}
}

// TestOrderedIndexAppendInterleave pins the lazy-rebuild contract: Append
// marks indexes stale (it must not eagerly rebuild), and the next lookup
// — hash or ordered — sees every appended tuple. Run under -race with the
// concurrent read phase at the end.
func TestOrderedIndexAppendInterleave(t *testing.T) {
	r := New([]string{"A"})
	for i := int64(0); i < 8; i++ {
		r.Append(Tuple{vi(i)})
		if got := r.LookupRange(0, &RangeEnd{V: vi(i)}, nil); len(got) != 1 {
			t.Fatalf("after append %d: range missed the new tuple (%v)", i, got)
		}
		if got := r.LookupEq(0, vi(i)); len(got) != 1 {
			t.Fatalf("after append %d: hash index stale", i)
		}
		if got := r.DistinctCount(0); got != int(i)+1 {
			t.Fatalf("after append %d: DistinctCount = %d", i, got)
		}
	}
	// With the data quiescent, concurrent readers share the built entries.
	done := make(chan struct{})
	for w := 0; w < 4; w++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for k := 0; k < 50; k++ {
				if got := r.LookupRange(0, &RangeEnd{V: vi(2)}, &RangeEnd{V: vi(5)}); len(got) != 4 {
					t.Errorf("concurrent range got %d tuples", len(got))
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

func TestOrderedIndexSharedThroughRename(t *testing.T) {
	r := New([]string{"A"})
	r.MustInsert(vi(7))
	q := r.Rename([]string{"X.A"})
	if len(q.LookupRange(0, &RangeEnd{V: vi(0)}, nil)) != 1 {
		t.Fatal("renamed view misses shared tuples")
	}
	// Same point-in-time contract as the hash index: after a base
	// mutation, the base must not serve the entry built through the
	// rename's older snapshot, and the snapshot keeps its own view.
	r.MustInsert(vi(8))
	if len(q.LookupRange(0, &RangeEnd{V: vi(0)}, nil)) != 1 {
		t.Fatal("snapshot lost its own tuples")
	}
	if len(r.LookupRange(0, &RangeEnd{V: vi(0)}, nil)) != 2 {
		t.Fatal("base served a stale ordered index built through the rename snapshot")
	}
	if q.DistinctCount(0) != 1 || r.DistinctCount(0) != 2 {
		t.Fatal("distinct counts must follow each reader's snapshot")
	}
}

func TestIndexSharedThroughRename(t *testing.T) {
	r := New([]string{"A"})
	r.MustInsert(vi(7))
	q := r.Rename([]string{"X.A"})
	if len(q.LookupEq(0, vi(7))) != 1 {
		t.Fatal("renamed view misses shared tuples")
	}
	// A Rename is a point-in-time view: it holds the slice header as of
	// its creation. The invariant the shared cache must keep is that the
	// BASE never serves an index built from the rename's older snapshot.
	r.MustInsert(vi(8))
	if len(q.LookupEq(0, vi(7))) != 1 {
		t.Fatal("snapshot lost its own tuples")
	}
	if len(r.LookupEq(0, vi(8))) != 1 {
		t.Fatal("base served a stale index built through the rename snapshot")
	}
	// And a rename taken after the mutation sees everything.
	q2 := r.Rename([]string{"Y.A"})
	if len(q2.LookupEq(0, vi(8))) != 1 {
		t.Fatal("fresh rename misses new tuples")
	}
}
