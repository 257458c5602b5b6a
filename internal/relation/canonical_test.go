package relation

import (
	"math/rand"
	"slices"
	"testing"
	"unsafe"
)

// TestCanonicalMarkFollowsOrder runs random sequences of every way a
// relation is built — the constructors, the Set builder, Rename, Clone,
// Suffix, the read-only Select, Project and a Versioned lineage — and
// checks after each step that Sorted is the tuples in canonical order,
// and that a relation marked canonical really is in that order and
// hands back its own backing array: the mark is trusted without a
// check, so a path that breaks the order and keeps the mark would serve
// rows out of order.
func TestCanonicalMarkFollowsOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	randTuple := func() Tuple {
		if rng.Intn(2) == 0 {
			return Tuple{vi(rng.Int63n(12)), vs(string(rune('a' + rng.Intn(3))))}
		}
		return Tuple{vs(string(rune('a' + rng.Intn(3)))), vi(rng.Int63n(12))}
	}
	check := func(step int, op string, r *Relation) {
		t.Helper()
		want := slices.Clone(r.Tuples())
		slices.SortFunc(want, Tuple.Compare)
		got := r.Sorted()
		if !slices.EqualFunc(got, want, Tuple.Equal) {
			t.Fatalf("step %d (%s): Sorted() = %v, want %v", step, op, got, want)
		}
		if !r.canonical {
			return
		}
		if !slices.IsSortedFunc(r.Tuples(), Tuple.Compare) {
			t.Fatalf("step %d (%s): marked canonical, tuples %v out of order", step, op, r.Tuples())
		}
		if len(got) > 0 && (&got[0] != &r.Tuples()[0] || cap(got) != len(got)) {
			t.Fatalf("step %d (%s): a canonical relation's Sorted is not its own tuples capped at their length", step, op)
		}
	}
	for run := 0; run < 200; run++ {
		r := NewDistinct([]string{"A", "B"}, nil)
		for step := 0; step < 60; step++ {
			var op string
			switch rng.Intn(10) {
			case 0, 1:
				// The builder adds new rows after the relation's own, in
				// arrival order.
				op = "Set"
				s := NewSet(r.Attrs, r.Len())
				for _, tp := range r.Tuples() {
					s.Add(tp)
				}
				for n := rng.Intn(4); n > 0; n-- {
					s.Add(randTuple())
				}
				r = s.Relation()
			case 2:
				op = "NewDistinct"
				tuples := slices.Clone(r.Tuples())
				rng.Shuffle(len(tuples), func(i, j int) { tuples[i], tuples[j] = tuples[j], tuples[i] })
				r = NewDistinct(r.Attrs, tuples)
			case 3, 4:
				op = "NewCanonical"
				tuples := slices.Clone(r.Tuples())
				slices.SortFunc(tuples, Tuple.Compare)
				r = NewCanonical(r.Attrs, tuples)
			case 5:
				op = "Clone"
				r = r.Clone()
			case 6:
				op = "Rename"
				r = r.Rename([]string{"X.A", "X.B"})
			case 7:
				op = "Suffix"
				r = r.Suffix(rng.Intn(r.Len() + 1))
			case 8:
				if rng.Intn(2) == 0 {
					op = "Select"
					k := rng.Int63n(12)
					r = r.Select(func(tp Tuple) bool { return !tp[1].Equal(vi(k)) })
				} else {
					op = "Project"
					r = r.Project([]int{1, 0})
				}
			case 9:
				// Versioned appends and deletes publish new heads; the
				// relation a lineage starts at is not written.
				op = "Versioned"
				before := slices.Clone(r.Tuples())
				v := VersionedOf(r)
				check(step, op+" start", v.Head())
				for n := rng.Intn(4); n > 0; n-- {
					if rng.Intn(4) == 0 {
						k := rng.Int63n(12)
						v.Delete(func(tp Tuple) bool { return tp[0].Equal(vi(k)) })
					} else {
						v.Insert(randTuple()) //nolint:errcheck // arity is correct
					}
					check(step, op+" head", v.Head())
				}
				check(step, op+" start after", r)
				if !slices.EqualFunc(r.Tuples(), before, Tuple.Equal) {
					t.Fatalf("step %d: the relation a lineage started at changed", step)
				}
				r = v.Head()
			}
			check(step, op, r)
		}
	}
}

// TestRelationFootprint pins what a relation costs: its header's size,
// one allocation for a relation built from a known-distinct slice (the
// relation and its index cache are one object), and at most one for the
// builder's hand-over.
func TestRelationFootprint(t *testing.T) {
	if got := unsafe.Sizeof(Relation{}); got != 64 {
		t.Fatalf("a Relation takes %d bytes, want 64", got)
	}
	attrs := []string{"A"}
	tuples := ints(1, 2, 3)
	if allocs := testing.AllocsPerRun(100, func() { NewDistinct(attrs, tuples) }); allocs != 1 {
		t.Fatalf("NewDistinct allocated %.0f objects, want 1", allocs)
	}
	s := NewSet(attrs, len(tuples))
	for _, tp := range tuples {
		s.Add(tp)
	}
	if allocs := testing.AllocsPerRun(100, func() { s.Relation() }); allocs > 1 {
		t.Fatalf("Set.Relation allocated %.0f objects, want at most 1", allocs)
	}
}
