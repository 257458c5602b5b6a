package relation

import (
	"math/rand"
	"slices"
	"testing"
	"unsafe"
)

// TestCanonicalMarkFollowsOrder runs random sequences of every operation
// that builds, reorders or extends a relation and checks after each step
// that Sorted is the tuples in canonical order, and that a relation
// marked canonical really is in that order and hands back its own
// backing array: the mark is trusted without a check, so a path that
// breaks the order and keeps the mark would serve rows out of order.
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
		r := New([]string{"A", "B"})
		for step := 0; step < 60; step++ {
			var op string
			switch rng.Intn(8) {
			case 0:
				op = "Insert"
				r.Insert(randTuple()) //nolint:errcheck // arity is correct
			case 1:
				op = "Adopt"
				r.Adopt(randTuple())
			case 2:
				op = "Append"
				if tp := randTuple(); !r.Contains(tp) {
					r.Append(tp)
				}
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
				// Versioned appends and deletes publish new heads; the
				// relation given up to the lineage is not touched again.
				op = "Versioned"
				v := VersionedOf(r)
				check(step, op+" adopted", v.Head())
				for n := rng.Intn(4); n > 0; n-- {
					if rng.Intn(4) == 0 {
						k := rng.Int63n(12)
						v.Delete(func(tp Tuple) bool { return tp[0].Equal(vi(k)) })
					} else {
						v.Insert(randTuple()) //nolint:errcheck // arity is correct
					}
					check(step, op+" head", v.Head())
				}
				r = v.Head().Clone()
			}
			check(step, op, r)
		}
	}
}

// TestCanonicalMarkCostsNoSpace pins the mark in hasMemb's padding: a
// Relation is as large as the same fields without it.
func TestCanonicalMarkCostsNoSpace(t *testing.T) {
	type without struct {
		Attrs   []string
		tuples  []Tuple
		memb    tupleSet
		hasMemb bool
		idx     *indexCache
	}
	if got, want := unsafe.Sizeof(Relation{}), unsafe.Sizeof(without{}); got != want {
		t.Fatalf("a Relation takes %d bytes, %d without the canonical mark", got, want)
	}
}
