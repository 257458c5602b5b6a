package relation

import (
	"slices"

	"authdb/internal/value"
)

// Tuple is one row of a relation.
type Tuple []value.Value

// Clone returns a copy of the tuple.
func (t Tuple) Clone() Tuple { return append(Tuple(nil), t...) }

// Equal reports element-wise equality.
func (t Tuple) Equal(u Tuple) bool {
	if len(t) != len(u) {
		return false
	}
	for i := range t {
		if !t[i].Equal(u[i]) {
			return false
		}
	}
	return true
}

// Compare orders tuples lexicographically; used for canonical rendering
// and set comparison.
func (t Tuple) Compare(u Tuple) int {
	n := len(t)
	if len(u) < n {
		n = len(u)
	}
	for i := 0; i < n; i++ {
		if d := t[i].Compare(u[i]); d != 0 {
			return d
		}
	}
	return len(t) - len(u)
}

// Relation is a relation instance: a set of tuples over an ordered list of
// (possibly qualified) attribute names. Base relations use bare attribute
// names; intermediate and answer relations use qualified names such as
// "EMPLOYEE:1.NAME".
//
// A relation is immutable once a constructor returns it: no method adds,
// removes or reorders a tuple. Set semantics belong to the builder (Set),
// and a base relation changes only through Versioned, which publishes
// each change as a new relation. Any relation may therefore be read from
// many goroutines at once, and an index built for it (index.go) stays
// valid for every reader of its tuples.
type Relation struct {
	Attrs  []string
	tuples []Tuple
	// canonical records that tuples are in canonical order, so Sorted
	// need not check: NewCanonical sets it, Clone copies it, and every
	// other relation starts without it.
	canonical bool
	idx       *indexCache
}

// NewDistinct returns a relation over attrs holding tuples, which the
// caller guarantees are distinct: it takes ownership of both slices. No
// relation writes its attribute list after it is built, so attrs may be
// one another relation holds. Products of two sets, and selections of a
// set, are distinct by construction. The relation and its empty index
// cache are one allocation.
func NewDistinct(attrs []string, tuples []Tuple) *Relation {
	rc := &struct {
		r Relation
		c indexCache
	}{r: Relation{Attrs: attrs, tuples: tuples}}
	rc.r.idx = &rc.c
	return &rc.r
}

// NewCanonical is NewDistinct for tuples the caller also guarantees are
// in canonical order: it marks the relation canonical, so every Sorted
// returns the tuples without a check or a copy.
func NewCanonical(attrs []string, tuples []Tuple) *Relation {
	r := NewDistinct(attrs, tuples)
	r.canonical = true
	return r
}

// Arity returns the number of attributes.
func (r *Relation) Arity() int { return len(r.Attrs) }

// Len returns the number of tuples.
func (r *Relation) Len() int { return len(r.tuples) }

// Tuples returns the tuple slice (callers must not mutate it).
func (r *Relation) Tuples() []Tuple { return r.tuples }

// AttrIndex returns the position of attribute a, or -1. Lookups accept
// either the exact (qualified) name or, when unambiguous, the bare
// attribute name.
func (r *Relation) AttrIndex(a string) int {
	for i, x := range r.Attrs {
		if x == a {
			return i
		}
	}
	// Fall back to an unambiguous suffix match on the bare attribute name.
	found := -1
	for i, x := range r.Attrs {
		if _, bare := SplitQualified(x); bare == a {
			if found >= 0 {
				return -1 // ambiguous
			}
			found = i
		}
	}
	return found
}

// Clone returns a deep copy, its tuples carved from one backing array.
func (r *Relation) Clone() *Relation {
	out := NewDistinct(append([]string(nil), r.Attrs...), make([]Tuple, 0, len(r.tuples)))
	out.canonical = r.canonical
	cells := 0
	for _, t := range r.tuples {
		cells += len(t)
	}
	free := make([]value.Value, cells)
	for _, t := range r.tuples {
		n := copy(free, t)
		out.tuples = append(out.tuples, Tuple(free[:n:n]))
		free = free[n:]
	}
	return out
}

// Sorted returns the tuples in canonical (lexicographic) order without
// mutating the relation. A canonical relation — every delivered
// relation is one — returns its own tuples with cap == len, neither
// checked, copied nor sorted: the caller must not modify them, and its
// appends cannot reach a backing array a later Versioned insert
// extends. Any other relation that happens to be in order is returned
// the same way after a check; otherwise (a base relation in insertion
// order) it sorts a copy.
func (r *Relation) Sorted() []Tuple {
	if r.canonical || slices.IsSortedFunc(r.tuples, Tuple.Compare) {
		return r.tuples[:len(r.tuples):len(r.tuples)]
	}
	out := slices.Clone(r.tuples)
	slices.SortFunc(out, Tuple.Compare)
	return out
}

// Equal reports set equality with s: same attribute list and same tuples.
func (r *Relation) Equal(s *Relation) bool {
	return slices.Equal(r.Attrs, s.Attrs) && slices.EqualFunc(r.Sorted(), s.Sorted(), Tuple.Equal)
}

// Project returns the projection of r onto the attributes at the given
// indices, with set semantics (duplicates collapse).
func (r *Relation) Project(idx []int) *Relation {
	attrs := make([]string, len(idx))
	for i, j := range idx {
		attrs[i] = r.Attrs[j]
	}
	out := NewSet(attrs, len(r.tuples))
	row := make(Tuple, len(idx))
	for _, t := range r.tuples {
		for i, j := range idx {
			row[i] = t[j]
		}
		if out.Add(row) {
			row = make(Tuple, len(idx))
		}
	}
	return out.Relation()
}

// Select returns the tuples satisfying pred, sharing their storage with
// r.
func (r *Relation) Select(pred func(Tuple) bool) *Relation {
	var out []Tuple
	for _, t := range r.tuples {
		if pred(t) {
			out = append(out, t)
		}
	}
	return NewDistinct(r.Attrs, out)
}

// Product returns the cartesian product r × s with concatenated attribute
// lists.
func (r *Relation) Product(s *Relation) *Relation {
	attrs := append(append([]string(nil), r.Attrs...), s.Attrs...)
	out := make([]Tuple, 0, len(r.tuples)*len(s.tuples))
	for _, a := range r.tuples {
		for _, b := range s.tuples {
			row := make(Tuple, 0, len(a)+len(b))
			out = append(out, append(append(row, a...), b...))
		}
	}
	return NewDistinct(attrs, out)
}

// Rename returns a view of r under a new attribute list (same arity),
// used to qualify base relations with query aliases. It shares r's
// tuples and index cache.
func (r *Relation) Rename(attrs []string) *Relation {
	if len(attrs) != len(r.Attrs) {
		panic("relation: Rename arity mismatch")
	}
	return &Relation{Attrs: append([]string(nil), attrs...), tuples: r.tuples, idx: r.idx}
}
