package relation

import (
	"fmt"
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
// The membership set (backing Insert's duplicate check and Contains) is
// maintained eagerly by Insert and Delete but invalidated by Append; the
// first subsequent operation that needs it rebuilds it. Rebuilding
// mutates the relation, so a relation that may have a stale set must not
// be shared across goroutines; relations populated purely by Insert
// always have a current set and are safe for concurrent reads.
type Relation struct {
	Attrs  []string
	tuples []Tuple
	// memb holds the membership set, valid only while hasMemb is true
	// (otherwise rebuild before use).
	memb    tupleSet
	hasMemb bool
	// canonical records that tuples are in canonical order, so Sorted
	// need not check: NewCanonical sets it, Insert, Adopt and Append
	// clear it, and every other relation built anew (each Versioned
	// revision included) starts without it. Clone keeps the order and the
	// mark. It sits in hasMemb's padding.
	canonical bool
	idx       *indexCache
}

// New creates an empty relation over the given attributes.
func New(attrs []string) *Relation { return NewSized(attrs, 0) }

// NewSized is New with room for n tuples (at most MaxPresize), so a
// relation built from an input of known length grows neither its tuple
// slice nor its set.
func NewSized(attrs []string, n int) *Relation {
	r := newRelation(append([]string(nil), attrs...), make([]Tuple, 0, min(n, MaxPresize)))
	r.hasMemb = true
	return r
}

// newRelation allocates a relation over attrs and tuples together with
// its own empty index cache: one object, not two. Its membership set is
// stale.
func newRelation(attrs []string, tuples []Tuple) *Relation {
	rc := &struct {
		r Relation
		c indexCache
	}{r: Relation{Attrs: attrs, tuples: tuples}}
	rc.r.idx = &rc.c
	return &rc.r
}

// NewCanonical returns a relation over attrs holding tuples, which the
// caller guarantees are distinct and in canonical order: it takes
// ownership of both slices and marks the relation canonical, so every
// Sorted returns the tuples without a check or a copy. It has no
// membership set until an operation needs one. No relation writes its
// attribute list after it is built, so attrs may be one another
// relation holds.
func NewCanonical(attrs []string, tuples []Tuple) *Relation {
	r := newRelation(attrs, tuples)
	r.canonical = true
	return r
}

// FromSchema creates an empty relation matching a relation scheme.
func FromSchema(s *Schema) *Relation { return New(s.Attrs) }

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

// ensureMemb rebuilds the membership set after Append invalidated it.
func (r *Relation) ensureMemb() {
	if !r.hasMemb {
		r.memb = setOf(r.tuples)
		r.hasMemb = true
	}
}

// Insert adds a copy of a tuple under set semantics; it reports whether
// the tuple was new. The tuple's arity must match the relation's.
func (r *Relation) Insert(t Tuple) (bool, error) {
	if len(t) != len(r.Attrs) {
		return false, fmt.Errorf("arity mismatch: tuple has %d values, relation %d attributes", len(t), len(r.Attrs))
	}
	return r.insert(t, true), nil
}

// Adopt is Insert without the copy: when t is new, the relation takes
// ownership of it, so the caller must not modify t afterwards (a
// duplicate stays the caller's — a Slab row can be reused). The arity
// must match.
func (r *Relation) Adopt(t Tuple) bool { return r.insert(t, false) }

func (r *Relation) insert(t Tuple, clone bool) bool {
	r.ensureMemb()
	pos, h, taken := r.memb.find(r.tuples, t)
	if pos >= 0 {
		return false
	}
	if clone {
		t = t.Clone()
	}
	r.memb.add(h, taken, len(r.tuples), cap(r.tuples))
	r.tuples = append(r.tuples, t)
	r.canonical = false
	r.idx.bump()
	return true
}

// Append adds a tuple the caller guarantees is not already present —
// outputs of products, joins, and selections over proper sets are unique
// by construction — skipping the duplicate check and taking ownership of
// t (no clone). The membership set goes stale and is rebuilt lazily by
// the next Insert or Contains. The arity must match.
func (r *Relation) Append(t Tuple) {
	r.tuples = append(r.tuples, t)
	r.canonical = false
	r.ReleaseMembership()
	r.idx.bump()
}

// ReleaseMembership frees the membership set of a relation that is done
// being built. Reads through Tuples, Len, Sorted and the secondary
// indexes are unaffected; the next Insert or Contains rebuilds the set
// (and therefore mutates r, like after Append).
func (r *Relation) ReleaseMembership() { r.memb, r.hasMemb = tupleSet{}, false }

// MustInsert inserts and panics on arity mismatch; for fixtures.
func (r *Relation) MustInsert(vals ...value.Value) {
	if _, err := r.Insert(Tuple(vals)); err != nil {
		panic(err)
	}
}

// Find returns the position of the tuple in Tuples, or -1 when it is
// absent. After an Append, the first call rebuilds the membership set
// (and therefore mutates r).
func (r *Relation) Find(t Tuple) int {
	r.ensureMemb()
	pos, _, _ := r.memb.find(r.tuples, t)
	return pos
}

// Contains reports set membership of the tuple, as Find does.
func (r *Relation) Contains(t Tuple) bool { return r.Find(t) >= 0 }

// Clone returns a deep copy with its own membership set, its tuples
// carved from one backing array. It only reads r.
func (r *Relation) Clone() *Relation {
	out := newRelation(append([]string(nil), r.Attrs...), make([]Tuple, 0, len(r.tuples)))
	out.hasMemb, out.canonical = true, r.canonical
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
	out.memb = setOf(out.tuples)
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
	if len(r.Attrs) != len(s.Attrs) || len(r.tuples) != len(s.tuples) {
		return false
	}
	for i := range r.Attrs {
		if r.Attrs[i] != s.Attrs[i] {
			return false
		}
	}
	for _, t := range r.tuples {
		if !s.Contains(t) {
			return false
		}
	}
	return true
}

// Project returns the projection of r onto the attributes at the given
// indices, with set semantics (duplicates collapse).
func (r *Relation) Project(idx []int) *Relation {
	attrs := make([]string, len(idx))
	for i, j := range idx {
		attrs[i] = r.Attrs[j]
	}
	out := New(attrs)
	row := make(Tuple, len(idx))
	for _, t := range r.tuples {
		for i, j := range idx {
			row[i] = t[j]
		}
		out.Insert(row) //nolint:errcheck // arity is correct by construction
	}
	return out
}

// Select returns the tuples satisfying pred.
func (r *Relation) Select(pred func(Tuple) bool) *Relation {
	out := New(r.Attrs)
	for _, t := range r.tuples {
		if pred(t) {
			out.Insert(t) //nolint:errcheck // arity is correct by construction
		}
	}
	return out
}

// Product returns the cartesian product r × s with concatenated attribute
// lists.
func (r *Relation) Product(s *Relation) *Relation {
	attrs := append(append([]string(nil), r.Attrs...), s.Attrs...)
	out := New(attrs)
	for _, a := range r.tuples {
		for _, b := range s.tuples {
			row := make(Tuple, 0, len(a)+len(b))
			row = append(append(row, a...), b...)
			out.Insert(row) //nolint:errcheck // arity is correct by construction
		}
	}
	return out
}

// Rename returns a shallow-ish copy of r with a new attribute list (same
// arity), used to qualify base relations with query aliases.
func (r *Relation) Rename(attrs []string) *Relation {
	if len(attrs) != len(r.Attrs) {
		panic("relation: Rename arity mismatch")
	}
	// The view shares r's tuples and index cache but not its membership
	// set, which r's later inserts would extend past the view's length.
	return &Relation{Attrs: append([]string(nil), attrs...), tuples: r.tuples, idx: r.idx}
}
