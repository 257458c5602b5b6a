package relation

import (
	"fmt"
	"sort"
	"strconv"

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

// appendKey appends to b a map key identifying the tuple for set
// semantics. Looking a set up by string(t.appendKey(buf)) allocates
// nothing; only storing a new key copies it.
func (t Tuple) appendKey(b []byte) []byte {
	for _, v := range t {
		b = append(b, byte(v.Kind()))
		switch v.Kind() {
		case value.KindInt:
			b = strconv.AppendInt(b, v.AsInt(), 10)
		case value.KindString:
			b = append(b, v.AsString()...)
		default:
			b = append(b, v.String()...)
		}
		b = append(b, 0)
	}
	return b
}

// keyBuf sizes the stack buffer keys are built in; longer keys spill to
// the heap.
type keyBuf [64]byte

// key returns the tuple's set-semantics key in one allocation.
func (t Tuple) key() string {
	var buf keyBuf
	return string(t.appendKey(buf[:0]))
}

// Relation is a relation instance: a set of tuples over an ordered list of
// (possibly qualified) attribute names. Base relations use bare attribute
// names; intermediate and answer relations use qualified names such as
// "EMPLOYEE:1.NAME".
//
// The membership index (backing Insert's duplicate check and Contains) is
// maintained eagerly by Insert but invalidated by Append; the first
// subsequent operation that needs it rebuilds it. Rebuilding mutates the
// relation, so a relation that may have a stale index must not be shared
// across goroutines; relations populated purely by Insert always have a
// current index and are safe for concurrent reads.
type Relation struct {
	Attrs  []string
	tuples []Tuple
	// index holds the membership set; nil means stale (rebuild before use).
	index map[string]bool
	idx   *indexCache
}

// New creates an empty relation over the given attributes.
func New(attrs []string) *Relation {
	r := newRelation(append([]string(nil), attrs...), nil)
	r.index = make(map[string]bool)
	return r
}

// newRelation allocates a relation over attrs and tuples together with
// its own empty index cache: one object, not two.
func newRelation(attrs []string, tuples []Tuple) *Relation {
	rc := &struct {
		r Relation
		c indexCache
	}{r: Relation{Attrs: attrs, tuples: tuples}}
	rc.r.idx = &rc.c
	return &rc.r
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

// ensureIndex rebuilds the membership index after Append invalidated it.
func (r *Relation) ensureIndex() {
	if r.index != nil {
		return
	}
	idx := make(map[string]bool, len(r.tuples))
	for _, t := range r.tuples {
		idx[t.key()] = true
	}
	r.index = idx
}

// Insert adds a tuple under set semantics; it reports whether the tuple was
// new. The tuple's arity must match the relation's.
func (r *Relation) Insert(t Tuple) (bool, error) {
	if len(t) != len(r.Attrs) {
		return false, fmt.Errorf("arity mismatch: tuple has %d values, relation %d attributes", len(t), len(r.Attrs))
	}
	r.ensureIndex()
	var buf keyBuf
	k := t.appendKey(buf[:0])
	if r.index[string(k)] {
		return false, nil
	}
	r.index[string(k)] = true
	r.tuples = append(r.tuples, t.Clone())
	r.idx.bump()
	return true, nil
}

// Append adds a tuple the caller guarantees is not already present —
// outputs of products, joins, and selections over proper sets are unique
// by construction — skipping the duplicate check and taking ownership of
// t (no clone). The membership index goes stale and is rebuilt lazily by
// the next Insert or Contains. The arity must match.
func (r *Relation) Append(t Tuple) {
	r.tuples = append(r.tuples, t)
	r.index = nil
	r.idx.bump()
}

// ReleaseMembership frees the membership index of a relation that is
// done being built. Reads through Tuples, Len, Sorted and the secondary
// indexes are unaffected; the next Insert or Contains rebuilds the set
// (and therefore mutates r, like after Append).
func (r *Relation) ReleaseMembership() { r.index = nil }

// MustInsert inserts and panics on arity mismatch; for fixtures.
func (r *Relation) MustInsert(vals ...value.Value) {
	if _, err := r.Insert(Tuple(vals)); err != nil {
		panic(err)
	}
}

// Delete removes all tuples satisfying keep==false under pred, returning
// how many were removed.
func (r *Relation) Delete(pred func(Tuple) bool) int {
	kept := r.tuples[:0]
	removed := 0
	for _, t := range r.tuples {
		if pred(t) {
			if r.index != nil {
				delete(r.index, t.key())
			}
			removed++
		} else {
			kept = append(kept, t)
		}
	}
	r.tuples = kept
	if removed > 0 {
		r.idx.bump()
	}
	return removed
}

// Contains reports set membership of the tuple. After an Append, the
// first call rebuilds the membership index (and therefore mutates r).
func (r *Relation) Contains(t Tuple) bool {
	r.ensureIndex()
	var buf keyBuf
	return r.index[string(t.appendKey(buf[:0]))]
}

// Clone returns a deep copy.
func (r *Relation) Clone() *Relation {
	out := New(r.Attrs)
	for _, t := range r.tuples {
		out.index[t.key()] = true
		out.tuples = append(out.tuples, t.Clone())
	}
	return out
}

// Sorted returns the tuples in canonical (lexicographic) order without
// mutating the relation.
func (r *Relation) Sorted() []Tuple {
	out := append([]Tuple(nil), r.tuples...)
	sort.Slice(out, func(i, j int) bool { return out[i].Compare(out[j]) < 0 })
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
	out := &Relation{Attrs: append([]string(nil), attrs...), tuples: r.tuples, index: r.index, idx: r.idx}
	return out
}
