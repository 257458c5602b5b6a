package relation

import "fmt"

// Versioned is the MVCC wrapper around a base relation: a lineage of
// immutable revisions plus the writer-owned bookkeeping that makes each
// mutation cheap. Head returns the current revision; Insert and Delete
// never modify a published revision, they build a successor and advance
// the head, so any goroutine that captured an earlier Head keeps a
// stable snapshot for as long as it holds the pointer.
//
// Contract: a Versioned has a single serialized writer (the engine's
// statement lock). Inserts extend the newest revision's tuple slice via
// append — the backing array is shared with older revisions, which is
// safe precisely because the append frontier only ever advances at the
// newest revision and readers of an older head see only its own prefix.
// Deletes build a fresh slice (never compacting shared storage, unlike
// Relation.Delete). Published revisions must be treated as immutable:
// read them through Tuples, Len, Sorted, the index cache, or Clone —
// never through Insert, Append, Delete, or Contains, whose lazy
// membership-set rebuild mutates the struct.
//
// The duplicate-check membership set lives here, owned by the writer,
// instead of on the revisions: sharing one set across revisions would
// race with concurrent readers, and copying it per mutation would cost
// O(n) — exactly what copy-on-write avoids. Each mutated revision gets
// a fresh secondary-index cache; a pinned reader keeps the indexes it
// already built for its revision.
type Versioned struct {
	head *Relation
	// memb is the membership set of head's tuples, like Relation.memb.
	memb tupleSet
}

// NewVersioned creates an empty versioned relation over the attributes.
func NewVersioned(attrs []string) *Versioned {
	return &Versioned{head: New(attrs)}
}

// VersionedOf adopts r as the initial head revision, taking ownership:
// the caller must not mutate r afterwards. The writer-owned membership
// set is r's own (built only if an Append left it stale); r gives it up,
// since the set moves on with later revisions.
func VersionedOf(r *Relation) *Versioned {
	r.ensureMemb()
	m := r.memb
	r.ReleaseMembership()
	return &Versioned{head: r, memb: m}
}

// Head returns the current revision. The returned relation is immutable;
// it remains a consistent snapshot however many mutations follow.
func (v *Versioned) Head() *Relation { return v.head }

// Len returns the current revision's cardinality.
func (v *Versioned) Len() int { return len(v.head.tuples) }

// Arity returns the number of attributes.
func (v *Versioned) Arity() int { return len(v.head.Attrs) }

// Insert adds a copy of a tuple under set semantics by publishing a
// successor revision; it reports whether the tuple was new (a duplicate
// leaves the head unchanged). The tuple's arity must match the
// relation's.
func (v *Versioned) Insert(t Tuple) (bool, error) {
	if len(t) != len(v.head.Attrs) {
		return false, fmt.Errorf("arity mismatch: tuple has %d values, relation %d attributes", len(t), len(v.head.Attrs))
	}
	return v.insert(t, true), nil
}

// Adopt is Insert without the copy, with Relation.Adopt's ownership
// contract. The arity must match.
func (v *Versioned) Adopt(t Tuple) bool { return v.insert(t, false) }

func (v *Versioned) insert(t Tuple, clone bool) bool {
	old := v.head
	pos, h, taken := v.memb.find(old.tuples, t)
	if pos >= 0 {
		return false
	}
	if clone {
		t = t.Clone()
	}
	v.memb.add(h, taken, len(old.tuples), len(old.tuples))
	// Shares old's backing array when capacity allows: the single-writer
	// contract guarantees only the newest revision's frontier is ever
	// appended to, so older heads' prefixes are never overwritten.
	v.head = newRelation(old.Attrs, append(old.tuples, t))
	return true
}

// Delete removes the tuples satisfying pred by publishing a successor
// revision built from a fresh slice; it returns how many were removed
// (zero leaves the head unchanged). The same pass moves the membership
// entries of the tuples that shifted.
func (v *Versioned) Delete(pred func(Tuple) bool) int {
	old := v.head
	kept := make([]Tuple, 0, len(old.tuples))
	for i, t := range old.tuples {
		if pred(t) {
			v.memb.remove(tupleHash(t), i)
			continue
		}
		if j := len(kept); j != i {
			v.memb.move(tupleHash(t), i, j)
		}
		kept = append(kept, t)
	}
	removed := len(old.tuples) - len(kept)
	if removed == 0 {
		return 0
	}
	v.head = newRelation(old.Attrs, kept)
	return removed
}

// Contains reports set membership in the current revision without
// touching the revision itself (the writer-owned set answers).
func (v *Versioned) Contains(t Tuple) bool {
	pos, _, _ := v.memb.find(v.head.tuples, t)
	return pos >= 0
}

// ExtendsByAppend reports whether nw's tuple storage extends old's by
// pure appends — the successor-revision relationship Versioned.Insert
// creates when revisions share a backing array. When true, nw's tuples
// are exactly old's tuples followed by nw.Tuples()[old.Len():], so a
// result materialized against old can be brought forward by evaluating
// only the appended window.
//
// The check compares the storage identity of old's last tuple at the
// same position in nw. Each non-empty tuple's value array is unique to
// it (Insert clones, a Slab carves disjoint rows), so position n-1
// holding the same storage in both means that tuple never moved — and
// since deletions only ever shift tuples left
// while inserts only append, a tuple still at its original index
// implies every tuple before it is intact too. Storage identity (not
// slice-element address) survives the reallocation append performs when
// the shared backing array's capacity is exhausted. An empty old is
// extended by anything — every row of nw is appended.
func ExtendsByAppend(old, nw *Relation) bool {
	n := len(old.tuples)
	if n > len(nw.tuples) {
		return false
	}
	if n == 0 {
		return true
	}
	a, b := old.tuples[n-1], nw.tuples[n-1]
	return len(a) > 0 && len(a) == len(b) && &a[0] == &b[0]
}

// Suffix returns a relation over the same attributes holding the tuples
// from position from on, sharing tuple storage with r. It is the
// "appended window" counterpart of ExtendsByAppend: evaluating a plan
// over nw.Suffix(old.Len()) touches only the rows old lacks.
func (r *Relation) Suffix(from int) *Relation {
	if from < 0 {
		from = 0
	}
	if from > len(r.tuples) {
		from = len(r.tuples)
	}
	return newRelation(r.Attrs, r.tuples[from:])
}
