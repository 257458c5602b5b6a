package relation

import "authdb/internal/value"

// Per-kind tags keep Int(1), String("1") and Null apart in the hash.
const (
	tagNull = 0x9e3779b97f4a7c15
	tagInt  = 0xd6e8feb86659fd93
	tagStr  = 0xa0761d6478bd642f
)

// mix64 is the splitmix64 finalizer: a bijection on 64 bits that spreads
// every input bit over the output.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

// hashValue is a kind-tagged 64-bit hash of one value. A string hashes
// by its process-local id, which depends on the order strings arrived
// in; no output is ever produced by iterating a set, so it cannot change
// any order.
func hashValue(v value.Value) uint64 {
	switch v.Kind() {
	case value.KindInt:
		return mix64(uint64(v.AsInt()) ^ tagInt)
	case value.KindString:
		return mix64(v.LocalID() ^ tagStr)
	default:
		return tagNull
	}
}

// hashTuple combines the value hashes in order.
func hashTuple(t Tuple) uint64 {
	var h uint64
	for _, v := range t {
		h = mix64(h ^ hashValue(v))
	}
	return h
}

// tupleHash is the hash tupleSet keys on; tests replace it to force
// collisions.
var tupleHash = hashTuple

// hashPos is one overflow entry of a tupleSet.
type hashPos struct {
	h   uint64
	pos int
}

// tupleSet is the membership set behind Set and Versioned: the
// positions of its tuples in a tuple slice the caller passes in, keyed
// by tupleHash. Every hash hit is confirmed with Tuple.Equal; a distinct
// tuple whose hash is already taken goes to the overflow list. A lookup
// or a duplicate allocates nothing, and a new tuple adds one position.
// The zero value is an empty set.
type tupleSet struct {
	first map[uint64]int
	more  []hashPos
}

// find returns the position of t in tuples (-1 when absent), t's hash,
// and whether that hash already has an entry.
func (s *tupleSet) find(tuples []Tuple, t Tuple) (pos int, h uint64, taken bool) {
	h = tupleHash(t)
	p, taken := s.first[h]
	if !taken {
		return -1, h, false
	}
	if tuples[p].Equal(t) {
		return p, h, true
	}
	for _, o := range s.more {
		if o.h == h && tuples[o.pos].Equal(t) {
			return o.pos, h, true
		}
	}
	return -1, h, true
}

// add records a tuple absent from the set at pos; h and taken are what
// find returned for it. hint sizes the map when this is the first entry.
func (s *tupleSet) add(h uint64, taken bool, pos, hint int) {
	switch {
	case taken:
		s.more = append(s.more, hashPos{h, pos})
	case s.first == nil:
		s.first = make(map[uint64]int, hint)
		s.first[h] = pos
	default:
		s.first[h] = pos
	}
}

// remove drops the entry of hash h at pos, promoting an overflow entry
// of the same hash when the map's entry goes.
func (s *tupleSet) remove(h uint64, pos int) {
	k := s.overflow(h, pos)
	if p, ok := s.first[h]; ok && p == pos {
		if k = s.overflow(h, -1); k < 0 {
			delete(s.first, h)
			return
		}
		s.first[h] = s.more[k].pos
	}
	if k >= 0 {
		s.more[k] = s.more[len(s.more)-1]
		s.more = s.more[:len(s.more)-1]
	}
}

// move re-points the entry of hash h from position from to position to.
func (s *tupleSet) move(h uint64, from, to int) {
	if p, ok := s.first[h]; ok && p == from {
		s.first[h] = to
	} else if k := s.overflow(h, from); k >= 0 {
		s.more[k].pos = to
	}
}

// overflow returns the index in more of the entry of hash h at pos (any
// position when pos is -1), or -1.
func (s *tupleSet) overflow(h uint64, pos int) int {
	for k, o := range s.more {
		if o.h == h && (pos < 0 || o.pos == pos) {
			return k
		}
	}
	return -1
}

// setOf builds the set of tuples, which must be distinct.
func setOf(tuples []Tuple) tupleSet {
	var s tupleSet
	for pos, t := range tuples {
		h := tupleHash(t)
		_, taken := s.first[h]
		s.add(h, taken, pos, len(tuples))
	}
	return s
}

// Set builds a relation under set semantics: Add keeps a row unless an
// equal one is held, in first-occurrence order, and Relation hands the
// rows over. It is the one place a relation is deduplicated as it is
// built; Versioned keeps the same membership set for a base relation.
type Set struct {
	attrs  []string
	tuples []Tuple
	memb   tupleSet
}

// NewSet returns an empty set over attrs with room for n rows (at most
// MaxPresize), so a set built from an input of known length grows
// neither its rows nor its membership set. attrs goes to the relation
// Relation returns.
func NewSet(attrs []string, n int) Set {
	return Set{attrs: attrs, tuples: make([]Tuple, 0, min(n, MaxPresize))}
}

// Add adopts t and reports true unless an equal row is held: the set
// takes ownership of a new t, so the caller must not modify it
// afterwards, while a duplicate stays the caller's (a Slab row can be
// reused). t's arity must be the set's.
func (s *Set) Add(t Tuple) bool {
	pos, h, taken := s.memb.find(s.tuples, t)
	if pos >= 0 {
		return false
	}
	s.memb.add(h, taken, len(s.tuples), cap(s.tuples))
	s.tuples = append(s.tuples, t)
	return true
}

// Find returns the position of t among the rows in the order they were
// added, or -1 when it is absent.
func (s *Set) Find(t Tuple) int {
	pos, _, _ := s.memb.find(s.tuples, t)
	return pos
}

// Contains reports whether a row equal to t is held.
func (s *Set) Contains(t Tuple) bool { return s.Find(t) >= 0 }

// Len returns the number of rows held.
func (s *Set) Len() int { return len(s.tuples) }

// Relation returns a relation over the rows held, in the order they
// were added. Rows added later extend the set past it and leave it as
// it is, as a Versioned insert leaves a published revision.
func (s *Set) Relation() *Relation { return NewDistinct(s.attrs, s.tuples) }

// MaxPresize bounds the rows a builder reserves before it knows how many
// it keeps (NewSet, a Slab chunk). A projection that collapses a large
// input, or a mask that drops most rows, then holds at most this much
// unused room however large the input was.
const MaxPresize = 1024

// Slab carves tuples of one arity out of shared backing arrays, so a
// relation built row by row costs one allocation instead of one per row.
// Row hands out the next row; Keep commits it. Until Keep, Row returns
// the same storage again, so a candidate row that turned out to be a
// duplicate costs nothing. Every row has cap == len: appending to one
// never overwrites its neighbour, and each non-empty row has storage of
// its own, as ExtendsByAppend requires.
type Slab struct {
	arity int
	free  []value.Value
}

// NewSlab returns an empty slab for rows of the given arity.
func NewSlab(arity int) Slab { return Slab{arity: arity} }

// Row returns the next row, its cells unspecified: the caller overwrites
// every one. left is how many more rows the caller may keep, this one
// included; a new chunk is sized by it (up to MaxPresize rows), so a
// build that keeps fewer rows than it visits wastes at most the tail of
// one chunk.
func (s *Slab) Row(left int) Tuple {
	if len(s.free) < s.arity {
		s.free = make([]value.Value, min(max(left, 1), MaxPresize)*s.arity)
	}
	return Tuple(s.free[:s.arity:s.arity])
}

// Expecting is Row for a builder that expects rows rows in all and has
// kept kept of them: a chunk holds the rows still expected, and once all
// are kept, as many again as were kept (at least 8), so an expectation
// that falls short costs a doubling, not a chunk per row.
func (s *Slab) Expecting(rows, kept int) Tuple {
	if rows > kept {
		return s.Row(rows - kept)
	}
	return s.Row(max(kept, 8))
}

// Keep commits the row the last Row returned.
func (s *Slab) Keep() { s.free = s.free[s.arity:] }
