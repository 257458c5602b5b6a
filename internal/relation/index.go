package relation

import (
	"slices"
	"sort"
	"sync"

	"authdb/internal/value"
)

// indexCache holds lazily built secondary indexes over a relation's
// tuples: per attribute position, a hash index for equality lookups and
// an ordered run for range lookups, each built on its first lookup. A
// relation never changes, so an entry stays valid for as long as the
// cache lives, and Rename views, which hold the same tuples, share it.
//
// The maps are created by the first build, so a revision that is never
// an index source — most revisions during bulk loads — costs no map.
type indexCache struct {
	mu     sync.Mutex
	byAttr map[int]map[value.Value][]Tuple
	// ord holds the ordered indexes: the tuples sorted by the value at
	// one position, ties in the relation's order, so runs are
	// deterministic.
	ord map[int][]Tuple
}

// LookupEq returns the tuples whose attribute at index i equals v, served
// from a lazily built hash index keyed by the value itself (comparable,
// and kind-distinct: Int(1) and String("1") are different keys), so a
// lookup after the build allocates nothing. The returned slice is shared
// — callers must not mutate it.
func (r *Relation) LookupEq(i int, v value.Value) []Tuple {
	if i < 0 || i >= len(r.Attrs) {
		return nil
	}
	c := r.idx
	c.mu.Lock()
	defer c.mu.Unlock()
	return r.ensureHash(i)[v]
}

// ensureHash returns the hash index for attribute i, building it on
// first use; callers hold c.mu.
func (r *Relation) ensureHash(i int) map[value.Value][]Tuple {
	c := r.idx
	if m, ok := c.byAttr[i]; ok {
		return m
	}
	// Unsized: a low-cardinality attribute needs a handful of keys, not
	// one slot per tuple.
	m := make(map[value.Value][]Tuple)
	for _, t := range r.tuples {
		m[t[i]] = append(m[t[i]], t)
	}
	if c.byAttr == nil {
		c.byAttr = make(map[int]map[value.Value][]Tuple)
	}
	c.byAttr[i] = m
	return m
}

// RangeEnd is one end of a LookupRange scan; a nil *RangeEnd leaves that
// side unbounded. Open excludes the endpoint value itself (strict
// comparison).
type RangeEnd struct {
	V    value.Value
	Open bool
}

// ensureOrdered returns the ordered index for attribute i, building it
// on first use; callers hold c.mu.
func (r *Relation) ensureOrdered(i int) []Tuple {
	c := r.idx
	if sorted, ok := c.ord[i]; ok {
		return sorted
	}
	sorted := slices.Clone(r.tuples)
	slices.SortStableFunc(sorted, func(a, b Tuple) int { return a[i].Compare(b[i]) })
	if c.ord == nil {
		c.ord = make(map[int][]Tuple)
	}
	c.ord[i] = sorted
	return sorted
}

// LookupRange returns the tuples whose attribute at index i falls within
// [lo, hi] (either end may be nil for unbounded, Open for strict), served
// from a lazily built ordered index by two binary searches. Within the
// returned run, tuples of equal key keep their original relation order.
// The slice is shared — callers must not mutate it.
func (r *Relation) LookupRange(i int, lo, hi *RangeEnd) []Tuple {
	if i < 0 || i >= len(r.Attrs) {
		return nil
	}
	c := r.idx
	c.mu.Lock()
	defer c.mu.Unlock()
	s := r.ensureOrdered(i)
	from := 0
	if lo != nil {
		from = sort.Search(len(s), func(k int) bool {
			d := s[k][i].Compare(lo.V)
			if lo.Open {
				return d > 0
			}
			return d >= 0
		})
	}
	to := len(s)
	if hi != nil {
		to = sort.Search(len(s), func(k int) bool {
			d := s[k][i].Compare(hi.V)
			if hi.Open {
				return d >= 0
			}
			return d > 0
		})
	}
	if from >= to {
		return nil
	}
	return s[from:to]
}

// DistinctCount returns the number of distinct values at attribute i:
// the key count of the hash index LookupEq serves from (built on demand,
// and the one an index join on the attribute probes). It backs the
// planner's join cardinality estimates. Out-of-range attributes report 0.
func (r *Relation) DistinctCount(i int) int {
	if i < 0 || i >= len(r.Attrs) {
		return 0
	}
	c := r.idx
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(r.ensureHash(i))
}
