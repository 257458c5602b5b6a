package relation

import (
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"authdb/internal/value"
)

// indexEntry is one built secondary hash index, remembering how many
// tuples it was built from: a Rename view holds a point-in-time slice
// header, so a shared cache entry is only valid for a reader whose tuple
// count matches.
type indexEntry struct {
	builtLen int
	m        map[value.Value][]Tuple
}

// orderedEntry is one built ordered secondary index: the relation's
// tuples sorted by the value at one attribute position (ties keep the
// original tuple order, so runs are deterministic). It serves range
// lookups by binary search and is built only when one is asked for.
type orderedEntry struct {
	builtLen int
	sorted   []Tuple
}

// indexCache holds lazily built secondary indexes over a relation's
// tuples: hash indexes for equality lookups and ordered runs for range
// lookups. Indexes are built on first lookup and invalidated wholesale
// by any mutation (Insert, Append, Delete all bump); the cache is shared
// across Rename views of the same storage and revalidated per reader by
// tuple count — exactly the membership index's lazy-rebuild contract.
//
// The maps are created by the first build, so a revision that is never
// an index source — most revisions during bulk loads — costs no map.
type indexCache struct {
	mu     sync.Mutex
	byAttr map[int]indexEntry
	ord    map[int]orderedEntry
	// built is true while any entry exists. It lets bump — which runs on
	// every mutation — skip the mutex entirely for relations that were
	// never used as an index source. Reads and writes of the maps
	// themselves stay under mu.
	built atomic.Bool
}

// bump invalidates every index.
func (c *indexCache) bump() {
	if !c.built.Load() {
		return
	}
	c.mu.Lock()
	c.byAttr, c.ord = nil, nil
	c.built.Store(false)
	c.mu.Unlock()
}

// LookupEq returns the tuples whose attribute at index i equals v, served
// from a lazily built hash index keyed by the value itself (comparable,
// and kind-distinct: Int(1) and String("1") are different keys), so a
// lookup after the build allocates nothing. The returned slice is shared
// — callers must not mutate it. Mutating the relation invalidates the
// index.
func (r *Relation) LookupEq(i int, v value.Value) []Tuple {
	if i < 0 || i >= len(r.Attrs) {
		return nil
	}
	c := r.idx
	c.mu.Lock()
	defer c.mu.Unlock()
	return r.ensureHash(i).m[v]
}

// ensureHash returns the hash index for attribute i, building it if
// absent or built from a different tuple count; callers hold c.mu.
func (r *Relation) ensureHash(i int) indexEntry {
	c := r.idx
	e, ok := c.byAttr[i]
	if ok && e.builtLen == len(r.tuples) {
		return e
	}
	// Unsized: a low-cardinality attribute needs a handful of keys, not
	// one slot per tuple.
	e = indexEntry{builtLen: len(r.tuples), m: make(map[value.Value][]Tuple)}
	for _, t := range r.tuples {
		e.m[t[i]] = append(e.m[t[i]], t)
	}
	if c.byAttr == nil {
		c.byAttr = make(map[int]indexEntry)
	}
	c.byAttr[i] = e
	c.built.Store(true)
	return e
}

// RangeEnd is one end of a LookupRange scan; a nil *RangeEnd leaves that
// side unbounded. Open excludes the endpoint value itself (strict
// comparison).
type RangeEnd struct {
	V    value.Value
	Open bool
}

// ensureOrdered returns the ordered index for attribute i, building it if
// absent or built from a different tuple count; callers hold c.mu.
func (r *Relation) ensureOrdered(i int) orderedEntry {
	c := r.idx
	e, ok := c.ord[i]
	if ok && e.builtLen == len(r.tuples) {
		return e
	}
	sorted := slices.Clone(r.tuples)
	slices.SortStableFunc(sorted, func(a, b Tuple) int { return a[i].Compare(b[i]) })
	e = orderedEntry{builtLen: len(r.tuples), sorted: sorted}
	if c.ord == nil {
		c.ord = make(map[int]orderedEntry)
	}
	c.ord[i] = e
	c.built.Store(true)
	return e
}

// LookupRange returns the tuples whose attribute at index i falls within
// [lo, hi] (either end may be nil for unbounded, Open for strict), served
// from a lazily built ordered index by two binary searches. Within the
// returned run, tuples of equal key keep their original relation order.
// The slice is shared — callers must not mutate it. Mutating the relation
// invalidates the index.
func (r *Relation) LookupRange(i int, lo, hi *RangeEnd) []Tuple {
	if i < 0 || i >= len(r.Attrs) {
		return nil
	}
	c := r.idx
	c.mu.Lock()
	defer c.mu.Unlock()
	e := r.ensureOrdered(i)
	s := e.sorted
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
	return len(r.ensureHash(i).m)
}
