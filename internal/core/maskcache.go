package core

import (
	"strconv"
	"sync"

	"authdb/internal/algebra"
)

// MaskCache memoizes compiled MaskPlans per (user, query, options). A
// mask derives from the user's definitions alone — permitted views and
// the permission meta-relation — never from the relation instances, so
// a cached plan stays valid exactly until one of those definitions
// changes. The store tracks that with two generation counters: a global
// view generation (bumped by DefineView and DropView) and a per-user
// permission generation (bumped by Permit and Revoke for that user).
// Each entry is stamped with both at Put time and discarded by Get when
// either has moved on; inserts into and deletes from actual relations
// bump neither, so they leave the cache intact.
//
// The cache itself is mutex-protected. Generation coherence needs no
// caller-side lock around lookups: the engine's writer serializes all
// definition changes and clones the store copy-on-write per change, so
// the counters are monotone along the version lineage — a reader pinned
// to any store version that Gets (or Puts) against that pinned store
// matches an entry only when both stamps are equal, which along a
// monotone lineage implies the identical set of definitions. Entries
// stamped by a reader at an older version simply never match newer
// generations. Cached plans are shared across concurrent readers; that
// is safe because every mask-application path is read-only.
type MaskCache struct {
	mu      sync.Mutex
	cap     int
	entries map[string]*maskEntry
	// order lists live keys oldest-first for FIFO eviction.
	order  []string
	hits   uint64
	misses uint64
}

type maskEntry struct {
	plan    *MaskPlan
	viewGen uint64
	permGen uint64
}

// DefaultMaskCacheCap bounds an engine's mask cache; entries are small
// (a compiled mask, not data), so this is a backstop against unbounded
// distinct-query workloads, not a tuning knob.
const DefaultMaskCacheCap = 1024

// NewMaskCache creates a cache holding at most capacity plans;
// capacity <= 0 selects DefaultMaskCacheCap.
func NewMaskCache(capacity int) *MaskCache {
	if capacity <= 0 {
		capacity = DefaultMaskCacheCap
	}
	return &MaskCache{cap: capacity, entries: make(map[string]*maskEntry)}
}

// cacheKey identifies a plan: the user, the query's PSJ normal form and
// the option fields that shape the mask. It is injective: the user name
// is length-prefixed, so no name borrows another user's entry, and the
// PSJ renders its constants as literals, so 5 and "5" key apart.
func cacheKey(user string, psj *algebra.PSJ, opt Options) string {
	return strconv.Itoa(len(user)) + ":" + user + psj.String() + "\x00" + optKey(opt)
}

// optKey fingerprints the Options fields a MaskPlan depends on, so one
// cache never serves a plan compiled under different refinements.
func optKey(o Options) string {
	bits := 0
	for i, b := range []bool{
		o.Padding, o.FourCase, o.SelfJoins, o.Subsume, o.ExtendedMasks,
	} {
		if b {
			bits |= 1 << i
		}
	}
	return strconv.Itoa(bits) + "," + strconv.Itoa(o.ViewCopies)
}

// Get returns the cached plan for (user, psj, opt) if it exists and its
// generation stamps still match the store, nil otherwise. A stale entry
// is removed on the way out.
func (c *MaskCache) Get(st *Store, user string, psj *algebra.PSJ, opt Options) *MaskPlan {
	if c == nil {
		return nil
	}
	key := cacheKey(user, psj, opt)
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if ok && e.viewGen == st.ViewGen() && e.permGen == st.PermGen(user) {
		c.hits++
		return e.plan
	}
	if ok {
		c.remove(key)
	}
	c.misses++
	return nil
}

// Put stores a freshly computed plan stamped with the store's current
// definition generations, evicting the oldest entry when full.
func (c *MaskCache) Put(st *Store, user string, psj *algebra.PSJ, opt Options, p *MaskPlan) {
	if c == nil || p == nil {
		return
	}
	key := cacheKey(user, psj, opt)
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.entries[key]; ok {
		c.remove(key)
	}
	for len(c.entries) >= c.cap && len(c.order) > 0 {
		c.remove(c.order[0])
	}
	c.entries[key] = &maskEntry{plan: p, viewGen: st.ViewGen(), permGen: st.PermGen(user)}
	c.order = append(c.order, key)
}

// remove deletes key from the map and the FIFO order; callers hold c.mu.
func (c *MaskCache) remove(key string) {
	delete(c.entries, key)
	for i, k := range c.order {
		if k == key {
			c.order = append(c.order[:i], c.order[i+1:]...)
			break
		}
	}
}

// Stats reports hit and miss counts and the current size. Safe on a
// nil cache (all zeros).
func (c *MaskCache) Stats() (hits, misses uint64, size int) {
	if c == nil {
		return 0, 0, 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, len(c.entries)
}
