package core

import (
	"encoding/binary"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"authdb/internal/algebra"
	"authdb/internal/relation"
)

// Closure is the engine's one retrieve cache. Per (participating views,
// query, options), shared by every principal holding those views
// (cacheKey), it keeps the compiled meta-side plan and the plan's
// materialized result — the masked relation actually delivered and its
// statistics — so a steady-state retrieve pays one map lookup and a
// handful of pointer comparisons instead of re-running either pipeline.
// The unmasked answer is never kept: it is an intermediate of the dual
// pipeline, not something the user may see.
//
// Validity is two-sided, mirroring the two things an entry depends on:
//
//   - Definitions: the key names the participating definitions by id,
//     which a view dropped and redefined under the same name does not
//     keep, so the key alone determines the plan. A permit, a revoke or
//     a define or drop that touches a principal's participating views
//     moves that principal to another key; nothing is invalidated, and
//     an entry no key names any more ages out under the FIFO cap.
//   - Data: each entry is stamped with the pointer identity of every
//     scanned relation revision (MVCC revisions are immutable, so
//     pointer equality is revision equality). Data changes leave the
//     key — and therefore the plan — untouched; only the materialized
//     rows go stale.
//
// On a data-side mismatch the entry can often be repaired instead of
// rebuilt: for a single-scan plan whose mask is not grouped and whose
// new revision extends the cached one by pure appends
// (relation.ExtendsByAppend — the common insert-only churn, and a delete
// that removed only rows appended since), only the appended window is
// evaluated through the actual-side plan the entry's plan builds
// (MaskPlan.actualPSJ), streamed through the mask's deliverer, and
// merged into the entry's delivered rows (deliverer.merge). An
// ungrouped mask delivers each answer row on its own, so a window row
// that repeats an answer row masks to a row the entry already holds,
// and the merge drops it. A grouped mask (§6(3) leaving a column out)
// picks one row per group across the whole answer, which a window
// cannot revise; like a delete of a stamped row, reallocation and
// multi-scan plans, it falls back to recomputing the actual side, and
// Lookup hands back the entry's plan so the meta pipeline is skipped.
// The stamps are the only data-side rule: no write reaches the closure,
// and an entry keeps its rows until Store replaces it or FIFO eviction
// removes it.
//
// One-mask-tuple-per-row soundness is preserved by construction: a
// refresh masks the appended window through the step a cold read
// delivers with (deliverer), so every resident row is a row that step
// delivered, and no row ever discloses the union of several tuples'
// reveals.
//
// The closure is engine-global while stores and revisions are
// per-version: keys stay coherent because definition ids are unique
// across every store in the process, and revision stamps are exact by
// pointer identity. A reader
// pinned to an older version never matches a newer entry's stamps (and
// vice versa) — concurrent readers at different versions may displace
// each other's entries, which costs recomputation, never staleness.
type Closure struct {
	mu      sync.Mutex
	cap     int
	entries map[string]*closureEntry
	// order lists live keys oldest-first for FIFO eviction.
	order []string

	hits      uint64 // lookups served from the closure (incl. refreshes)
	misses    uint64 // lookups that fell through to computation
	planHits  uint64 // misses that handed back the entry's plan
	refreshes uint64 // hits that first replayed an appended window
}

// closureEntry is one resident materialization: the mask plan, the
// revision stamps, the delivered relation, its statistics and its
// encoded reply section — what the key and the
// stamps cannot rebuild. The plan survives data churn; the rest is
// keyed to the stamped revisions. Every field is read and written under
// Closure.mu.
type closureEntry struct {
	// plan is the compiled meta side, which also builds the actual-side
	// plan a refresh evaluates (MaskPlan.actualPSJ).
	plan *MaskPlan
	// revs pins the scanned relation revisions the result was built
	// against, in scan order.
	revs []*relation.Relation
	// masked is the served delivered relation, immutable like every
	// relation. It is canonical, as every delivered relation is, so
	// Sorted serves it without a copy; a refresh replaces it with a
	// merged successor. stats counts it.
	masked *relation.Relation
	stats  MaskStats
	// reply holds masked's encoded reply section, empty until the first
	// reply reads the entry. It belongs to masked: wherever masked is
	// replaced, so is reply.
	reply *ReplySection
}

// DefaultClosureCap bounds an engine's mask closure. Entries hold
// materialized rows, so the cap is what bounds resident state; FIFO
// eviction also bounds how many superseded revisions the stamped
// pointers keep alive.
const DefaultClosureCap = 256

// NewClosure creates a closure holding at most capacity entries;
// capacity <= 0 selects DefaultClosureCap.
func NewClosure(capacity int) *Closure {
	if capacity <= 0 {
		capacity = DefaultClosureCap
	}
	return &Closure{cap: capacity, entries: make(map[string]*closureEntry)}
}

// ClosureStats is a snapshot of the closure's effectiveness counters.
type ClosureStats struct {
	// Hits counts lookups served from resident state, including
	// incremental refreshes; Misses counts lookups that fell through to
	// computation. PlanHits counts the misses whose recompute reused the
	// entry's plan, running the actual side alone: the lookups whose
	// revisions had moved beyond repair, the closure's only
	// invalidations. A definition change invalidates nothing: it moves
	// keys (cacheKey).
	Hits, Misses, PlanHits uint64
	// Refreshes counts the subset of hits that first replayed an
	// appended window through the retained plan.
	Refreshes uint64
	// Entries is the current resident entry count; ResidentRows the
	// delivered rows they hold (the sum of their Stats.Rows), counting
	// entries that cannot refresh as well as those that can. ReplyBytes
	// is the bytes of the reply sections they hold, the sum of their
	// lengths: an entry holds one from the first reply that reads it
	// until its rows are replaced.
	Entries, ResidentRows, ReplyBytes int
}

// ReplySection holds the encoded table section of the reply a delivered
// relation goes out as: built by the first reply that reads the
// relation, then sent by every later one as it is. The bytes are opaque
// here; the reply writer owns their format. Replies that race to build
// it encode identical bytes, and the holder keeps the first stored.
type ReplySection struct{ b atomic.Pointer[[]byte] }

// Load returns the section, nil until one is kept. Safe on a nil holder.
func (s *ReplySection) Load() []byte {
	if s == nil {
		return nil
	}
	if p := s.b.Load(); p != nil {
		return *p
	}
	return nil
}

// Keep stores b unless a section is already kept, and returns the one
// kept.
func (s *ReplySection) Keep(b []byte) []byte {
	if s.b.CompareAndSwap(nil, &b) {
		return b
	}
	return *s.b.Load()
}

// Invalidations returns the data-side invalidation count, PlanHits.
func (s ClosureStats) Invalidations() uint64 { return s.PlanHits }

// Stats reports the closure's counters. Safe on a nil closure.
func (c *Closure) Stats() ClosureStats {
	if c == nil {
		return ClosureStats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	s := ClosureStats{
		Hits: c.hits, Misses: c.misses, PlanHits: c.planHits, Refreshes: c.refreshes,
		Entries: len(c.entries),
	}
	for _, e := range c.entries {
		s.ResidentRows += e.stats.Rows
		s.ReplyBytes += len(e.reply.Load())
	}
	return s
}

// decisionFor assembles a Decision from resident state; callers hold
// c.mu. Each hit gets a fresh Decision struct; the relation, its reply
// section and the plan are shared, read-only.
func decisionFor(e *closureEntry, psj *algebra.PSJ) *Decision {
	return &Decision{
		MaskPlan:        e.plan,
		PSJ:             psj,
		Masked:          e.masked,
		Reply:           e.reply,
		Stats:           e.stats,
		PushdownApplied: e.plan.fuses(),
	}
}

// Lookup serves a retrieve from resident state when possible. key is
// the request's cacheKey; revs are the pinned revisions of the query's
// scans, in scan order. It returns the decision on a closure hit —
// exact or after an incremental refresh. On a miss it returns a nil decision and the caller computes
// (and then Stores) the outcome; the plan returned beside it is the
// entry's, still valid for these definitions, or nil when the meta side
// must run too. A non-nil error arises only from a guard trip during a
// refresh's window evaluation.
//
// The incremental window is evaluated outside the closure lock (so slow
// refreshes never serialize unrelated lookups) and applied under it
// after revalidating that no concurrent refresh or Store won; a lost
// race degrades to a plan hit.
func (c *Closure) Lookup(a *Authorizer, key string, psj *algebra.PSJ, revs []*relation.Relation) (*Decision, *MaskPlan, error) {
	if c == nil {
		return nil, nil, nil
	}
	c.mu.Lock()
	e, ok := c.entries[key]
	if !ok {
		c.misses++
		c.mu.Unlock()
		return nil, nil, nil
	}
	if slices.Equal(e.revs, revs) {
		c.hits++
		d := decisionFor(e, psj)
		c.mu.Unlock()
		return d, nil, nil
	}
	if len(revs) != 1 || e.plan.Mask.compiled().grouped || !relation.ExtendsByAppend(e.revs[0], revs[0]) {
		// Data moved beyond repair for this entry, but the plan is the
		// definitions' alone: the recompute runs the actual side through
		// it. The entry stays resident meanwhile — readers pinned to its
		// revisions keep hitting it until Store replaces.
		c.misses++
		c.planHits++
		plan := e.plan
		c.mu.Unlock()
		return nil, plan, nil
	}
	oldRev, masked, stats, plan := e.revs[0], e.masked, e.stats, e.plan
	c.mu.Unlock()

	// Evaluate just the appended window through the retained plan and
	// merge its delivered rows into the entry's, unlocked: the window,
	// the old revision and the entry's rows are immutable.
	tail := revs[0].Suffix(oldRev.Len())
	src := algebra.MapSource(map[string]*relation.Relation{psj.Scans[0].Rel: tail})
	dl := plan.Mask.deliverer()
	if err := algebra.Stream(plan.actualPSJ(psj, true), src, a.Guard, nil, dl); err != nil {
		return nil, nil, err
	}
	masked, stats = dl.merge(masked, stats)

	c.mu.Lock()
	defer c.mu.Unlock()
	if c.entries[key] == e && slices.Equal(e.revs, revs) {
		// A concurrent refresh reached our target revision first.
		c.hits++
		return decisionFor(e, psj), nil, nil
	}
	if c.entries[key] != e || e.revs[0] != oldRev {
		// Replaced or evicted meanwhile, or refreshed past a different
		// revision: our window basis is gone, the plan — the key's — is
		// not, and handing it back keeps the key's one mask.
		c.misses++
		c.planHits++
		return nil, plan, nil
	}
	// The entry still holds the rows merged into: only a refresh past
	// oldRev or a Store replaces them.
	e.revs = append([]*relation.Relation(nil), revs...)
	if masked != e.masked {
		e.masked, e.reply = masked, new(ReplySection)
	}
	e.stats = stats
	c.refreshes++
	c.hits++
	return decisionFor(e, psj), nil, nil
}

// Store materializes a freshly computed decision under key, the one
// its Lookup missed: its mask plan, the revision stamps, the delivered
// relation and its statistics. A refresh never modifies d.Masked; it
// replaces it with a merged successor. Store gives d the entry's empty
// reply section, so the reply to this very retrieve builds it.
func (c *Closure) Store(key string, revs []*relation.Relation, d *Decision) {
	if c == nil || d == nil {
		return
	}
	e := &closureEntry{
		plan:   d.MaskPlan,
		revs:   append([]*relation.Relation(nil), revs...),
		masked: d.Masked,
		stats:  d.Stats,
		reply:  new(ReplySection),
	}
	d.Reply = e.reply
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.entries[key]; ok {
		c.removeLocked(key)
	}
	for len(c.entries) >= c.cap && len(c.order) > 0 {
		c.removeLocked(c.order[0])
	}
	c.entries[key] = e
	c.order = append(c.order, key)
}

// removeLocked deletes key from the map and the FIFO order; callers
// hold c.mu.
func (c *Closure) removeLocked(key string) {
	delete(c.entries, key)
	if i := slices.Index(c.order, key); i >= 0 {
		c.order = slices.Delete(c.order, i, i+1)
	}
}

// cacheKey identifies an entry: the ids of the definitions of st, the
// user's part (Store.Of), that take part in psj (participants) in grant
// order, psj's normal form and the option fields that shape the mask.
// The ids name the definitions the mask depends on alone: the key
// determines the plan, variable names included. It is injective: each
// id is a uvarint, and the list ends in a zero byte, which begins no
// id's encoding (ids start at 1); the PSJ renders its constants as
// literals, so 5 and "5" key apart. RetrievePlan computes it once per
// read, in one buffer.
func cacheKey(st *Store, psj *algebra.PSJ, opt Options) string {
	var b strings.Builder
	b.Grow(32 * (3 + len(psj.Cols) + len(psj.Preds) + len(psj.Scans)))
	var last uint64
	scans := func(rel string) int {
		n := 0
		for _, s := range psj.Scans {
			if s.Rel == rel {
				n++
			}
		}
		return n
	}
	st.participants(scans, opt, func(id uint64, _ *StoredView, _ int) {
		if id == last {
			return // another branch of the same view
		}
		last = id
		var n [binary.MaxVarintLen64]byte
		b.Write(binary.AppendUvarint(n[:0], id))
	})
	b.WriteByte(0)
	psj.WriteText(&b)
	b.WriteByte(0)
	writeOptKey(&b, opt)
	return b.String()
}

// writeOptKey fingerprints the Options fields a MaskPlan depends on, so
// one closure never serves a plan compiled under different refinements.
func writeOptKey(b *strings.Builder, o Options) {
	bits := 0
	for i, set := range []bool{
		o.Padding, o.FourCase, o.SelfJoins, o.Subsume, o.ExtendedMasks,
	} {
		if set {
			bits |= 1 << i
		}
	}
	b.WriteString(strconv.Itoa(bits))
	b.WriteByte(',')
	b.WriteString(strconv.Itoa(o.ViewCopies))
}

// MaskCache is an empty type with no effect. The closure entry keeps
// the mask plan across data churn, so there is no separate plan cache;
// the type remains only because the benchmark harness still builds one.
// It goes with ROADMAP item 2 (j).
type MaskCache struct{}

// NewMaskCache returns an inert MaskCache; see MaskCache. It goes with
// ROADMAP item 2 (j).
func NewMaskCache(int) *MaskCache { return &MaskCache{} }
