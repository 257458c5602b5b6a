package core

import (
	"encoding/binary"
	"slices"
	"strconv"
	"strings"
	"sync"

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
//   - Definitions: a permit or revoke moves the principal to another
//     key. Define view and drop view move the view generation each
//     entry is stamped with, and a mismatched entry is discarded (a
//     definition invalidation) — the mask itself is stale.
//   - Data: each entry is stamped with the pointer identity of every
//     scanned relation revision (MVCC revisions are immutable, so
//     pointer equality is revision equality). Data changes leave the
//     key and the generation — and therefore the plan — untouched; only
//     the materialized rows go stale.
//
// On a data-side mismatch the entry can often be repaired instead of
// rebuilt: for a single-scan plan whose mask is not grouped and whose
// new revision extends the cached one by pure appends
// (relation.ExtendsByAppend — the common insert-only churn), only the
// appended window is evaluated through the retained executable plan, its
// rows are masked through the retained compiled mask, and the masked
// accumulator grows in place. An ungrouped mask delivers each answer row
// on its own, so a window row that repeats an answer row masks to a row
// the accumulator already holds. A grouped mask (§6(3) leaving a column
// out) picks one row per group across the whole answer, which a window
// cannot revise; like deletions, reallocation and multi-scan plans, it
// falls back to recomputing the actual side, and Lookup hands back the
// entry's plan so the meta pipeline is skipped. A delete releases the
// rows of every entry over the relation at once (InvalidateRelation)
// and keeps their plans for the next lookup.
//
// One-mask-tuple-per-row soundness is preserved by construction: a
// refresh masks each appended row through the same bestIndex decision
// Apply makes (the matching tuple starring the most attributes, first
// on ties), so the materialized masked relation is identical to
// applying the mask row by row, and no row ever discloses the union of
// several tuples' reveals.
//
// The closure is engine-global while stores and revisions are
// per-version: view generation stamps stay coherent because the counter
// is monotone along the store's clone lineage, and revision stamps are
// exact by pointer identity. A reader pinned to an older version never
// matches a newer entry's stamps (and vice versa) — concurrent readers
// at different versions may displace each other's entries, which costs
// recomputation, never staleness.
type Closure struct {
	mu      sync.Mutex
	cap     int
	entries map[string]*closureEntry
	// order lists live keys oldest-first for FIFO eviction.
	order []string

	hits          uint64 // lookups served from the closure (incl. refreshes)
	misses        uint64 // lookups that fell through to computation
	planHits      uint64 // misses that handed back the entry's plan
	refreshes     uint64 // hits that first replayed an appended window
	invalidDef    uint64 // entries dropped because the view generation moved
	invalidData   uint64 // lookups that missed because revisions moved irreparably
	invalidDelete uint64 // entries released eagerly by InvalidateRelation
}

// closureEntry is one resident materialization: the mask plan, the
// executed plan, the revision stamps and the delivered relation. The
// plan side (plan, psjExec, fused) survives data churn; the result side
// (revs, masked, stats, vm) is keyed to the stamped revisions, and
// InvalidateRelation releases it (masked is then nil). Every field is
// read and written under Closure.mu.
type closureEntry struct {
	viewGen uint64
	// plan is the compiled meta side; psjExec the actual-side plan that
	// was executed (pushdown-fused when fused is set), whose scans are
	// InvalidateRelation's match set.
	plan    *MaskPlan
	psjExec *algebra.PSJ
	fused   bool
	// revs pins the scanned relation revisions the result was built
	// against, in scan order.
	revs []*relation.Relation
	// masked is the served delivered relation, to be treated as
	// read-only by every consumer (the same contract as published MVCC
	// revisions — read via Tuples, Sorted, Len; never Insert or
	// Contains). It keeps no membership set: Store releases it, or hands
	// it to vm. It is in canonical order when stored (Retrieve
	// canonicalizes it), so Sorted serves it without a copy; a refresh
	// appends rows behind that prefix, so each read of a refreshed
	// result sorts a copy. stats counts it.
	masked *relation.Relation
	stats  MaskStats
	// vm accumulates the delivered relation grow-only (MVCC-style:
	// published heads are immutable, appends build successors); present
	// only for single-scan plans with an ungrouped mask, the ones that
	// refresh.
	vm *relation.Versioned
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
	// entry's plan, running the actual side alone.
	Hits, Misses, PlanHits uint64
	// Refreshes counts the subset of hits that first replayed an
	// appended window through the retained plan.
	Refreshes uint64
	// InvalidDef counts entries dropped because the view generation
	// moved; InvalidData counts lookups whose revisions had moved
	// beyond repair (also counted in Misses); InvalidDelete counts
	// entries whose rows were released eagerly because a scanned
	// relation was deleted from (InvalidateRelation).
	InvalidDef, InvalidData, InvalidDelete uint64
	// Entries is the current resident entry count, released ones
	// included; ResidentRows the delivered rows they hold (the sum of
	// their Stats.Rows), counting entries that cannot refresh as well as
	// those that can.
	Entries, ResidentRows int
}

// Invalidations returns the combined invalidation count.
func (s ClosureStats) Invalidations() uint64 {
	return s.InvalidDef + s.InvalidData + s.InvalidDelete
}

// Stats reports the closure's counters. Safe on a nil closure.
func (c *Closure) Stats() ClosureStats {
	if c == nil {
		return ClosureStats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	s := ClosureStats{
		Hits: c.hits, Misses: c.misses, PlanHits: c.planHits, Refreshes: c.refreshes,
		InvalidDef: c.invalidDef, InvalidData: c.invalidData,
		InvalidDelete: c.invalidDelete,
		Entries:       len(c.entries),
	}
	for _, e := range c.entries {
		s.ResidentRows += e.stats.Rows
	}
	return s
}

// decisionFor assembles a Decision from resident state; callers hold
// c.mu. Each hit gets a fresh Decision struct; the relation and the
// plan are shared, read-only.
func decisionFor(e *closureEntry, psj *algebra.PSJ) *Decision {
	return &Decision{
		MaskPlan:        e.plan,
		PSJ:             psj,
		Masked:          e.masked,
		Stats:           e.stats,
		PushdownApplied: e.fused,
	}
}

// Lookup serves a retrieve from resident state when possible. revs are
// the pinned revisions of the query's scans, in scan order. It returns
// the decision on a closure hit — exact or after an incremental
// refresh. On a miss it returns a nil decision and the caller computes
// (and then Stores) the outcome; the plan returned beside it is the
// entry's, still valid for these definitions, or nil when the meta side
// must run too. A non-nil error arises only from a guard trip during a
// refresh's window evaluation.
//
// The incremental window is evaluated outside the closure lock (so slow
// refreshes never serialize unrelated lookups) and applied under it
// after revalidating that no concurrent refresh won; a lost race simply
// degrades to a miss.
func (c *Closure) Lookup(a *Authorizer, user string, psj *algebra.PSJ, revs []*relation.Relation) (*Decision, *MaskPlan, error) {
	if c == nil {
		return nil, nil, nil
	}
	st := a.Store
	key := cacheKey(st, user, psj, a.Opt)

	c.mu.Lock()
	e, ok := c.entries[key]
	if !ok {
		c.misses++
		c.mu.Unlock()
		return nil, nil, nil
	}
	if e.viewGen != st.ViewGen() {
		// The mask itself is stale: drop everything.
		c.removeLocked(key)
		c.invalidDef++
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
	if e.vm == nil || len(revs) != 1 || !relation.ExtendsByAppend(e.revs[0], revs[0]) {
		// Data moved beyond repair for this entry (or a delete released
		// its rows, already counted), but the plan is the definitions'
		// alone: the recompute runs the actual side through it. The entry
		// stays resident meanwhile — readers pinned to its revisions keep
		// hitting it until Store replaces.
		if e.masked != nil {
			c.invalidData++
		}
		c.misses++
		c.planHits++
		plan := e.plan
		c.mu.Unlock()
		return nil, plan, nil
	}
	oldRev := e.revs[0]
	base := oldRev.Len()
	plan, psjExec := e.plan, e.psjExec
	c.mu.Unlock()

	// Evaluate just the appended window through the retained plan,
	// unlocked: the window and the old revision are immutable.
	tail := revs[0].Suffix(base)
	src := algebra.MapSource(map[string]*relation.Relation{psj.Scans[0].Rel: tail})
	tailAns, err := a.evalActual(psjExec, src, nil)
	if err != nil {
		return nil, nil, err
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	e2, ok := c.entries[key]
	if !ok || e2 != e || e.viewGen != st.ViewGen() {
		c.misses++
		return nil, nil, nil
	}
	if slices.Equal(e.revs, revs) {
		// A concurrent refresh reached our target revision first.
		c.hits++
		return decisionFor(e, psj), nil, nil
	}
	if e.masked == nil || e.revs[0] != oldRev {
		// Released by a delete (already counted), or refreshed past a
		// different revision: our window basis is gone, the plan is not.
		if e.masked != nil {
			c.invalidData++
		}
		c.misses++
		c.planHits++
		return nil, plan, nil
	}
	ex := plan.Mask.compiled()
	width := e.vm.Arity()
	slab := relation.NewSlab(width)
	rows := tailAns.Tuples()
	for n, t := range rows {
		bi := plan.Mask.bestIndex(ex, t)
		if bi < 0 {
			continue
		}
		row := slab.Row(len(rows) - n)
		maskRow(row, t, ex.reveal[bi], ex.out)
		// A window row that projects onto an answer row already seen
		// masks to a row vm holds, and Adopt refuses it.
		if e.vm.Adopt(row) {
			slab.Keep()
			e.stats.count(ex.stars[bi], width)
		}
	}
	e.revs = append([]*relation.Relation(nil), revs...)
	e.masked = e.vm.Head()
	c.refreshes++
	c.hits++
	return decisionFor(e, psj), nil, nil
}

// Store materializes a freshly computed decision: its mask plan, the
// executed plan, the revision stamps, the delivered relation and its
// statistics, and — for single-scan plans with an ungrouped mask — the
// masked accumulator. Store takes ownership of d.Masked in the MVCC
// sense: its published prefix stays immutable, later refreshes extend
// the shared backing array past it.
func (c *Closure) Store(st *Store, user string, psj *algebra.PSJ, opt Options, revs []*relation.Relation, d *Decision, psjExec *algebra.PSJ) {
	if c == nil || d == nil {
		return
	}
	e := &closureEntry{
		viewGen: st.ViewGen(),
		plan:    d.MaskPlan,
		psjExec: psjExec,
		fused:   d.PushdownApplied,
		revs:    append([]*relation.Relation(nil), revs...),
		masked:  d.Masked,
		stats:   d.Stats,
	}
	if len(psj.Scans) == 1 && !d.Mask.compiled().grouped {
		e.vm = relation.VersionedOf(d.Masked)
	} else {
		// Nothing ever inserts into a result that cannot be refreshed, and
		// readers never probe its membership: drop the set.
		d.Masked.ReleaseMembership()
	}
	key := cacheKey(st, user, psj, opt)
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

// InvalidateRelation eagerly releases the result side of every entry
// whose scans include rel. Deletes cannot be repaired by the
// append-window refresh (the accumulator only grows), so the engine
// calls this after a delete commits: entries over other relations stay
// whole, and the doomed ones free their materialized rows immediately
// instead of lingering until their next lookup misses. Each keeps its
// plan and view generation stamp, which the delete did not touch, so that
// lookup reruns only the actual side. Safe on a nil closure.
func (c *Closure) InvalidateRelation(rel string) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, e := range c.entries {
		if e.masked != nil && slices.ContainsFunc(e.psjExec.Scans, func(s algebra.Scan) bool { return s.Rel == rel }) {
			e.revs, e.masked, e.vm, e.stats = nil, nil, nil, MaskStats{}
			c.invalidDelete++
		}
	}
}

// removeLocked deletes key from the map and the FIFO order; callers
// hold c.mu.
func (c *Closure) removeLocked(key string) {
	delete(c.entries, key)
	if i := slices.Index(c.order, key); i >= 0 {
		c.order = slices.Delete(c.order, i, i+1)
	}
}

// cacheKey identifies an entry: user's views that take part in psj
// (participants) in grant order, psj's normal form and the option fields
// that shape the mask — never the user name, since the mask depends on
// the definitions alone and the view generation stamp covers them. It is
// injective: each view name is prefixed with its length as a uvarint and
// the list ends in a zero byte, the prefix of no name (none is empty),
// and the PSJ renders its constants as literals, so 5 and "5" key apart.
// A closure hit computes it on every read, in one buffer.
func cacheKey(st *Store, user string, psj *algebra.PSJ, opt Options) string {
	var b strings.Builder
	b.Grow(32 * (3 + len(psj.Cols) + len(psj.Preds) + len(psj.Scans)))
	last := ""
	scans := func(rel string) int {
		n := 0
		for _, s := range psj.Scans {
			if s.Rel == rel {
				n++
			}
		}
		return n
	}
	st.participants(user, scans, opt, func(name string, _ *StoredView, _ int) {
		if name == last {
			return // another branch of the same view
		}
		last = name
		var n [binary.MaxVarintLen64]byte
		b.Write(binary.AppendUvarint(n[:0], uint64(len(name))))
		b.WriteString(name)
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
