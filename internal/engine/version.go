// The engine's MVCC core (DESIGN.md §14). The database is a lineage of
// immutable versions; each version binds the schema, every base
// relation's revision, and the authorization store that were current
// when some mutating statement committed. Writers prepare the next
// state under the engine's statement lock and publish it with one
// atomic pointer swap; readers pin the head version at statement start
// and evaluate against it without taking the engine lock at all — a
// retrieve is masked against exactly one (meta-database, data) pair, so
// permit/revoke churn mid-query can never produce a mixed-version
// answer, and long scans never block commits.
package engine

import (
	"fmt"

	"authdb/internal/core"
	"authdb/internal/relation"
)

// dbVersion is one immutable database version: everything a statement
// reads, captured at the commit that published it. Readers must treat
// every reachable structure as frozen — relations are read through
// Tuples/Len/the index cache, the store and schema only through their
// read surface.
type dbVersion struct {
	// seq numbers versions within this engine's lifetime (not persisted;
	// restarts renumber). lsn is the log position the version embodies:
	// the state after applying statement lsn.
	seq uint64
	lsn uint64

	sch *relation.DBSchema
	// rels holds each base relation's revision at the schema's ordinal
	// for it (DBSchema.Ordinal).
	rels  []*relation.Relation
	store *core.Store
}

// source resolves base relations for the evaluators against this
// version; it is the algebra.Source every pinned read uses.
func (v *dbVersion) source(name string) (*relation.Relation, error) {
	i, ok := v.sch.Ordinal(name)
	if !ok {
		return nil, fmt.Errorf("unknown relation %s", name)
	}
	return v.rels[i], nil
}

// headVersion pins the current version: one atomic load, no lock. The
// caller keeps a consistent snapshot for as long as it holds the
// pointer; concurrent commits publish successors without disturbing it.
func (e *Engine) headVersion() *dbVersion { return e.head.Load() }

// readVersion is the version a read statement evaluates against: the
// session's pinned snapshot when a `\begin snapshot` block is open,
// else the current head.
func (s *Session) readVersion() *dbVersion {
	if s.pinned != nil {
		return s.pinned
	}
	return s.eng.headVersion()
}

// publishLocked builds the next version from the writer state and swaps
// it into the head pointer — the commit point for readers. Callers hold
// e.mu for writing (or have exclusive access during construction). The
// cost is two allocations: the version and a slice of #relations head
// pointers, independent of data size.
func (e *Engine) publishLocked() {
	e.verSeq++
	rels := make([]*relation.Relation, len(e.vrels))
	for i, vr := range e.vrels {
		rels[i] = vr.Head()
	}
	e.head.Store(&dbVersion{
		seq:   e.verSeq,
		lsn:   e.lsn.Load(),
		sch:   e.wsch,
		rels:  rels,
		store: e.wstore,
	})
}

// versioned resolves a base relation's writer-side lineage; callers hold
// e.mu for writing.
func (e *Engine) versioned(name string) (*relation.Versioned, error) {
	i, ok := e.wsch.Ordinal(name)
	if !ok {
		return nil, fmt.Errorf("unknown relation %s", name)
	}
	return e.vrels[i], nil
}

// DBVersion reports the head version's sequence number and the LSN it
// embodies — the numbers the metrics gauges and the MVCC tests read.
func (e *Engine) DBVersion() (seq, lsn uint64) {
	v := e.head.Load()
	return v.seq, v.lsn
}
