package value

import (
	"strings"
	"sync"
	"sync/atomic"
)

// chunkBits sizes the intern table's chunks: 1<<chunkBits string headers
// (16 KiB) each.
const chunkBits = 10

type chunk [1 << chunkBits]string

// table is the process-wide intern table behind every string Value. It
// only grows: each distinct string a process has ever made a Value of
// keeps its id and its bytes until the process exits.
//
// id → string is a directory of fixed-size chunks. A reader loads the
// directory atomically and indexes it, taking no lock: a slot is written
// before its id is published, and a Value can only reach a reader after
// its id did.
//
// string → id is two maps, and a hit in either takes no lock. settled
// holds the strings interned before the last promotion in a map never
// written once published, so most hits are one plain map lookup;
// recent holds the ones interned since. Only a string seen for the
// first time takes mu, which also promotes recent into a new settled
// map once recent holds as many strings as settled (at least
// minPromote), so each string is copied O(1) times on average.
var table struct {
	dir     atomic.Pointer[[]*chunk]
	settled atomic.Pointer[map[string]int64]
	recent  atomic.Pointer[sync.Map] // string → int64

	mu       sync.Mutex // serializes insertions and promotions
	nRecent  int        // strings in recent; under mu
	n, bytes atomic.Int64
}

// minPromote is the fewest recent strings a promotion copies.
const minPromote = 256

func init() {
	table.dir.Store(new([]*chunk))
	table.recent.Store(new(sync.Map))
}

// intern returns the id of s, adding a copy of s to the table the first
// time it is seen: the copy keeps the table from pinning the buffer s
// was sliced from (a parsed script, a decoded frame).
func intern(s string) int64 {
	if id, ok := find(s); ok {
		return id
	}
	table.mu.Lock()
	defer table.mu.Unlock()
	// A promotion between find's two loads can hide s from both.
	if id, ok := find(s); ok {
		return id
	}
	id := table.n.Load()
	dir := *table.dir.Load()
	if int(id>>chunkBits) == len(dir) {
		grown := append(dir[:len(dir):len(dir)], new(chunk))
		table.dir.Store(&grown)
		dir = grown
	}
	s = strings.Clone(s)
	*slot(dir, id) = s
	table.bytes.Add(int64(len(s)))
	table.n.Store(id + 1)
	table.recent.Load().Store(s, id)
	table.nRecent++
	if table.nRecent >= max(int(id+1)/2, minPromote) {
		promote()
	}
	return id
}

// find looks s up in the settled map, then in recent.
func find(s string) (int64, bool) {
	if m := table.settled.Load(); m != nil {
		if id, ok := (*m)[s]; ok {
			return id, true
		}
	}
	if id, ok := table.recent.Load().Load(s); ok {
		return id.(int64), true
	}
	return 0, false
}

// promote publishes a settled map holding every interned string, then
// empties recent; callers hold mu.
func promote() {
	n := table.n.Load()
	m := make(map[string]int64, n)
	dir := *table.dir.Load()
	for id := int64(0); id < n; id++ {
		m[*slot(dir, id)] = id
	}
	table.settled.Store(&m)
	table.recent.Store(new(sync.Map))
	table.nRecent = 0
}

// lookup returns the string whose id is id.
func lookup(id int64) string { return *slot(*table.dir.Load(), id) }

// slot is the directory entry of id.
func slot(dir []*chunk, id int64) *string {
	return &dir[id>>chunkBits][id&(1<<chunkBits-1)]
}

// Interned reports how many distinct strings the intern table holds and
// their total length in bytes. Both depend on every string the process
// has parsed, other principals' data included, so only an operator may
// read them.
func Interned() (n, bytes int64) {
	return table.n.Load(), table.bytes.Load()
}
