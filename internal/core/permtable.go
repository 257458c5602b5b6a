package core

import (
	"hash/maphash"
	"slices"
)

// permRec is one user's PERMISSION rows in grant order, held as the
// views' entries so a reader needs no lookup by name (a name is
// redefined only after a drop, which revokes it from everyone).
type permRec struct {
	views []*viewEntry
}

// index returns the position of view name in r, or -1.
func (r permRec) index(name string) int {
	return slices.IndexFunc(r.views, func(e *viewEntry) bool { return e.def.Name == name })
}

// permTable is the PERMISSION relation: a persistent three-level trie of
// 16-way nodes over 12 bits of a hash of the user name, whose 4096
// leaves each hold the few users hashing there. A published table is
// never written; with copies only the path to one leaf — three 16-slot
// nodes and that leaf's records — so a permit copies the same few
// hundred bytes at 10³ users as at 10⁵.
type permTable [permFan]*permMid

type (
	permMid  [permFan]*permLow
	permLow  [permFan]permLeaf
	permLeaf []permEntry
)

type permEntry struct {
	user string
	rec  permRec
}

const permFan = 16

var permSeed = maphash.MakeSeed()

// permPath returns the trie slots of user's leaf, root first.
func permPath(user string) (i, j, k int) {
	h := maphash.String(permSeed, user)
	return int(h % permFan), int(h / permFan % permFan), int(h / (permFan * permFan) % permFan)
}

// get returns user's record, or the zero record.
func (t *permTable) get(user string) permRec {
	i, j, k := permPath(user)
	if m := t[i]; m != nil {
		if l := m[j]; l != nil {
			for _, e := range l[k] {
				if e.user == user {
					return e.rec
				}
			}
		}
	}
	return permRec{}
}

// with returns a table in which user's record is r, sharing every node
// off the path to user's leaf with t.
func (t *permTable) with(user string, r permRec) *permTable {
	i, j, k := permPath(user)
	nt := *t
	var nm permMid
	if m := t[i]; m != nil {
		nm = *m
	}
	var nl permLow
	if l := nm[j]; l != nil {
		nl = *l
	}
	leaf := make(permLeaf, len(nl[k]), len(nl[k])+1)
	copy(leaf, nl[k])
	if x := slices.IndexFunc(leaf, func(e permEntry) bool { return e.user == user }); x >= 0 {
		leaf[x].rec = r
	} else {
		leaf = append(leaf, permEntry{user, r})
	}
	nl[k] = leaf
	nm[j] = &nl
	nt[i] = &nm
	return &nt
}

// each calls f for every record, in no particular order.
func (t *permTable) each(f func(user string, r permRec)) {
	for _, m := range t {
		if m == nil {
			continue
		}
		for _, l := range m {
			if l == nil {
				continue
			}
			for _, leaf := range l {
				for _, e := range leaf {
					f(e.user, e.rec)
				}
			}
		}
	}
}
