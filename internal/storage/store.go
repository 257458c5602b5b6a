package storage

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"authdb/internal/faultfs"
	"authdb/internal/value"
)

// rootMagic heads the per-generation ROOT file. ROOT is the only
// per-checkpoint page-store state: tree roots and allocation state.
// Pages live in the shared pages.db next to the generation directories.
const rootMagic = "AUTHDBROOT2"

// rootMagicV1 headed the ROOT of the earlier layout, which also kept
// the meta-database and one index tree per attribute in pages.db.
const rootMagicV1 = "AUTHDBROOT1"

// RootName is the ROOT file's name inside a snapshot generation
// directory; its presence marks the generation as paged.
const RootName = "ROOT"

// PagesFileName is the shared page file's name inside the database
// directory.
const PagesFileName = "pages.db"

// table is one relation's on-disk representation: a B+Tree keyed by the
// whole encoded tuple (relations enforce whole-tuple set semantics).
type table struct {
	name  string
	arity int
	tree  *Tree
}

// Store is the page store of one database directory: the pager and
// one table per relation. It holds tuples only; the meta-database
// (schemas, views, permits) lives beside ROOT in the generation's
// schema.authdb and views.authdb.
type Store struct {
	pg     *pager
	tables map[string]*table
}

// Create makes a fresh, empty store at path (truncating any stale page
// file).
func Create(fs faultfs.FS, path string, cachePages int) (*Store, error) {
	pg, err := createPager(fs, path, cachePages)
	if err != nil {
		return nil, err
	}
	return &Store{pg: pg, tables: make(map[string]*table)}, nil
}

// Open attaches to an existing page file using the committed ROOT.
func Open(fs faultfs.FS, path string, root []byte, cachePages int) (*Store, error) {
	pg, err := openPager(fs, path, cachePages)
	if err != nil {
		return nil, err
	}
	s := &Store{pg: pg, tables: make(map[string]*table)}
	if err := s.parseRoot(root); err != nil {
		pg.Close()
		return nil, err
	}
	return s, nil
}

// parseRoot restores the tables and allocation state from ROOT text. It
// rejects anything that would let the pager hand out the header page or
// a page twice: free pages and tree roots must lie in [1, npages), free
// pages and table names must be unique.
func (s *Store) parseRoot(root []byte) error {
	lines := strings.Split(string(root), "\n")
	switch strings.TrimSpace(lines[0]) {
	case rootMagic:
	case rootMagicV1:
		return fmt.Errorf("storage: ROOT is %s, which this build no longer reads; open the directory once with an earlier build that reads it, passing -storage memory, then open it with this build", rootMagicV1)
	default:
		return fmt.Errorf("storage: bad ROOT magic")
	}
	var nPages uint32
	var free []uint32
	var roots []uint32 // tree roots, checked against npages once it is known
	for _, ln := range lines[1:] {
		fields := strings.Fields(ln)
		if len(fields) == 0 {
			continue
		}
		switch fields[0] {
		case "pagesize", "npages":
			if len(fields) != 2 {
				return fmt.Errorf("storage: bad ROOT %s line", fields[0])
			}
		}
		switch fields[0] {
		case "pagesize":
			if ps, err := strconv.Atoi(fields[1]); err != nil || ps != PageSize {
				return fmt.Errorf("storage: ROOT page size %s, want %d", fields[1], PageSize)
			}
		case "npages":
			v, err := strconv.ParseUint(fields[1], 10, 32)
			if err != nil {
				return fmt.Errorf("storage: bad ROOT npages: %w", err)
			}
			nPages = uint32(v)
		case "free":
			for _, f := range fields[1:] {
				v, err := strconv.ParseUint(f, 10, 32)
				if err != nil {
					return fmt.Errorf("storage: bad ROOT free page: %w", err)
				}
				free = append(free, uint32(v))
			}
		case "table":
			if len(fields) != 4 {
				return fmt.Errorf("storage: bad ROOT table line %q", ln)
			}
			name := fields[1]
			if _, dup := s.tables[name]; dup {
				return fmt.Errorf("storage: ROOT lists table %s twice", name)
			}
			arity, err := strconv.Atoi(fields[2])
			if err != nil || arity < 1 {
				return fmt.Errorf("storage: bad ROOT arity for %s", name)
			}
			r, err := strconv.ParseUint(fields[3], 10, 32)
			if err != nil {
				return fmt.Errorf("storage: bad ROOT tree root for %s: %w", name, err)
			}
			roots = append(roots, uint32(r))
			s.tables[name] = &table{name: name, arity: arity, tree: &Tree{pg: s.pg, root: uint32(r)}}
		default:
			return fmt.Errorf("storage: unknown ROOT line %q", ln)
		}
	}
	if nPages == 0 {
		return fmt.Errorf("storage: ROOT missing npages line")
	}
	isFree := make(map[uint32]bool, len(free))
	for _, f := range free {
		if f == 0 || f >= nPages {
			return fmt.Errorf("storage: ROOT free page %d outside [1, %d)", f, nPages)
		}
		if isFree[f] {
			return fmt.Errorf("storage: ROOT lists free page %d twice", f)
		}
		isFree[f] = true
	}
	for _, r := range roots {
		if r >= nPages || isFree[r] {
			return fmt.Errorf("storage: ROOT tree root %d is free or outside [1, %d)", r, nPages)
		}
	}
	s.pg.setAlloc(nPages, free)
	return nil
}

// RenderRoot serializes the store's roots and allocation state. Pages
// on the pending free list are included as free: they die the instant
// the ROOT being written commits.
func (s *Store) RenderRoot() []byte {
	nPages, free := s.pg.allocSnapshot()
	sort.Slice(free, func(i, j int) bool { return free[i] < free[j] })
	var b strings.Builder
	fmt.Fprintf(&b, "%s\npagesize %d\nnpages %d\n", rootMagic, PageSize, nPages)
	if len(free) > 0 {
		b.WriteString("free")
		for _, f := range free {
			fmt.Fprintf(&b, " %d", f)
		}
		b.WriteString("\n")
	}
	for _, n := range s.Relations() {
		tb := s.tables[n]
		fmt.Fprintf(&b, "table %s %d %d\n", tb.name, tb.arity, tb.tree.root)
	}
	return []byte(b.String())
}

// CreateRelation registers an empty relation of the given arity.
func (s *Store) CreateRelation(name string, arity int) error {
	if _, ok := s.tables[name]; ok {
		return fmt.Errorf("storage: relation %s already exists", name)
	}
	s.tables[name] = &table{name: name, arity: arity, tree: &Tree{pg: s.pg}}
	return nil
}

// lookupTuple resolves rel and encodes vs as its tree key.
func (s *Store) lookupTuple(rel string, vs []value.Value) (*table, []byte, error) {
	tb, err := s.lookupTable(rel)
	if err != nil {
		return nil, nil, err
	}
	if len(vs) != tb.arity {
		return nil, nil, fmt.Errorf("storage: %s arity %d, got %d values", rel, tb.arity, len(vs))
	}
	return tb, encTuple(vs), nil
}

func (s *Store) lookupTable(rel string) (*table, error) {
	tb, ok := s.tables[rel]
	if !ok {
		return nil, fmt.Errorf("storage: unknown relation %s", rel)
	}
	return tb, nil
}

// InsertTuple adds vs to rel. Replaying a duplicate is a no-op (set
// semantics), matching the in-memory relation.
func (s *Store) InsertTuple(rel string, vs []value.Value) error {
	tb, key, err := s.lookupTuple(rel, vs)
	if err != nil {
		return err
	}
	return tb.tree.Insert(key)
}

// DeleteTuple removes vs from rel; an absent tuple is a no-op.
func (s *Store) DeleteTuple(rel string, vs []value.Value) error {
	tb, key, err := s.lookupTuple(rel, vs)
	if err != nil {
		return err
	}
	return tb.tree.Delete(key)
}

// ScanRelation streams rel's tuples in key order.
func (s *Store) ScanRelation(rel string, fn func(vs []value.Value) error) error {
	tb, err := s.lookupTable(rel)
	if err != nil {
		return err
	}
	return tb.tree.Scan(func(k []byte) error {
		vs, err := decTuple(k, tb.arity)
		if err != nil {
			return err
		}
		return fn(vs)
	})
}

// Relations lists the stored relation names, sorted.
func (s *Store) Relations() []string {
	names := make([]string, 0, len(s.tables))
	for n := range s.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Arity returns the stored arity of rel.
func (s *Store) Arity(rel string) (int, error) {
	tb, err := s.lookupTable(rel)
	if err != nil {
		return 0, err
	}
	return tb.arity, nil
}

// Reset drops every tree, returning the store to empty for the caller
// to repopulate, and clears a latched I/O failure. The committed ROOT's
// pages stay intact until the next Commit (see pager.Reset).
func (s *Store) Reset() {
	s.pg.Reset()
	s.tables = make(map[string]*table)
}

// Flush writes all dirty pages and syncs the page file, returning the
// dirty-page count (the incremental-checkpoint metric).
func (s *Store) Flush() (int, error) { return s.pg.Flush() }

// Commit seals a checkpoint after the generation's CURRENT flip:
// superseded pages become reusable.
func (s *Store) Commit() { s.pg.Commit() }

// Stats snapshots the pager counters.
func (s *Store) Stats() Stats { return s.pg.Stats() }

// Close releases the page file handle.
func (s *Store) Close() error { return s.pg.Close() }
