package storage

import (
	"bytes"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"authdb/internal/faultfs"
	"authdb/internal/value"
)

// rootMagic heads the per-generation ROOT file. ROOT is the only
// per-checkpoint state: tree roots, allocation state, and the view
// sequence counter. Pages live in the shared pages.db next to the
// generation directories.
const rootMagic = "AUTHDBROOT1"

// RootName is the ROOT file's name inside a snapshot generation
// directory; its presence marks the generation as paged.
const RootName = "ROOT"

// PagesFileName is the shared page file's name inside the database
// directory.
const PagesFileName = "pages.db"

// Catalog key prefixes. Schemas sort by relation name, views by
// definition sequence (definition order matters: views reference
// earlier views), permits by (user, view).
const (
	catSchema = "s/"
	catView   = "w/"
	catPermit = "p/"
)

// table is one relation's on-disk representation: a primary B+Tree
// keyed by the whole encoded tuple (relations enforce whole-tuple set
// semantics) and one secondary per attribute keyed by
// enc(value) ‖ primaryKey.
type table struct {
	name    string
	arity   int
	primary *Tree
	sec     []*Tree
}

// Store is the paged backend for one database directory: the pager, the
// catalog tree (schemas, view definitions, permits — the meta-database
// the paper's authorization model is a function of), and one table per
// relation.
type Store struct {
	pg      *pager
	catalog *Tree
	tables  map[string]*table
	viewSeq uint64
	rebuild bool // set when the trees must be repopulated from the engine head
}

// Create makes a fresh, empty store at path (truncating any stale page
// file).
func Create(fs faultfs.FS, path string, cachePages int) (*Store, error) {
	pg, err := createPager(fs, path, cachePages)
	if err != nil {
		return nil, err
	}
	return &Store{
		pg:      pg,
		catalog: &Tree{pg: pg},
		tables:  make(map[string]*table),
	}, nil
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

// Catalog is a fully rendered meta-database: the statement scripts that
// recreate schemas, views, and permits in replay order.
type Catalog struct {
	Schemas []string
	Views   []string
	Permits []string
}

func (s *Store) parseRoot(root []byte) error {
	lines := strings.Split(string(root), "\n")
	if len(lines) == 0 || strings.TrimSpace(lines[0]) != rootMagic {
		return fmt.Errorf("storage: bad ROOT magic")
	}
	var nPages uint32
	var free []uint32
	for _, ln := range lines[1:] {
		ln = strings.TrimSpace(ln)
		if ln == "" {
			continue
		}
		fields := strings.Fields(ln)
		switch fields[0] {
		case "pagesize", "npages", "viewseq", "catalog":
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
		case "viewseq":
			v, err := strconv.ParseUint(fields[1], 10, 64)
			if err != nil {
				return fmt.Errorf("storage: bad ROOT viewseq: %w", err)
			}
			s.viewSeq = v
		case "free":
			for _, f := range fields[1:] {
				v, err := strconv.ParseUint(f, 10, 32)
				if err != nil {
					return fmt.Errorf("storage: bad ROOT free page: %w", err)
				}
				free = append(free, uint32(v))
			}
		case "catalog":
			v, err := strconv.ParseUint(fields[1], 10, 32)
			if err != nil {
				return fmt.Errorf("storage: bad ROOT catalog root: %w", err)
			}
			s.catalog = &Tree{pg: s.pg, root: uint32(v)}
		case "table":
			if len(fields) < 4 {
				return fmt.Errorf("storage: bad ROOT table line %q", ln)
			}
			name := fields[1]
			arity, err := strconv.Atoi(fields[2])
			if err != nil || arity < 1 {
				return fmt.Errorf("storage: bad ROOT arity for %s", name)
			}
			roots := make([]uint32, 0, len(fields)-3)
			for _, f := range fields[3:] {
				v, err := strconv.ParseUint(f, 10, 32)
				if err != nil {
					return fmt.Errorf("storage: bad ROOT tree root for %s: %w", name, err)
				}
				roots = append(roots, uint32(v))
			}
			if len(roots) != 1+arity {
				return fmt.Errorf("storage: table %s has %d roots, want %d", name, len(roots), 1+arity)
			}
			tb := &table{name: name, arity: arity, primary: &Tree{pg: s.pg, root: roots[0]}}
			for _, r := range roots[1:] {
				tb.sec = append(tb.sec, &Tree{pg: s.pg, root: r})
			}
			s.tables[name] = tb
		default:
			return fmt.Errorf("storage: unknown ROOT line %q", ln)
		}
	}
	if s.catalog == nil {
		return fmt.Errorf("storage: ROOT missing catalog line")
	}
	if nPages == 0 {
		return fmt.Errorf("storage: ROOT missing npages line")
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
	fmt.Fprintf(&b, "%s\npagesize %d\nnpages %d\nviewseq %d\n", rootMagic, PageSize, nPages, s.viewSeq)
	if len(free) > 0 {
		b.WriteString("free")
		for _, f := range free {
			fmt.Fprintf(&b, " %d", f)
		}
		b.WriteString("\n")
	}
	fmt.Fprintf(&b, "catalog %d\n", s.catalog.root)
	names := make([]string, 0, len(s.tables))
	for n := range s.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		tb := s.tables[n]
		fmt.Fprintf(&b, "table %s %d %d", tb.name, tb.arity, tb.primary.root)
		for _, sec := range tb.sec {
			fmt.Fprintf(&b, " %d", sec.root)
		}
		b.WriteString("\n")
	}
	return []byte(b.String())
}

// CreateRelation registers a relation and its DDL statement.
func (s *Store) CreateRelation(name string, arity int, stmt string) error {
	if _, ok := s.tables[name]; ok {
		return fmt.Errorf("storage: relation %s already exists", name)
	}
	tb := &table{name: name, arity: arity, primary: &Tree{pg: s.pg}}
	for i := 0; i < arity; i++ {
		tb.sec = append(tb.sec, &Tree{pg: s.pg})
	}
	s.tables[name] = tb
	return s.catalog.Put([]byte(catSchema+name), []byte(stmt))
}

func (s *Store) lookupTable(rel string) (*table, error) {
	tb, ok := s.tables[rel]
	if !ok {
		return nil, fmt.Errorf("storage: unknown relation %s", rel)
	}
	return tb, nil
}

// secKey builds a secondary index key: enc(value) ‖ primaryKey. The
// value encoding is self-delimiting, so all keys for one value form a
// contiguous run beginning at enc(value).
func secKey(v value.Value, pk []byte) []byte {
	k := encValue(make([]byte, 0, 16+len(pk)), v)
	return append(k, pk...)
}

// InsertTuple adds vs to rel's primary and every secondary. Replaying a
// duplicate is a no-op (set semantics), matching the in-memory
// relation.
func (s *Store) InsertTuple(rel string, vs []value.Value) error {
	tb, err := s.lookupTable(rel)
	if err != nil {
		return err
	}
	if len(vs) != tb.arity {
		return fmt.Errorf("storage: %s arity %d, got %d values", rel, tb.arity, len(vs))
	}
	pk := encTuple(vs)
	if err := tb.primary.Put(pk, nil); err != nil {
		return err
	}
	for i, v := range vs {
		if err := tb.sec[i].Put(secKey(v, pk), nil); err != nil {
			return err
		}
	}
	return nil
}

// deleteByKey removes one tuple (given by its decoded values and
// primary key) from the primary and all secondaries.
func (s *Store) deleteByKey(tb *table, vs []value.Value, pk []byte) error {
	removed, err := tb.primary.Delete(pk)
	if err != nil {
		return err
	}
	if !removed {
		return nil
	}
	for i, v := range vs {
		if _, err := tb.sec[i].Delete(secKey(v, pk)); err != nil {
			return err
		}
	}
	return nil
}

// DeleteWhere removes every tuple of rel matching pred and reports the
// count. With hintAttr ≥ 0 the candidate set is narrowed through the
// attribute's secondary index (an equality hint extracted from the
// statement's conditions) instead of scanning the primary.
func (s *Store) DeleteWhere(rel string, pred func([]value.Value) bool, hintAttr int, hintVal value.Value) (int, error) {
	tb, err := s.lookupTable(rel)
	if err != nil {
		return 0, err
	}
	type victim struct {
		vs []value.Value
		pk []byte
	}
	var victims []victim
	collect := func(pk []byte) error {
		vs, err := decTuple(pk, tb.arity)
		if err != nil {
			return err
		}
		if pred == nil || pred(vs) {
			victims = append(victims, victim{vs, append([]byte(nil), pk...)})
		}
		return nil
	}
	if hintAttr >= 0 && hintAttr < tb.arity {
		lo := encValue(nil, hintVal)
		err = tb.sec[hintAttr].ScanFrom(lo, func(k, _ []byte) (bool, error) {
			if !bytes.HasPrefix(k, lo) {
				return false, nil
			}
			v, pk, err := decValue(k)
			if err != nil {
				return false, err
			}
			if v.Compare(hintVal) != 0 {
				return false, nil
			}
			return true, collect(pk)
		})
	} else {
		err = tb.primary.Scan(func(k, _ []byte) (bool, error) {
			return true, collect(k)
		})
	}
	if err != nil {
		return 0, err
	}
	for _, v := range victims {
		if err := s.deleteByKey(tb, v.vs, v.pk); err != nil {
			return 0, err
		}
	}
	return len(victims), nil
}

// ScanRelation streams rel's tuples in primary-key order.
func (s *Store) ScanRelation(rel string, fn func(vs []value.Value) error) error {
	tb, err := s.lookupTable(rel)
	if err != nil {
		return err
	}
	return tb.primary.Scan(func(k, _ []byte) (bool, error) {
		vs, err := decTuple(k, tb.arity)
		if err != nil {
			return false, err
		}
		return true, fn(vs)
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

// PutView appends a view definition (replacing any earlier definition
// of the same name while keeping definition order for replay).
func (s *Store) PutView(name, stmt string) error {
	if err := s.DropView(name); err != nil {
		return err
	}
	s.viewSeq++
	key := fmt.Sprintf("%s%08d", catView, s.viewSeq)
	return s.catalog.Put([]byte(key), []byte(name+"\x00"+stmt))
}

// DropView removes name's definition and — matching the in-memory
// store's cascade — every permit granted on it. Unknown names are a
// no-op.
func (s *Store) DropView(name string) error {
	var doomed [][]byte
	err := s.scanPrefix(catView, func(k, v []byte) error {
		if n, _, ok := bytes.Cut(v, []byte{0}); ok && string(n) == name {
			doomed = append(doomed, append([]byte(nil), k...))
		}
		return nil
	})
	if err != nil || doomed == nil {
		return err
	}
	err = s.scanPrefix(catPermit, func(k, _ []byte) error {
		if _, view, ok := bytes.Cut(k[len(catPermit):], []byte{0}); ok && string(view) == name {
			doomed = append(doomed, append([]byte(nil), k...))
		}
		return nil
	})
	if err != nil {
		return err
	}
	for _, k := range doomed {
		if _, err := s.catalog.Delete(k); err != nil {
			return err
		}
	}
	return nil
}

// PutPermit records a permit statement under (user, view).
func (s *Store) PutPermit(user, view, stmt string) error {
	return s.catalog.Put([]byte(catPermit+user+"\x00"+view), []byte(stmt))
}

// DropPermit removes the permit for (user, view).
func (s *Store) DropPermit(user, view string) error {
	_, err := s.catalog.Delete([]byte(catPermit + user + "\x00" + view))
	return err
}

func (s *Store) scanPrefix(prefix string, fn func(k, v []byte) error) error {
	p := []byte(prefix)
	return s.catalog.ScanFrom(p, func(k, v []byte) (bool, error) {
		if !bytes.HasPrefix(k, p) {
			return false, nil
		}
		return true, fn(k, v)
	})
}

// LoadCatalog renders the stored meta-database as replayable statement
// lists: schemas (by relation name), views (in definition order), and
// permits (by user then view).
func (s *Store) LoadCatalog() (*Catalog, error) {
	var c Catalog
	if err := s.scanPrefix(catSchema, func(_, v []byte) error {
		c.Schemas = append(c.Schemas, string(v))
		return nil
	}); err != nil {
		return nil, err
	}
	if err := s.scanPrefix(catView, func(_, v []byte) error {
		if _, stmt, ok := bytes.Cut(v, []byte{0}); ok {
			c.Views = append(c.Views, string(stmt))
		}
		return nil
	}); err != nil {
		return nil, err
	}
	if err := s.scanPrefix(catPermit, func(_, v []byte) error {
		c.Permits = append(c.Permits, string(v))
		return nil
	}); err != nil {
		return nil, err
	}
	return &c, nil
}

// MarkRebuild flags the store's trees as stale relative to the engine's
// in-memory head; the next checkpoint repopulates them from scratch
// (used when a replica adopts a whole snapshot, and when converting a
// CSV generation to the paged backend).
func (s *Store) MarkRebuild() { s.rebuild = true }

// NeedsRebuild reports whether MarkRebuild was called.
func (s *Store) NeedsRebuild() bool { return s.rebuild }

// Reset drops every tree and page, returning the store to empty; the
// caller repopulates it and clears the rebuild flag.
func (s *Store) Reset() {
	s.pg.Reset()
	s.catalog = &Tree{pg: s.pg}
	s.tables = make(map[string]*table)
	s.viewSeq = 0
	s.rebuild = false
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
