package storage

import (
	"container/list"
	"encoding/binary"
	"fmt"
	"math"
	"sync"

	"authdb/internal/faultfs"
)

// fileMagic heads page 0 of pages.db.
const fileMagic = "AUTHDBPAGES1"

// Stats is a point-in-time snapshot of pager counters, surfaced in
// /metrics and \stats.
type Stats struct {
	Hits       uint64 // cache hits in Get
	Misses     uint64 // cache misses (page read + decode)
	Evictions  uint64 // frames evicted by the LRU
	PageReads  uint64 // physical page reads
	PageWrites uint64 // physical page writes (flush + eviction writeback)
	Cached     int    // frames resident now
	Pages      uint32 // allocated pages in the file (excluding header)
	DirtyFlush uint64 // dirty pages written by the last Flush
}

// frame is one cached page.
type frame struct {
	no    uint32
	n     *node
	dirty bool
	pins  int
	elem  *list.Element
}

// pager owns pages.db: page allocation, the buffer cache, and the
// shadow-paging free lists. Page 0 is the file header; data pages are
// numbered from 1 at offset no*PageSize.
//
// Shadow-paging invariants:
//   - dirtying a committed page allocates a new physical slot (Shadow),
//     so the committed ROOT never references an in-flight write;
//   - freed pages land in pendingFree and become reusable only after
//     Commit (the next ROOT flip), so overflow chains and subtrees
//     shared between the committed and in-progress roots stay intact.
type pager struct {
	mu     sync.Mutex
	fs     faultfs.FS
	file   faultfs.RandomFile
	budget int // max cached frames before eviction

	nPages      uint32 // next page number to allocate
	free        []uint32
	pendingFree []uint32
	fresh       map[uint32]struct{} // allocated since last Commit: shadow in place

	frames map[uint32]*frame
	lru    *list.List // front = most recent; values are *frame

	hits, misses, evictions, reads, writes, dirtyFlush uint64
	broken                                             error // first I/O failure; fail-stop
}

// createPager truncates-or-creates path and writes the header page.
func createPager(fs faultfs.FS, path string, budget int) (*pager, error) {
	// Recreate from scratch so stale pages from an earlier life of the
	// file can never alias fresh allocations.
	_ = fs.Remove(path)
	f, err := fs.OpenFile(path)
	if err != nil {
		return nil, err
	}
	hdr := make([]byte, PageSize)
	copy(hdr, fileMagic)
	binary.LittleEndian.PutUint32(hdr[len(fileMagic):], PageSize)
	if _, err := f.WriteAt(hdr, 0); err != nil {
		f.Close()
		return nil, err
	}
	return newPager(fs, f, budget), nil
}

// openPager opens an existing pages.db and verifies its header.
func openPager(fs faultfs.FS, path string, budget int) (*pager, error) {
	f, err := fs.OpenFile(path)
	if err != nil {
		return nil, err
	}
	hdr := make([]byte, len(fileMagic)+4)
	if _, err := f.ReadAt(hdr, 0); err != nil {
		f.Close()
		return nil, fmt.Errorf("storage: reading page file header: %w", err)
	}
	if string(hdr[:len(fileMagic)]) != fileMagic {
		f.Close()
		return nil, fmt.Errorf("storage: bad page file magic")
	}
	if ps := binary.LittleEndian.Uint32(hdr[len(fileMagic):]); ps != PageSize {
		f.Close()
		return nil, fmt.Errorf("storage: page size %d, want %d", ps, PageSize)
	}
	return newPager(fs, f, budget), nil
}

func newPager(fs faultfs.FS, f faultfs.RandomFile, budget int) *pager {
	if budget < 8 {
		budget = 8
	}
	return &pager{
		fs:     fs,
		file:   f,
		budget: budget,
		nPages: 1,
		fresh:  make(map[uint32]struct{}),
		frames: make(map[uint32]*frame),
		lru:    list.New(),
	}
}

func (pg *pager) fail(err error) error {
	if pg.broken == nil {
		pg.broken = err
	}
	return err
}

// Get returns the decoded node for page no, reading it if not cached.
// The frame is moved to the LRU front but not pinned.
func (pg *pager) Get(no uint32) (*node, error) {
	pg.mu.Lock()
	defer pg.mu.Unlock()
	f, err := pg.frameLocked(no)
	if err != nil {
		return nil, err
	}
	return f.n, nil
}

func (pg *pager) frameLocked(no uint32) (*frame, error) {
	if pg.broken != nil {
		return nil, pg.broken
	}
	if no == 0 || no >= pg.nPages {
		return nil, fmt.Errorf("storage: page %d out of range (nPages=%d)", no, pg.nPages)
	}
	if f, ok := pg.frames[no]; ok {
		pg.hits++
		pg.lru.MoveToFront(f.elem)
		return f, nil
	}
	pg.misses++
	buf := make([]byte, PageSize)
	pg.reads++
	if _, err := pg.file.ReadAt(buf, int64(no)*PageSize); err != nil {
		return nil, pg.fail(fmt.Errorf("storage: reading page %d: %w", no, err))
	}
	n, err := decodePage(buf)
	if err != nil {
		return nil, pg.fail(fmt.Errorf("storage: page %d: %w", no, err))
	}
	f := &frame{no: no, n: n}
	f.elem = pg.lru.PushFront(f)
	pg.frames[no] = f
	pg.ensureRoomLocked()
	return f, nil
}

// Alloc returns a fresh dirty page holding n. Fresh pages may be
// re-dirtied in place until Commit.
func (pg *pager) Alloc(n *node) (uint32, error) {
	pg.mu.Lock()
	defer pg.mu.Unlock()
	return pg.allocLocked(n)
}

func (pg *pager) allocLocked(n *node) (uint32, error) {
	if pg.broken != nil {
		return 0, pg.broken
	}
	var no uint32
	if ln := len(pg.free); ln > 0 {
		no = pg.free[ln-1]
		pg.free = pg.free[:ln-1]
	} else if pg.nPages == math.MaxUint32 {
		return 0, fmt.Errorf("storage: page file full (%d pages)", pg.nPages)
	} else {
		no = pg.nPages
		pg.nPages++
	}
	pg.fresh[no] = struct{}{}
	f := &frame{no: no, n: n, dirty: true}
	f.elem = pg.lru.PushFront(f)
	pg.frames[no] = f
	pg.ensureRoomLocked()
	return no, nil
}

// Shadow prepares page no for mutation and returns the page number the
// mutated node lives at: no itself when the page is fresh (allocated
// since the last Commit), else a newly allocated copy with the original
// moved to pendingFree. The returned node is cached, dirty, and safe to
// mutate.
func (pg *pager) Shadow(no uint32) (uint32, *node, error) {
	pg.mu.Lock()
	defer pg.mu.Unlock()
	f, err := pg.frameLocked(no)
	if err != nil {
		return 0, nil, err
	}
	if _, ok := pg.fresh[no]; ok {
		f.dirty = true
		return no, f.n, nil
	}
	cp := &node{typ: f.n.typ, right: f.n.right}
	cp.cells = append([]cell(nil), f.n.cells...)
	cp.data = f.n.data
	pg.freeLocked(no)
	newNo, err := pg.allocLocked(cp)
	if err != nil {
		return 0, nil, err
	}
	return newNo, cp, nil
}

// Free releases page no into pendingFree; the slot is reusable only
// after the next Commit so the committed root keeps every page it
// references until it is superseded.
func (pg *pager) Free(no uint32) {
	pg.mu.Lock()
	defer pg.mu.Unlock()
	pg.freeLocked(no)
}

func (pg *pager) freeLocked(no uint32) {
	if f, ok := pg.frames[no]; ok {
		pg.lru.Remove(f.elem)
		delete(pg.frames, no)
	}
	if _, ok := pg.fresh[no]; ok {
		// Never committed: immediately reusable.
		delete(pg.fresh, no)
		pg.free = append(pg.free, no)
		return
	}
	pg.pendingFree = append(pg.pendingFree, no)
}

// pin increments the pin count of an already-resident frame without
// touching the hit/miss counters (used on pages just obtained via Get
// or Shadow). A non-resident page is a no-op: there is nothing to keep.
func (pg *pager) pin(no uint32) {
	pg.mu.Lock()
	defer pg.mu.Unlock()
	if f, ok := pg.frames[no]; ok {
		f.pins++
	}
}

func (pg *pager) Unpin(no uint32) {
	pg.mu.Lock()
	defer pg.mu.Unlock()
	if f, ok := pg.frames[no]; ok && f.pins > 0 {
		f.pins--
	}
}

// ensureRoomLocked evicts least-recently-used unpinned frames down to
// the budget. Dirty victims are written back (without sync — the next
// Flush's sync covers them; shadow paging keeps such writes invisible
// to the committed root). If everything is pinned or dirty-unwritable
// the cache is allowed to exceed its budget.
func (pg *pager) ensureRoomLocked() {
	for len(pg.frames) > pg.budget {
		var victim *frame
		for e := pg.lru.Back(); e != nil; e = e.Prev() {
			f := e.Value.(*frame)
			if f.pins == 0 {
				victim = f
				break
			}
		}
		if victim == nil {
			return
		}
		if victim.dirty {
			if err := pg.writePageLocked(victim); err != nil {
				pg.fail(err)
				return
			}
			victim.dirty = false
		}
		pg.lru.Remove(victim.elem)
		delete(pg.frames, victim.no)
		pg.evictions++
	}
}

func (pg *pager) writePageLocked(f *frame) error {
	buf, err := encodePage(f.n)
	if err != nil {
		return fmt.Errorf("storage: encoding page %d: %w", f.no, err)
	}
	pg.writes++
	if _, err := pg.file.WriteAt(buf, int64(f.no)*PageSize); err != nil {
		return fmt.Errorf("storage: writing page %d: %w", f.no, err)
	}
	return nil
}

// Flush writes every dirty cached page and syncs the file; it returns
// the number of dirty pages written (the incremental-checkpoint
// metric). Frames stay cached, now clean.
func (pg *pager) Flush() (int, error) {
	pg.mu.Lock()
	defer pg.mu.Unlock()
	if pg.broken != nil {
		return 0, pg.broken
	}
	dirty := 0
	for _, f := range pg.frames {
		if !f.dirty {
			continue
		}
		if err := pg.writePageLocked(f); err != nil {
			return dirty, pg.fail(err)
		}
		f.dirty = false
		dirty++
	}
	if err := pg.file.Sync(); err != nil {
		return dirty, pg.fail(fmt.Errorf("storage: syncing page file: %w", err))
	}
	pg.dirtyFlush = uint64(dirty)
	return dirty, nil
}

// Commit seals a checkpoint: pages freed by superseded roots become
// reusable and fresh pages become committed (future mutation shadows
// them).
func (pg *pager) Commit() {
	pg.mu.Lock()
	defer pg.mu.Unlock()
	pg.free = append(pg.free, pg.pendingFree...)
	pg.pendingFree = nil
	pg.fresh = make(map[uint32]struct{})
}

// Reset drops all cached state and every tree (used when the store must
// be reloaded from the engine's in-memory head, e.g. after adopting a
// replication snapshot or after a failed checkpoint). The committed
// ROOT may reach any page below the high-water mark, so all of them
// wait on pendingFree for the next Commit and the reload allocates
// above the mark: a checkpoint that fails mid-reload leaves the
// committed generation readable. A latched I/O failure is cleared with
// the state it may have left inconsistent; nothing the reload writes
// depends on it.
func (pg *pager) Reset() {
	pg.mu.Lock()
	defer pg.mu.Unlock()
	pg.broken = nil
	pg.free = nil
	pg.pendingFree = pg.pendingFree[:0]
	for no := uint32(1); no < pg.nPages; no++ {
		pg.pendingFree = append(pg.pendingFree, no)
	}
	pg.fresh = make(map[uint32]struct{})
	pg.frames = make(map[uint32]*frame)
	pg.lru = list.New()
}

// setAlloc restores allocation state from a parsed ROOT.
func (pg *pager) setAlloc(nPages uint32, free []uint32) {
	pg.mu.Lock()
	defer pg.mu.Unlock()
	pg.nPages = nPages
	pg.free = append([]uint32(nil), free...)
	pg.pendingFree = nil
	pg.fresh = make(map[uint32]struct{})
}

// allocSnapshot returns (nPages, free ∪ pendingFree) for ROOT
// rendering: pendingFree pages are dead as soon as the ROOT being
// written commits, so the new root may hand them out.
func (pg *pager) allocSnapshot() (uint32, []uint32) {
	pg.mu.Lock()
	defer pg.mu.Unlock()
	free := make([]uint32, 0, len(pg.free)+len(pg.pendingFree))
	free = append(free, pg.free...)
	free = append(free, pg.pendingFree...)
	return pg.nPages, free
}

func (pg *pager) Stats() Stats {
	pg.mu.Lock()
	defer pg.mu.Unlock()
	return Stats{
		Hits:       pg.hits,
		Misses:     pg.misses,
		Evictions:  pg.evictions,
		PageReads:  pg.reads,
		PageWrites: pg.writes,
		Cached:     len(pg.frames),
		Pages:      pg.nPages - 1,
		DirtyFlush: pg.dirtyFlush,
	}
}

func (pg *pager) Close() error {
	pg.mu.Lock()
	defer pg.mu.Unlock()
	if pg.file == nil {
		return nil
	}
	err := pg.file.Close()
	pg.file = nil
	return err
}
