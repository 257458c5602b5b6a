package storage

import (
	"bytes"
	"fmt"
)

// Tree is a copy-on-write B+Tree over a pager holding a set of keys:
// Insert, Delete and an ordered Scan are all it does. Interior cells hold
// (separator, child) with the invariant that child's keys are ≤ the
// separator; the node's right pointer holds keys greater than every
// separator. Mutations shadow the descent path (pager.Shadow), so the
// tree rooted at the last committed ROOT stays physically intact until
// the next checkpoint commits.
//
// Deletion is lazy: underfull nodes are not merged, empty nodes are
// unlinked, and a rootward chain of cell-less interior nodes collapses.
// Separators left behind by deletions remain valid upper bounds.
type Tree struct {
	pg   *pager
	root uint32 // 0 = empty tree
}

// split reports a node split to the parent: sepCell carries the
// promoted separator key (inline or overflow), right the new sibling
// holding keys greater than the separator.
type split struct {
	sepCell cell
	right   uint32
}

// cellKey returns the full key bytes of c, reading its overflow chain
// if the key is spilled.
func (t *Tree) cellKey(c *cell) ([]byte, error) {
	if c.keyOvf == 0 {
		return c.key, nil
	}
	var key []byte
	err := t.walkOverflow(c.keyOvf, int(c.keyLen), func(_ uint32, n *node) {
		key = append(key, n.data...)
	})
	return key, err
}

const ovfChunk = PageSize - pageHdrSize

// writeOverflow spills key into a chain of overflow pages, every one
// full but the last, and returns the first page number. Chains are
// write-once: they are created whole and freed whole.
func (t *Tree) writeOverflow(key []byte) (uint32, error) {
	next := uint32(0)
	// Build back-to-front so each page links to its successor.
	for off := ((len(key) - 1) / ovfChunk) * ovfChunk; off >= 0; off -= ovfChunk {
		end := min(off+ovfChunk, len(key))
		no, err := t.pg.Alloc(&node{typ: pageOverflow, data: append([]byte(nil), key[off:end]...), right: next})
		if err != nil {
			return 0, err
		}
		next = no
	}
	return next, nil
}

// walkOverflow visits, in order, the pages of the chain at first that
// holds a key of total bytes. The walk is bounded by the length: the
// chain must be exactly ⌈total/ovfChunk⌉ pages, each full but the last,
// and a chain that is shorter, longer or cyclic (which never ends) is an
// error. A chain cannot have more pages than the file, so a corrupt
// length costs at most one pass over the file.
func (t *Tree) walkOverflow(first uint32, total int, fn func(no uint32, n *node)) error {
	pages := (total + ovfChunk - 1) / ovfChunk
	if pages > int(t.pg.Stats().Pages) {
		return fmt.Errorf("storage: %d-byte overflow key outgrows the page file", total)
	}
	no := first
	for i := range pages {
		if no == 0 {
			return fmt.Errorf("storage: overflow chain at page %d ends after %d of %d pages", first, i, pages)
		}
		n, err := t.pg.Get(no)
		if err != nil {
			return err
		}
		if n.typ != pageOverflow {
			return fmt.Errorf("storage: page %d in overflow chain has type %d", no, n.typ)
		}
		if want := min(ovfChunk, total-i*ovfChunk); len(n.data) != want {
			return fmt.Errorf("storage: overflow page %d holds %d bytes, want %d", no, len(n.data), want)
		}
		next := n.right
		fn(no, n)
		no = next
	}
	if no != 0 {
		return fmt.Errorf("storage: overflow chain at page %d runs past its %d pages", first, pages)
	}
	return nil
}

// freeOverflow releases c's key chain into the pending free list; an
// inline key has none. The chain is walked whole before any page is
// freed, so a corrupt chain frees nothing.
func (t *Tree) freeOverflow(c *cell) error {
	if c.keyOvf == 0 {
		return nil
	}
	var pages []uint32
	if err := t.walkOverflow(c.keyOvf, int(c.keyLen), func(no uint32, _ *node) {
		pages = append(pages, no)
	}); err != nil {
		return err
	}
	for _, no := range pages {
		t.pg.Free(no)
	}
	return nil
}

// makeKeyCell builds a cell carrying key (copied), spilling to an
// overflow chain when it exceeds the inline cap.
func (t *Tree) makeKeyCell(key []byte) (cell, error) {
	var c cell
	if len(key) <= maxInlineKey {
		c.key = append([]byte(nil), key...)
		return c, nil
	}
	no, err := t.writeOverflow(key)
	if err != nil {
		return cell{}, err
	}
	c.keyOvf, c.keyLen = no, uint32(len(key))
	return c, nil
}

// lowerBound returns the first cell index whose key is ≥ key (for
// leaves) / whose separator is ≥ key (for interiors: the child to
// descend), and whether that cell's key equals key exactly.
func (t *Tree) lowerBound(n *node, key []byte) (int, bool, error) {
	lo, hi := 0, len(n.cells)
	for lo < hi {
		mid := (lo + hi) / 2
		k, err := t.cellKey(&n.cells[mid])
		if err != nil {
			return 0, false, err
		}
		if bytes.Compare(k, key) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(n.cells) {
		k, err := t.cellKey(&n.cells[lo])
		if err != nil {
			return 0, false, err
		}
		return lo, bytes.Equal(k, key), nil
	}
	return lo, false, nil
}

// Insert adds key; a key already present is left alone.
func (t *Tree) Insert(key []byte) error {
	if t.root == 0 {
		c, err := t.makeKeyCell(key)
		if err != nil {
			return err
		}
		no, err := t.pg.Alloc(&node{typ: pageLeaf, cells: []cell{c}})
		if err != nil {
			return err
		}
		t.root = no
		return nil
	}
	newRoot, sp, err := t.insert(t.root, key)
	if err != nil {
		return err
	}
	t.root = newRoot
	if sp != nil {
		rc := sp.sepCell
		rc.child = newRoot
		no, err := t.pg.Alloc(&node{typ: pageInterior, cells: []cell{rc}, right: sp.right})
		if err != nil {
			return err
		}
		t.root = no
	}
	return nil
}

func (t *Tree) insert(no uint32, key []byte) (uint32, *split, error) {
	sno, n, err := t.pg.Shadow(no)
	if err != nil {
		return 0, nil, err
	}
	// Pin the shadowed page while working below it so recursion (or
	// overflow-chain writes) cannot thrash it out mid-mutation.
	t.pg.pin(sno)
	defer t.pg.Unpin(sno)
	if n.typ == pageLeaf {
		i, eq, err := t.lowerBound(n, key)
		if err != nil || eq {
			return sno, nil, err
		}
		c, err := t.makeKeyCell(key)
		if err != nil {
			return 0, nil, err
		}
		n.cells = append(n.cells, cell{})
		copy(n.cells[i+1:], n.cells[i:])
		n.cells[i] = c
		if nodeSize(n) <= PageSize {
			return sno, nil, nil
		}
		return t.splitLeaf(sno, n)
	}

	i, _, err := t.lowerBound(n, key)
	if err != nil {
		return 0, nil, err
	}
	var childNo uint32
	if i < len(n.cells) {
		childNo = n.cells[i].child
	} else {
		childNo = n.right
	}
	nc, sp, err := t.insert(childNo, key)
	if err != nil {
		return 0, nil, err
	}
	if sp == nil {
		if i < len(n.cells) {
			n.cells[i].child = nc
		} else {
			n.right = nc
		}
		return sno, nil, nil
	}
	// The child split into nc (keys ≤ sp.sep) and sp.right (keys above).
	nw := sp.sepCell
	nw.child = nc
	if i < len(n.cells) {
		n.cells[i].child = sp.right
		n.cells = append(n.cells, cell{})
		copy(n.cells[i+1:], n.cells[i:])
		n.cells[i] = nw
	} else {
		n.right = sp.right
		n.cells = append(n.cells, nw)
	}
	if nodeSize(n) <= PageSize {
		return sno, nil, nil
	}
	return t.splitInterior(sno, n)
}

// splitLeaf moves the upper half (by encoded size) of n's cells to a
// new sibling. The separator is a fresh copy of the last left key, so
// spilled keys are never chain-shared between a leaf cell and an
// interior separator.
func (t *Tree) splitLeaf(sno uint32, n *node) (uint32, *split, error) {
	m := splitPoint(n)
	rightCells := append([]cell(nil), n.cells[m:]...)
	n.cells = n.cells[:m:m]
	lastKey, err := t.cellKey(&n.cells[m-1])
	if err != nil {
		return 0, nil, err
	}
	sepCell, err := t.makeKeyCell(lastKey)
	if err != nil {
		return 0, nil, err
	}
	rno, err := t.pg.Alloc(&node{typ: pageLeaf, cells: rightCells})
	if err != nil {
		return 0, nil, err
	}
	return sno, &split{sepCell: sepCell, right: rno}, nil
}

// splitInterior promotes the middle cell: its child becomes the left
// node's right pointer and its separator moves to the parent (ownership
// of any key overflow chain transfers with it).
func (t *Tree) splitInterior(sno uint32, n *node) (uint32, *split, error) {
	m := len(n.cells) / 2
	promoted := n.cells[m]
	rightCells := append([]cell(nil), n.cells[m+1:]...)
	rno, err := t.pg.Alloc(&node{typ: pageInterior, cells: rightCells, right: n.right})
	if err != nil {
		return 0, nil, err
	}
	n.right = promoted.child
	n.cells = n.cells[:m:m]
	sepCell := promoted
	sepCell.child = 0
	return sno, &split{sepCell: sepCell, right: rno}, nil
}

// splitPoint picks the first index that puts at least half the encoded
// bytes on the left, clamped so both sides keep at least one cell.
func splitPoint(n *node) int {
	target := nodeSize(n) / 2
	acc := pageHdrSize
	for i := range n.cells {
		acc += cellWireSize(n.typ, &n.cells[i]) + 2
		if acc >= target {
			m := i + 1
			if m >= len(n.cells) {
				m = len(n.cells) - 1
			}
			if m < 1 {
				m = 1
			}
			return m
		}
	}
	return len(n.cells) - 1
}

// Delete removes key; an absent key is a no-op.
func (t *Tree) Delete(key []byte) error {
	if t.root == 0 {
		return nil
	}
	newNo, removed, emptied, err := t.del(t.root, key)
	if err != nil || !removed {
		return err
	}
	if emptied {
		t.root = 0
		return nil
	}
	t.root = newNo
	// Collapse cell-less interior roots left behind by lazy deletion.
	for t.root != 0 {
		n, err := t.pg.Get(t.root)
		if err != nil {
			return err
		}
		if n.typ != pageInterior || len(n.cells) > 0 {
			break
		}
		old := t.root
		t.root = n.right
		t.pg.Free(old)
	}
	return nil
}

// del removes key under no, returning the (possibly shadowed)
// replacement page, whether a key was removed, and whether the whole
// subtree became empty (in which case the page is already freed).
func (t *Tree) del(no uint32, key []byte) (uint32, bool, bool, error) {
	n, err := t.pg.Get(no)
	if err != nil {
		return 0, false, false, err
	}
	if n.typ == pageLeaf {
		i, eq, err := t.lowerBound(n, key)
		if err != nil {
			return 0, false, false, err
		}
		if !eq {
			return no, false, false, nil
		}
		sno, sn, err := t.pg.Shadow(no)
		if err != nil {
			return 0, false, false, err
		}
		if err := t.freeOverflow(&sn.cells[i]); err != nil {
			return 0, false, false, err
		}
		sn.cells = append(sn.cells[:i], sn.cells[i+1:]...)
		if len(sn.cells) == 0 {
			t.pg.Free(sno)
			return 0, true, true, nil
		}
		return sno, true, false, nil
	}

	i, _, err := t.lowerBound(n, key)
	if err != nil {
		return 0, false, false, err
	}
	var childNo uint32
	if i < len(n.cells) {
		childNo = n.cells[i].child
	} else {
		childNo = n.right
	}
	t.pg.pin(no)
	nc, removed, emptied, err := t.del(childNo, key)
	t.pg.Unpin(no)
	if err != nil || !removed {
		return no, false, false, err
	}
	sno, sn, err := t.pg.Shadow(no)
	if err != nil {
		return 0, false, false, err
	}
	if !emptied {
		if i < len(sn.cells) {
			sn.cells[i].child = nc
		} else {
			sn.right = nc
		}
		return sno, true, false, nil
	}
	// The descended child vanished: drop its pointer. Removing a
	// separator only loosens lower bounds, which search never relies on.
	if i < len(sn.cells) {
		if err := t.freeOverflow(&sn.cells[i]); err != nil {
			return 0, false, false, err
		}
		sn.cells = append(sn.cells[:i], sn.cells[i+1:]...)
		return sno, true, false, nil
	}
	if len(sn.cells) == 0 {
		t.pg.Free(sno)
		return 0, true, true, nil
	}
	last := len(sn.cells) - 1
	sn.right = sn.cells[last].child
	if err := t.freeOverflow(&sn.cells[last]); err != nil {
		return 0, false, false, err
	}
	sn.cells = sn.cells[:last]
	return sno, true, false, nil
}

// Scan calls fn on every key in order.
func (t *Tree) Scan(fn func(key []byte) error) error {
	if t.root == 0 {
		return nil
	}
	return t.scan(t.root, fn)
}

func (t *Tree) scan(no uint32, fn func(key []byte) error) error {
	n, err := t.pg.Get(no)
	if err != nil {
		return err
	}
	t.pg.pin(no)
	defer t.pg.Unpin(no)
	if n.typ == pageInterior {
		for i := range n.cells {
			if err := t.scan(n.cells[i].child, fn); err != nil {
				return err
			}
		}
		return t.scan(n.right, fn)
	}
	for i := range n.cells {
		k, err := t.cellKey(&n.cells[i])
		if err != nil {
			return err
		}
		if err := fn(k); err != nil {
			return err
		}
	}
	return nil
}
