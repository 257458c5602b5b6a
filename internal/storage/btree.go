package storage

import (
	"bytes"
	"fmt"
)

// Tree is a copy-on-write B+Tree over a pager. Interior cells hold
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
	return t.readOverflow(c.keyOvf, int(c.keyLen))
}

// cellVal returns the full value bytes of c.
func (t *Tree) cellVal(c *cell) ([]byte, error) {
	if c.valOvf == 0 {
		return c.val, nil
	}
	return t.readOverflow(c.valOvf, int(c.valLen))
}

const ovfChunk = PageSize - pageHdrSize

// writeOverflow spills data into a chain of overflow pages and returns
// the first page number. Chains are write-once: they are created whole
// and freed whole.
func (t *Tree) writeOverflow(data []byte) (uint32, error) {
	next := uint32(0)
	// Build back-to-front so each page links to its successor.
	for off := ((len(data) - 1) / ovfChunk) * ovfChunk; off >= 0; off -= ovfChunk {
		end := off + ovfChunk
		if end > len(data) {
			end = len(data)
		}
		no, err := t.pg.Alloc(&node{typ: pageOverflow, data: append([]byte(nil), data[off:end]...), right: next})
		if err != nil {
			return 0, err
		}
		next = no
	}
	return next, nil
}

// readOverflow reassembles a spilled key or value of the given total
// length.
func (t *Tree) readOverflow(first uint32, total int) ([]byte, error) {
	out := make([]byte, 0, total)
	for no := first; no != 0; {
		n, err := t.pg.Get(no)
		if err != nil {
			return nil, err
		}
		if n.typ != pageOverflow {
			return nil, fmt.Errorf("storage: page %d in overflow chain has type %d", no, n.typ)
		}
		out = append(out, n.data...)
		no = n.right
	}
	if len(out) != total {
		return nil, fmt.Errorf("storage: overflow chain holds %d bytes, want %d", len(out), total)
	}
	return out, nil
}

// freeOverflow releases a whole chain into the pending free list.
func (t *Tree) freeOverflow(first uint32) error {
	for no := first; no != 0; {
		n, err := t.pg.Get(no)
		if err != nil {
			return err
		}
		next := n.right
		t.pg.Free(no)
		no = next
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

// setCellVal installs val into c (copied), spilling when oversized. Any
// previous value spill must already be freed by the caller.
func (t *Tree) setCellVal(c *cell, val []byte) error {
	c.val, c.valOvf, c.valLen = nil, 0, 0
	if len(val) <= maxInlineVal {
		if len(val) > 0 {
			c.val = append([]byte(nil), val...)
		}
		return nil
	}
	no, err := t.writeOverflow(val)
	if err != nil {
		return err
	}
	c.valOvf, c.valLen = no, uint32(len(val))
	return nil
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

// Get returns the value stored under key.
func (t *Tree) Get(key []byte) ([]byte, bool, error) {
	no := t.root
	for no != 0 {
		n, err := t.pg.Get(no)
		if err != nil {
			return nil, false, err
		}
		i, eq, err := t.lowerBound(n, key)
		if err != nil {
			return nil, false, err
		}
		if n.typ == pageInterior {
			if i < len(n.cells) {
				no = n.cells[i].child
			} else {
				no = n.right
			}
			continue
		}
		if !eq {
			return nil, false, nil
		}
		v, err := t.cellVal(&n.cells[i])
		return v, true, err
	}
	return nil, false, nil
}

// Put inserts or replaces key → val.
func (t *Tree) Put(key, val []byte) error {
	if t.root == 0 {
		c, err := t.makeKeyCell(key)
		if err != nil {
			return err
		}
		if err := t.setCellVal(&c, val); err != nil {
			return err
		}
		no, err := t.pg.Alloc(&node{typ: pageLeaf, cells: []cell{c}})
		if err != nil {
			return err
		}
		t.root = no
		return nil
	}
	newRoot, sp, err := t.put(t.root, key, val)
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

func (t *Tree) put(no uint32, key, val []byte) (uint32, *split, error) {
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
		if err != nil {
			return 0, nil, err
		}
		if eq {
			c := &n.cells[i]
			if c.valOvf != 0 {
				if err := t.freeOverflow(c.valOvf); err != nil {
					return 0, nil, err
				}
			}
			if err := t.setCellVal(c, val); err != nil {
				return 0, nil, err
			}
		} else {
			c, err := t.makeKeyCell(key)
			if err != nil {
				return 0, nil, err
			}
			if err := t.setCellVal(&c, val); err != nil {
				return 0, nil, err
			}
			n.cells = append(n.cells, cell{})
			copy(n.cells[i+1:], n.cells[i:])
			n.cells[i] = c
		}
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
	nc, sp, err := t.put(childNo, key, val)
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

// Delete removes key, reporting whether it was present.
func (t *Tree) Delete(key []byte) (bool, error) {
	if t.root == 0 {
		return false, nil
	}
	newNo, removed, emptied, err := t.del(t.root, key)
	if err != nil {
		return false, err
	}
	if !removed {
		return false, nil
	}
	if emptied {
		t.root = 0
		return true, nil
	}
	t.root = newNo
	// Collapse cell-less interior roots left behind by lazy deletion.
	for t.root != 0 {
		n, err := t.pg.Get(t.root)
		if err != nil {
			return true, err
		}
		if n.typ != pageInterior || len(n.cells) > 0 {
			break
		}
		old := t.root
		t.root = n.right
		t.pg.Free(old)
	}
	return true, nil
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
		c := sn.cells[i]
		if c.keyOvf != 0 {
			if err := t.freeOverflow(c.keyOvf); err != nil {
				return 0, false, false, err
			}
		}
		if c.valOvf != 0 {
			if err := t.freeOverflow(c.valOvf); err != nil {
				return 0, false, false, err
			}
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
		if sn.cells[i].keyOvf != 0 {
			if err := t.freeOverflow(sn.cells[i].keyOvf); err != nil {
				return 0, false, false, err
			}
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
	if sn.cells[last].keyOvf != 0 {
		if err := t.freeOverflow(sn.cells[last].keyOvf); err != nil {
			return 0, false, false, err
		}
	}
	sn.cells = sn.cells[:last]
	return sno, true, false, nil
}

// Scan walks every key in order; fn returns false to stop early.
func (t *Tree) Scan(fn func(key, val []byte) (bool, error)) error {
	if t.root == 0 {
		return nil
	}
	_, err := t.scan(t.root, fn)
	return err
}

func (t *Tree) scan(no uint32, fn func(key, val []byte) (bool, error)) (bool, error) {
	n, err := t.pg.Get(no)
	if err != nil {
		return false, err
	}
	t.pg.pin(no)
	defer t.pg.Unpin(no)
	if n.typ == pageInterior {
		for i := range n.cells {
			cont, err := t.scan(n.cells[i].child, fn)
			if err != nil || !cont {
				return cont, err
			}
		}
		return t.scan(n.right, fn)
	}
	for i := range n.cells {
		k, err := t.cellKey(&n.cells[i])
		if err != nil {
			return false, err
		}
		v, err := t.cellVal(&n.cells[i])
		if err != nil {
			return false, err
		}
		cont, err := fn(k, v)
		if err != nil || !cont {
			return cont, err
		}
	}
	return true, nil
}
