package storage

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
)

// PageSize is the fixed on-disk page size. 4KiB matches the common
// filesystem block size; a torn write can still split a page, which the
// per-page CRC detects (and shadow paging makes harmless: committed
// roots never reference in-flight pages).
const PageSize = 4096

// Page types.
const (
	pageLeaf     = 1
	pageInterior = 2
	pageOverflow = 3
)

// Page header layout (16 bytes):
//
//	[0]     type
//	[1]     flags (unused)
//	[2:4]   nCells (leaf/interior) or data length (overflow), uint16
//	[4:8]   right: interior rightmost child / overflow next page, uint32
//	[8:12]  CRC32 (IEEE) of the page with this field zeroed
//	[12:14] cell content start offset, uint16
//	[14:16] reserved
//
// A slot array of uint16 cell offsets follows at byte 16; cell bodies
// are packed from the page tail downward. A cell is a flags byte (bit 0:
// the key is spilled), then either uvarint(len) and the key bytes, or
// uvarint(len) and the uint32 first page of the key's overflow chain,
// then on an interior page the uint32 child, and on a leaf page one zero
// byte. That byte is the length of an empty value: the tree once mapped
// keys to values, no build writing AUTHDBROOT2 ever stored a non-empty
// one, and keeping the byte keeps every page file written since readable
// as it is. The decoder refuses a leaf cell whose value byte is not zero
// and any cell with a flag other than bit 0 (bit 1 marked a spilled
// value).
//
// An overflow page carries one fragment of a spilled key: every page of
// a chain is full but the last, so a chain holding a key of len bytes is
// exactly ⌈len/ovfChunk⌉ pages long.
const (
	pageHdrSize  = 16
	offType      = 0
	offNCells    = 2
	offRight     = 4
	offCRC       = 8
	offCellStart = 12
)

// maxInlineKey caps an inline key; a longer one spills to an overflow
// chain, which guarantees a leaf/interior page always fits at least two
// cells and a split always has a non-empty left and right half.
const maxInlineKey = (PageSize - pageHdrSize) / 8

// cell is one decoded slot. An inline key sets key; a spilled one sets
// keyOvf, its chain's first page, and keyLen, its total length. child
// is the subtree pointer on interior pages.
type cell struct {
	key    []byte
	keyOvf uint32
	keyLen uint32
	child  uint32
}

// node is a fully decoded page. Leaf and interior nodes carry cells;
// overflow nodes carry a data fragment and a next pointer. Decoding
// wholesale keeps the B+Tree logic free of byte offsets at the cost of
// one encode per dirty page at flush time.
type node struct {
	typ   byte
	cells []cell
	right uint32 // interior: rightmost child; overflow: next page
	data  []byte // overflow fragment
}

// cellWireSize returns the encoded size of c within typ's page.
func cellWireSize(typ byte, c *cell) int {
	n := 1 // flags
	if c.keyOvf != 0 {
		n += uvarintLen(uint64(c.keyLen)) + 4
	} else {
		n += uvarintLen(uint64(len(c.key))) + len(c.key)
	}
	if typ == pageLeaf {
		return n + 1 // the empty value
	}
	return n + 4 // child
}

func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// nodeSize returns the encoded byte size of n (header + slots + cells).
func nodeSize(n *node) int {
	if n.typ == pageOverflow {
		return pageHdrSize + len(n.data)
	}
	sz := pageHdrSize + 2*len(n.cells)
	for i := range n.cells {
		sz += cellWireSize(n.typ, &n.cells[i])
	}
	return sz
}

// encodePage renders n into a fresh PageSize buffer.
func encodePage(n *node) ([]byte, error) {
	buf := make([]byte, PageSize)
	buf[offType] = n.typ
	if n.typ == pageOverflow {
		if len(n.data) > PageSize-pageHdrSize {
			return nil, fmt.Errorf("storage: overflow fragment %d bytes exceeds page", len(n.data))
		}
		binary.LittleEndian.PutUint16(buf[offNCells:], uint16(len(n.data)))
		binary.LittleEndian.PutUint32(buf[offRight:], n.right)
		copy(buf[pageHdrSize:], n.data)
		stampCRC(buf)
		return buf, nil
	}
	if len(n.cells) > (PageSize-pageHdrSize)/2 {
		return nil, fmt.Errorf("storage: %d cells exceed page capacity", len(n.cells))
	}
	binary.LittleEndian.PutUint16(buf[offNCells:], uint16(len(n.cells)))
	binary.LittleEndian.PutUint32(buf[offRight:], n.right)
	top := PageSize
	slot := pageHdrSize
	for i := range n.cells {
		c := &n.cells[i]
		sz := cellWireSize(n.typ, c)
		top -= sz
		if top < slot+2*len(n.cells)-2*i {
			return nil, fmt.Errorf("storage: page overflow encoding cell %d", i)
		}
		binary.LittleEndian.PutUint16(buf[slot:], uint16(top))
		slot += 2
		// The flags byte of an inline key and the zero byte that ends a
		// leaf cell are already in the fresh buffer.
		p := top + 1
		if c.keyOvf != 0 {
			buf[top] = 1
			p += binary.PutUvarint(buf[p:], uint64(c.keyLen))
			binary.LittleEndian.PutUint32(buf[p:], c.keyOvf)
			p += 4
		} else {
			p += binary.PutUvarint(buf[p:], uint64(len(c.key)))
			p += copy(buf[p:], c.key)
		}
		if n.typ == pageInterior {
			binary.LittleEndian.PutUint32(buf[p:], c.child)
		}
	}
	binary.LittleEndian.PutUint16(buf[offCellStart:], uint16(top))
	stampCRC(buf)
	return buf, nil
}

func stampCRC(buf []byte) {
	binary.LittleEndian.PutUint32(buf[offCRC:], 0)
	crc := crc32.ChecksumIEEE(buf)
	binary.LittleEndian.PutUint32(buf[offCRC:], crc)
}

// decodePage parses a PageSize buffer into a node, verifying the CRC.
func decodePage(buf []byte) (*node, error) {
	if len(buf) != PageSize {
		return nil, fmt.Errorf("storage: page is %d bytes, want %d", len(buf), PageSize)
	}
	stored := binary.LittleEndian.Uint32(buf[offCRC:])
	cp := make([]byte, PageSize)
	copy(cp, buf)
	binary.LittleEndian.PutUint32(cp[offCRC:], 0)
	if got := crc32.ChecksumIEEE(cp); got != stored {
		return nil, fmt.Errorf("storage: page CRC mismatch (got %08x want %08x)", got, stored)
	}
	n := &node{typ: buf[offType], right: binary.LittleEndian.Uint32(buf[offRight:])}
	count := int(binary.LittleEndian.Uint16(buf[offNCells:]))
	switch n.typ {
	case pageOverflow:
		if count > PageSize-pageHdrSize {
			return nil, fmt.Errorf("storage: overflow length %d exceeds page", count)
		}
		n.data = append([]byte(nil), buf[pageHdrSize:pageHdrSize+count]...)
		return n, nil
	case pageLeaf, pageInterior:
	default:
		return nil, fmt.Errorf("storage: bad page type %d", n.typ)
	}
	if count > (PageSize-pageHdrSize)/2 {
		return nil, fmt.Errorf("storage: cell count %d exceeds page capacity", count)
	}
	n.cells = make([]cell, count)
	for i := 0; i < count; i++ {
		off := int(binary.LittleEndian.Uint16(buf[pageHdrSize+2*i:]))
		if off < pageHdrSize+2*count || off >= PageSize {
			return nil, fmt.Errorf("storage: cell %d offset %d out of range", i, off)
		}
		c := &n.cells[i]
		p := buf[off:]
		if len(p) < 1 {
			return nil, fmt.Errorf("storage: cell %d truncated", i)
		}
		flags := p[0]
		if flags&^1 != 0 {
			return nil, fmt.Errorf("storage: cell %d has flags %#x", i, flags)
		}
		p = p[1:]
		klen, m := binary.Uvarint(p)
		if m <= 0 {
			return nil, fmt.Errorf("storage: cell %d bad key length", i)
		}
		p = p[m:]
		if flags&1 != 0 {
			if len(p) < 4 {
				return nil, fmt.Errorf("storage: cell %d truncated key overflow", i)
			}
			c.keyOvf = binary.LittleEndian.Uint32(p)
			// No build spills a key that fits inline.
			if c.keyOvf == 0 || klen <= maxInlineKey || klen > math.MaxUint32 {
				return nil, fmt.Errorf("storage: cell %d spilled key of length %d at page %d", i, klen, c.keyOvf)
			}
			c.keyLen = uint32(klen)
			p = p[4:]
		} else {
			if uint64(len(p)) < klen || klen > PageSize {
				return nil, fmt.Errorf("storage: cell %d key length %d out of range", i, klen)
			}
			c.key = append([]byte(nil), p[:klen]...)
			p = p[klen:]
		}
		if n.typ == pageLeaf {
			if len(p) < 1 || p[0] != 0 {
				return nil, fmt.Errorf("storage: leaf cell %d holds a value", i)
			}
		} else {
			if len(p) < 4 {
				return nil, fmt.Errorf("storage: cell %d truncated child", i)
			}
			c.child = binary.LittleEndian.Uint32(p)
		}
	}
	return n, nil
}
