package storage

import (
	"bytes"
	"path/filepath"
	"testing"

	"authdb/internal/faultfs"
	"authdb/internal/value"
)

// FuzzPageDecode throws arbitrary page images at decodePage: it must
// never panic, and any image it accepts must re-encode to a node that
// decodes identically (the round-trip invariant crash recovery relies
// on). Seeds cover every page type, overflow-spilled cells, and torn /
// bit-flipped images.
func FuzzPageDecode(f *testing.F) {
	seed := []*node{
		{typ: pageLeaf},
		{typ: pageLeaf, cells: []cell{{key: []byte("alpha"), val: []byte("1")}, {key: []byte("beta")}}},
		{typ: pageLeaf, cells: []cell{{keyOvf: 2, keyLen: 600, valOvf: 3, valLen: 8192}}},
		{typ: pageInterior, right: 9, cells: []cell{{key: []byte("m"), child: 4}}},
		{typ: pageOverflow, right: 0, data: bytes.Repeat([]byte("ov"), 100)},
	}
	for _, n := range seed {
		buf, err := encodePage(n)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(buf)
		// A torn image (half the page) and a corrupted byte.
		torn := make([]byte, PageSize)
		copy(torn, buf[:PageSize/2])
		f.Add(torn)
		flip := append([]byte(nil), buf...)
		flip[37] ^= 0x10
		f.Add(flip)
	}
	f.Add(make([]byte, PageSize))
	f.Add([]byte("short"))

	f.Fuzz(func(t *testing.T, data []byte) {
		n, err := decodePage(data)
		if err != nil {
			return
		}
		buf, err := encodePage(n)
		if err != nil {
			t.Fatalf("accepted page fails to re-encode: %v", err)
		}
		n2, err := decodePage(buf)
		if err != nil {
			t.Fatalf("re-encoded page fails to decode: %v", err)
		}
		if n2.typ != n.typ || n2.right != n.right || len(n2.cells) != len(n.cells) || !bytes.Equal(n2.data, n.data) {
			t.Fatal("page round trip not stable")
		}
	})
}

// FuzzParseRoot throws arbitrary ROOT text at Open over a real page
// file: every input must open a store or fail with an error, never
// panic, and a store it opens must never allocate the header page, a
// tree root, or one page twice. Seeds are the ROOT of a store with a
// relation and a freed page, which carries every line kind, lines cut
// down to their keyword, and a ROOT of the earlier format.
func FuzzParseRoot(f *testing.F) {
	path := filepath.Join(f.TempDir(), PagesFileName)
	s, err := Create(faultfs.OS(), path, 8)
	if err != nil {
		f.Fatal(err)
	}
	defer s.Close()
	if err := s.CreateRelation("R", 2); err != nil {
		f.Fatal(err)
	}
	tup := []value.Value{value.Int(1), value.String("a")}
	if err := s.InsertTuple("R", tup); err != nil {
		f.Fatal(err)
	}
	if _, err := s.Flush(); err != nil {
		f.Fatal(err)
	}
	s.Commit()
	if err := s.DeleteTuple("R", tup); err != nil {
		f.Fatal(err)
	}
	if err := s.InsertTuple("R", tup); err != nil {
		f.Fatal(err)
	}
	if _, err := s.Flush(); err != nil {
		f.Fatal(err)
	}
	f.Add(s.RenderRoot())
	for _, word := range []string{"npages", "pagesize", "table", "free"} {
		f.Add([]byte(rootMagic + "\n" + word + "\n"))
	}
	f.Add([]byte(""))
	f.Add([]byte(rootMagic + "\nnpages 0\n"))
	f.Add([]byte(rootMagic + "\nnpages 3\nfree 0 2\ntable R 2 1\n"))
	f.Add([]byte(rootMagic + "\nnpages 4294967295\n"))
	f.Add([]byte(rootMagicV1 + "\npagesize 4096\nnpages 2\nviewseq 0\ncatalog 0\ntable R 2 1 0 0\n"))

	f.Fuzz(func(t *testing.T, root []byte) {
		re, err := Open(faultfs.OS(), path, root, 8)
		if err != nil {
			return
		}
		defer re.Close()
		taken := map[uint32]bool{0: true}
		for _, tb := range re.tables {
			taken[tb.tree.root] = true
		}
		_, free := re.pg.allocSnapshot()
		// A budget above the allocations keeps every new page cached, so
		// nothing is written to the shared page file.
		re.pg.budget = len(free) + 8
		for range len(free) + 2 {
			no, err := re.pg.Alloc(&node{typ: pageLeaf})
			if err != nil {
				return
			}
			if taken[no] {
				t.Fatalf("ROOT %q: Alloc handed out page %d, already in use", root, no)
			}
			taken[no] = true
		}
	})
}

// FuzzTupleCodec holds the tuple codec to its two promises: a tuple
// decTuple accepts re-encodes to exactly the bytes it came from (the
// encoding is canonical, so one tree key names one tuple), and the byte
// order of two decoded tuples is their value order — value by value,
// a proper prefix first — so a B+Tree's key order is the relation's.
// Seeds are the encodings of tuples covering every value kind, strings
// with embedded and trailing 0x00 and 0xFF, and tuples one of which is
// a prefix of the other.
func FuzzTupleCodec(f *testing.F) {
	tuples := [][]value.Value{
		{},
		{value.Null()},
		{value.Null(), value.Null()},
		{value.Int(-1 << 63), value.Int(0)},
		{value.Int(7), value.String("x\x00y"), value.Null()},
		{value.String("a")},
		{value.String("a\x00"), value.Int(1)},
		{value.String("a\x00\xff"), value.String("")},
		{value.String("\xff"), value.Int(1<<63 - 1)},
	}
	for i, a := range tuples {
		b := tuples[(i+1)%len(tuples)]
		f.Add(encTuple(a), encTuple(b), uint8(len(a)), uint8(len(b)))
	}
	f.Add([]byte{tagString, 'a'}, []byte{tagInt, 1}, uint8(1), uint8(1))
	f.Add([]byte{0x07}, []byte{tagNull, tagNull}, uint8(1), uint8(1))

	decode := func(t *testing.T, b []byte, arity uint8) ([]value.Value, bool) {
		vs, err := decTuple(b, int(arity%8))
		if err != nil {
			return nil, false
		}
		if re := encTuple(vs); !bytes.Equal(re, b) {
			t.Fatalf("%x decodes to %v, which re-encodes to %x", b, vs, re)
		}
		return vs, true
	}
	f.Fuzz(func(t *testing.T, a, b []byte, arityA, arityB uint8) {
		ta, okA := decode(t, a, arityA)
		tb, okB := decode(t, b, arityB)
		if !okA || !okB {
			return
		}
		if got, want := sign(bytes.Compare(a, b)), compareTuples(ta, tb); got != want {
			t.Fatalf("bytes order %d, value order %d: %v vs %v", got, want, ta, tb)
		}
	})
}

// compareTuples orders tuples value by value, a proper prefix first.
func compareTuples(a, b []value.Value) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if c := a[i].Compare(b[i]); c != 0 {
			return sign(c)
		}
	}
	return sign(len(a) - len(b))
}

func sign(n int) int {
	switch {
	case n < 0:
		return -1
	case n > 0:
		return 1
	}
	return 0
}
