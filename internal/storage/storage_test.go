package storage

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"authdb/internal/faultfs"
	"authdb/internal/value"
)

func TestValueCodecRoundTripAndOrder(t *testing.T) {
	vals := []value.Value{
		value.Null(),
		value.Int(-1 << 62), value.Int(-1), value.Int(0), value.Int(1), value.Int(1 << 62),
		value.String(""), value.String("a"), value.String("a\x00b"), value.String("a\x00\xffb"),
		value.String("ab"), value.String("b"), value.String("ü"),
	}
	var prev []byte
	for i, v := range vals {
		enc := encValue(nil, v)
		got, rest, err := decValue(enc)
		if err != nil || len(rest) != 0 {
			t.Fatalf("decValue(%v): %v (rest %d)", v, err, len(rest))
		}
		if got.Compare(v) != 0 {
			t.Fatalf("round trip %v -> %v", v, got)
		}
		if i > 0 && vals[i-1].Compare(v) < 0 && bytes.Compare(prev, enc) >= 0 {
			t.Fatalf("encoding not order-preserving at %v < %v", vals[i-1], v)
		}
		prev = enc
	}
	tup := []value.Value{value.Int(7), value.String("x\x00y"), value.Null()}
	dec, err := decTuple(encTuple(tup), 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range tup {
		if dec[i].Compare(tup[i]) != 0 {
			t.Fatalf("tuple round trip: %v -> %v", tup, dec)
		}
	}
}

func TestPageRoundTrip(t *testing.T) {
	nodes := []*node{
		{typ: pageLeaf},
		{typ: pageLeaf, cells: []cell{{key: []byte("k")}, {key: []byte("k2")}}},
		{typ: pageLeaf, cells: []cell{{keyOvf: 9, keyLen: 5000}}},
		{typ: pageInterior, right: 44, cells: []cell{{key: []byte("m"), child: 7}, {keyOvf: 3, keyLen: 600, child: 8}}},
		{typ: pageOverflow, right: 5, data: bytes.Repeat([]byte{0xAB}, ovfChunk)},
	}
	for i, n := range nodes {
		buf, err := encodePage(n)
		if err != nil {
			t.Fatalf("node %d: encode: %v", i, err)
		}
		got, err := decodePage(buf)
		if err != nil {
			t.Fatalf("node %d: decode: %v", i, err)
		}
		if got.typ != n.typ || got.right != n.right || len(got.cells) != len(n.cells) || !bytes.Equal(got.data, n.data) {
			t.Fatalf("node %d: round trip mismatch", i)
		}
		for j := range n.cells {
			a, b := n.cells[j], got.cells[j]
			if !bytes.Equal(a.key, b.key) || a.keyOvf != b.keyOvf || a.keyLen != b.keyLen || a.child != b.child {
				t.Fatalf("node %d cell %d mismatch: %+v vs %+v", i, j, a, b)
			}
		}
	}
}

// rawLeaf builds a CRC-valid leaf page image holding one cell whose
// body is given byte for byte.
func rawLeaf(body []byte) []byte {
	buf := make([]byte, PageSize)
	top := PageSize - len(body)
	buf[offType] = pageLeaf
	binary.LittleEndian.PutUint16(buf[offNCells:], 1)
	binary.LittleEndian.PutUint16(buf[pageHdrSize:], uint16(top))
	binary.LittleEndian.PutUint16(buf[offCellStart:], uint16(top))
	copy(buf[top:], body)
	stampCRC(buf)
	return buf
}

// spilledKeyCell is the body of a leaf cell whose key of klen bytes
// spilled to the overflow chain at page no.
func spilledKeyCell(klen uint64, no uint32) []byte {
	b := binary.AppendUvarint([]byte{1}, klen)
	b = binary.LittleEndian.AppendUint32(b, no)
	return append(b, 0)
}

// badLeafCells are CRC-valid leaf cells that no build writes: a value
// (a non-zero byte after the key, or flag bit 1 marking a spilled one)
// and spilled keys at page 0, that fit inline, or past 4 GiB.
var badLeafCells = []struct {
	name string
	body []byte
}{
	{"a value byte", []byte{0, 3, 'a', 'b', 'c', 1, 'v'}},
	{"a spilled value", []byte{2, 3, 'a', 'b', 'c', 0}},
	{"a spilled key at page 0", spilledKeyCell(600, 0)},
	{"a spilled key that fits inline", spilledKeyCell(maxInlineKey, 5)},
	{"a spilled key over 4 GiB", spilledKeyCell(1<<32, 5)},
}

func TestPageDecodeRejectsCorruption(t *testing.T) {
	buf, err := encodePage(&node{typ: pageLeaf, cells: []cell{{key: []byte("abc")}}})
	if err != nil {
		t.Fatal(err)
	}
	// A leaf cell is flags, key length, key, and a zero byte: the empty
	// value every page file ever written carries.
	if want := rawLeaf([]byte{0, 3, 'a', 'b', 'c', 0}); !bytes.Equal(buf, want) {
		t.Fatal("a leaf cell no longer encodes as flags, key length, key and a zero byte")
	}
	// A torn write: only half the page made it to disk.
	torn := make([]byte, PageSize)
	copy(torn, buf[:PageSize/2])
	if _, err := decodePage(torn); err == nil {
		t.Fatal("decodePage accepted a torn page")
	}
	// A single flipped bit anywhere must fail the CRC.
	flip := append([]byte(nil), buf...)
	flip[PageSize-1] ^= 0x40
	if _, err := decodePage(flip); err == nil {
		t.Fatal("decodePage accepted a bit flip")
	}
	if _, err := decodePage(rawLeaf(spilledKeyCell(maxInlineKey+1, 5))); err != nil {
		t.Fatalf("decodePage refused a spilled key: %v", err)
	}
	for _, bad := range badLeafCells {
		if _, err := decodePage(rawLeaf(bad.body)); err == nil {
			t.Errorf("decodePage accepted a leaf cell with %s", bad.name)
		}
	}
}

func newTestStore(t *testing.T, cachePages int) (*Store, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), PagesFileName)
	s, err := Create(faultfs.OS(), path, cachePages)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s, path
}

// checkpoint simulates the engine's checkpoint: flush, render ROOT,
// commit; then reopens the store from that ROOT.
func checkpointReopen(t *testing.T, s *Store, path string, cachePages int) *Store {
	t.Helper()
	if _, err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	root := s.RenderRoot()
	s.Commit()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(faultfs.OS(), path, root, cachePages)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { re.Close() })
	return re
}

// TestTreeRandomOps drives a B+Tree against a set reference with big
// and small keys (forcing overflow chains and spilled separators),
// under a cache budget far below the working set, with periodic
// checkpoint+reopen cycles.
func TestTreeRandomOps(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s, path := newTestStore(t, 16)
	tr := &Tree{pg: s.pg}
	ref := map[string]bool{}
	randKey := func() string {
		if rng.Intn(20) == 0 {
			return fmt.Sprintf("big-%04d-%s", rng.Intn(300), bytes.Repeat([]byte{'k'}, maxInlineKey+100))
		}
		return fmt.Sprintf("k-%05d", rng.Intn(3000))
	}
	scan := func() []string {
		t.Helper()
		var keys []string
		if err := tr.Scan(func(k []byte) error {
			keys = append(keys, string(k))
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return keys
	}
	verify := func() {
		t.Helper()
		keys := scan()
		for i, k := range keys {
			if i > 0 && keys[i-1] >= k {
				t.Fatalf("scan out of order: %.20q after %.20q", k, keys[i-1])
			}
			if !ref[k] {
				t.Fatalf("scan yields %.20q, which is not in the set", k)
			}
		}
		if len(keys) != len(ref) {
			t.Fatalf("tree has %d keys, reference %d", len(keys), len(ref))
		}
	}
	for i := 0; i < 6000; i++ {
		k := randKey()
		switch rng.Intn(10) {
		case 0, 1, 2:
			if err := tr.Delete([]byte(k)); err != nil {
				t.Fatalf("op %d: delete: %v", i, err)
			}
			delete(ref, k)
		default:
			if err := tr.Insert([]byte(k)); err != nil {
				t.Fatalf("op %d: insert: %v", i, err)
			}
			ref[k] = true
		}
		if i%1500 == 1499 {
			verify()
			// Inserting every key already present leaves the set alone.
			before := scan()
			for _, k := range before {
				if err := tr.Insert([]byte(k)); err != nil {
					t.Fatalf("op %d: insert present key: %v", i, err)
				}
			}
			if after := scan(); !slices.Equal(after, before) {
				t.Fatalf("op %d: inserting present keys changed the scan from %d to %d keys", i, len(before), len(after))
			}
			// Checkpoint + reopen: the tree must survive on only ROOT
			// state, and freed pages must recycle without corruption.
			root := tr.root
			s = checkpointReopen(t, s, path, 16)
			tr = &Tree{pg: s.pg, root: root}
			verify()
		}
	}
	verify()
	st := s.Stats()
	if st.Evictions == 0 {
		t.Fatalf("expected evictions under a 16-page budget, stats %+v", st)
	}
	if st.Cached > 3*16 {
		t.Fatalf("cache grew far past budget: %+v", st)
	}
}

// TestOverflowChainCycle links the last page of a spilled key's
// overflow chain to itself on disk, behind a valid CRC: reading the key
// and deleting it must fail with an error, not follow the chain for
// ever. The deadline turns a walk that does not stop into a failure
// instead of a hang; the looping page holds one byte, so such a walk
// grows its buffer slowly.
func TestOverflowChainCycle(t *testing.T) {
	key := bytes.Repeat([]byte{'k'}, ovfChunk+1)
	for _, tc := range []struct {
		name string
		op   func(tr *Tree) error
	}{
		{"scan", func(tr *Tree) error { return tr.Scan(func([]byte) error { return nil }) }},
		{"delete", func(tr *Tree) error { return tr.Delete(key) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, path := newTestStore(t, 16)
			tr := &Tree{pg: s.pg}
			if err := tr.Insert(key); err != nil {
				t.Fatal(err)
			}
			if _, err := s.Flush(); err != nil {
				t.Fatal(err)
			}
			leaf, err := s.pg.Get(tr.root)
			if err != nil {
				t.Fatal(err)
			}
			first, err := s.pg.Get(leaf.cells[0].keyOvf)
			if err != nil {
				t.Fatal(err)
			}
			last := first.right
			buf, err := encodePage(&node{typ: pageOverflow, data: key[ovfChunk:], right: last})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.pg.file.WriteAt(buf, int64(last)*PageSize); err != nil {
				t.Fatal(err)
			}
			root := tr.root
			s = checkpointReopen(t, s, path, 16)
			tr = &Tree{pg: s.pg, root: root}
			done := make(chan error, 1)
			go func() { done <- tc.op(tr) }()
			select {
			case err := <-done:
				if err == nil || !strings.Contains(err.Error(), "runs past") {
					t.Fatalf("%s over a cyclic overflow chain: %v", tc.name, err)
				}
			case <-time.After(2 * time.Second):
				t.Fatalf("%s over a cyclic overflow chain did not stop", tc.name)
			}
		})
	}
}

// TestShadowPreservesCommittedTree checks the shadow-paging invariant
// directly: after a flush+commit, further mutations must not alter any
// committed page, so re-opening from the old ROOT sees the old tree.
func TestShadowPreservesCommittedTree(t *testing.T) {
	s, path := newTestStore(t, 64)
	if err := s.CreateRelation("R", 2); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		if err := s.InsertTuple("R", []value.Value{value.Int(int64(i)), value.String(fmt.Sprintf("row%d", i))}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	oldRoot := s.RenderRoot()
	s.Commit()

	// Mutate heavily: deletes, inserts, a second relation.
	for i := 0; i < 500; i += 2 {
		if err := s.DeleteTuple("R", []value.Value{value.Int(int64(i)), value.String(fmt.Sprintf("row%d", i))}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.CreateRelation("S", 1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if err := s.InsertTuple("S", []value.Value{value.Int(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// The OLD root must still describe a fully intact tree.
	old, err := Open(faultfs.OS(), path, oldRoot, 64)
	if err != nil {
		t.Fatal(err)
	}
	defer old.Close()
	count := 0
	if err := old.ScanRelation("R", func(vs []value.Value) error {
		if vs[1].AsString() != fmt.Sprintf("row%d", vs[0].AsInt()) {
			return fmt.Errorf("corrupt tuple %v", vs)
		}
		count++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if count != 500 {
		t.Fatalf("old root sees %d rows, want 500", count)
	}
	if got := old.Relations(); len(got) != 1 || got[0] != "R" {
		t.Fatalf("old root sees relations %v", got)
	}
}

// TestStoreDeleteTuple deletes by key: present tuples go, absent ones
// and a second delete are no-ops, a wrong arity is refused, and the
// survivors come back in key order after a checkpoint and reopen.
func TestStoreDeleteTuple(t *testing.T) {
	s, path := newTestStore(t, 32)
	if err := s.CreateRelation("EMP", 3); err != nil {
		t.Fatal(err)
	}
	emp := func(i int) []value.Value {
		return []value.Value{value.String(fmt.Sprintf("e%03d", i)), value.String(fmt.Sprintf("d%d", i%7)), value.Int(int64(1000 + i))}
	}
	for i := 0; i < 100; i++ {
		if err := s.InsertTuple("EMP", emp(i)); err != nil {
			t.Fatal(err)
		}
	}
	deleted := 0
	for i := 0; i < 100; i++ {
		if i%7 != 3 {
			continue
		}
		for range 2 {
			if err := s.DeleteTuple("EMP", emp(i)); err != nil {
				t.Fatal(err)
			}
		}
		deleted++
	}
	if err := s.DeleteTuple("EMP", emp(1000)); err != nil {
		t.Fatalf("deleting an absent tuple: %v", err)
	}
	if err := s.DeleteTuple("EMP", emp(1)[:2]); err == nil {
		t.Fatal("DeleteTuple accepted a tuple of the wrong arity")
	}
	if err := s.DeleteTuple("NOPE", emp(1)); err == nil {
		t.Fatal("DeleteTuple accepted an unknown relation")
	}

	re := checkpointReopen(t, s, path, 32)
	var rows []string
	if err := re.ScanRelation("EMP", func(vs []value.Value) error {
		if vs[1].AsString() == "d3" {
			return fmt.Errorf("d3 row survived: %v", vs)
		}
		rows = append(rows, vs[0].AsString())
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(rows) != 100-deleted {
		t.Fatalf("%d rows after reopen, want %d", len(rows), 100-deleted)
	}
	if !sort.StringsAreSorted(rows) {
		t.Fatal("scan not in key order")
	}
}

// TestResetKeepsCommittedPages rebuilds a committed store from scratch
// and flushes without committing, as a checkpoint that fails after its
// page flush does: the committed ROOT must still open to its own rows,
// because the rebuild allocates above every page that ROOT can reach.
func TestResetKeepsCommittedPages(t *testing.T) {
	s, path := newTestStore(t, 16)
	fill := func(rel, prefix string, n int) {
		t.Helper()
		if err := s.CreateRelation(rel, 1); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if err := s.InsertTuple(rel, []value.Value{value.String(fmt.Sprintf("%s%04d", prefix, i))}); err != nil {
				t.Fatal(err)
			}
		}
	}
	fill("R", "old", 400)
	if _, err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	oldRoot := s.RenderRoot()
	s.Commit()

	s.Reset()
	fill("R", "new", 400)
	if _, err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	old, err := Open(faultfs.OS(), path, oldRoot, 16)
	if err != nil {
		t.Fatal(err)
	}
	defer old.Close()
	n := 0
	if err := old.ScanRelation("R", func(vs []value.Value) error {
		if want := fmt.Sprintf("old%04d", n); vs[0].AsString() != want {
			return fmt.Errorf("row %d is %v, want %s", n, vs[0], want)
		}
		n++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if n != 400 {
		t.Fatalf("committed root sees %d rows, want 400", n)
	}
}

// TestParseRootRejects feeds Open ROOT texts that would hand out the
// header page or one page twice, or that come from the earlier format.
func TestParseRootRejects(t *testing.T) {
	s, path := newTestStore(t, 8)
	if err := s.CreateRelation("R", 1); err != nil {
		t.Fatal(err)
	}
	if err := s.InsertTuple("R", []value.Value{value.Int(1)}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	good := string(s.RenderRoot())
	if good != rootMagic+"\npagesize 4096\nnpages 2\ntable R 1 1\n" {
		t.Fatalf("unexpected ROOT %q", good)
	}
	if re, err := Open(faultfs.OS(), path, []byte(good), 8); err != nil {
		t.Fatalf("valid ROOT refused: %v", err)
	} else {
		re.Close()
	}
	head := rootMagic + "\npagesize 4096\nnpages 4\n"
	for _, tc := range []struct{ name, root, want string }{
		{"free header page", head + "free 0\n", "free page 0 outside"},
		{"free past npages", head + "free 4\n", "free page 4 outside"},
		{"free twice", head + "free 2 3 2\n", "free page 2 twice"},
		{"root past npages", head + "table R 1 4\n", "tree root 4"},
		{"root on the free list", head + "free 3\ntable R 1 3\n", "tree root 3"},
		{"table twice", head + "table R 1 1\ntable R 1 2\n", "table R twice"},
		{"two roots on a table", head + "table R 1 1 2\n", "bad ROOT table line"},
		{"version 1", "AUTHDBROOT1\npagesize 4096\nnpages 4\nviewseq 0\ncatalog 1\ntable R 1 2 3\n", "passing -storage memory, which writes its tuples as CSV; then open it once with a build at or before a7a3ef6"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			re, err := Open(faultfs.OS(), path, []byte(tc.root), 8)
			if err == nil {
				re.Close()
				t.Fatalf("Open accepted %q", tc.root)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}
