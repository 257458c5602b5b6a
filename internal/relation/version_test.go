package relation

import (
	"fmt"
	"sync"
	"testing"

	"authdb/internal/value"
)

func vt(vals ...int64) Tuple {
	t := make(Tuple, len(vals))
	for i, v := range vals {
		t[i] = value.Int(v)
	}
	return t
}

// tuplesOf renders a revision's tuples canonically for comparison.
func tuplesOf(r *Relation) []string {
	out := make([]string, 0, r.Len())
	for _, t := range r.Sorted() {
		s := ""
		for _, v := range t {
			s += v.String() + ","
		}
		out = append(out, s)
	}
	return out
}

func sameTuples(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestVersionedCopyOnWrite checks that every mutation publishes a
// successor revision while all previously captured heads keep exactly
// the contents they had when captured.
func TestVersionedCopyOnWrite(t *testing.T) {
	v := NewVersioned([]string{"A", "B"})

	type snap struct {
		head *Relation
		want []string
	}
	var snaps []snap
	pin := func() {
		h := v.Head()
		snaps = append(snaps, snap{head: h, want: tuplesOf(h)})
	}

	pin() // empty
	for i := int64(0); i < 20; i++ {
		ok, err := v.Insert(vt(i, i*10))
		if err != nil || !ok {
			t.Fatalf("insert %d: ok=%v err=%v", i, ok, err)
		}
		pin()
	}
	if ok, err := v.Insert(vt(3, 30)); err != nil || ok {
		t.Fatalf("duplicate insert: ok=%v err=%v (want false, nil)", ok, err)
	}
	if !v.Contains(vt(3, 30)) || v.Contains(vt(99, 0)) {
		t.Fatal("Contains disagrees with inserted membership")
	}

	preDelete := v.Head()
	if n := v.Delete(func(tp Tuple) bool { return tp[0].AsInt()%2 == 0 }); n != 10 {
		t.Fatalf("delete evens: removed %d, want 10", n)
	}
	pin()
	if v.Contains(vt(2, 20)) {
		t.Fatal("Contains still reports deleted tuple")
	}
	if preDelete.Len() != 20 {
		t.Fatalf("pre-delete head mutated: len %d, want 20", preDelete.Len())
	}

	// A delete matching nothing must leave the head pointer unchanged.
	h := v.Head()
	if n := v.Delete(func(Tuple) bool { return false }); n != 0 {
		t.Fatalf("no-op delete removed %d", n)
	}
	if v.Head() != h {
		t.Fatal("no-op delete published a new revision")
	}

	// Re-inserting a deleted tuple must succeed (membership was updated).
	if ok, err := v.Insert(vt(2, 20)); err != nil || !ok {
		t.Fatalf("re-insert after delete: ok=%v err=%v", ok, err)
	}

	for i, s := range snaps {
		if got := tuplesOf(s.head); !sameTuples(got, s.want) {
			t.Fatalf("snapshot %d changed after later mutations:\n got %v\nwant %v", i, got, s.want)
		}
	}
}

// TestVersionedOfAdoptsRelation checks that VersionedOf builds its
// membership set from the adopted revision.
func TestVersionedOfAdoptsRelation(t *testing.T) {
	r := New([]string{"X"})
	for i := int64(0); i < 5; i++ {
		if _, err := r.Insert(vt(i)); err != nil {
			t.Fatal(err)
		}
	}
	v := VersionedOf(r)
	if v.Len() != 5 || v.Arity() != 1 {
		t.Fatalf("adopted len=%d arity=%d", v.Len(), v.Arity())
	}
	if ok, _ := v.Insert(vt(3)); ok {
		t.Fatal("duplicate of adopted tuple accepted")
	}
	if ok, _ := v.Insert(vt(7)); !ok {
		t.Fatal("fresh tuple rejected")
	}
}

// TestVersionedOfAllocatesNoMap: adopting an Insert-built relation takes
// over its membership set instead of building a second one, so the only
// allocation is the Versioned itself; an Append-built relation still
// gets its set built once.
func TestVersionedOfAllocatesNoMap(t *testing.T) {
	const runs = 20
	rels := make([]*Relation, runs+1) // AllocsPerRun adds a warm-up call
	for k := range rels {
		rels[k] = New([]string{"X"})
		for i := int64(0); i < 64; i++ {
			rels[k].MustInsert(vt(i)...)
		}
	}
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		VersionedOf(rels[next])
		next++
	})
	if allocs > 1 {
		t.Fatalf("VersionedOf allocated %.0f objects, want only the Versioned", allocs)
	}
	r := New([]string{"X"})
	r.Append(vt(1))
	v := VersionedOf(r)
	if !v.Contains(vt(1)) || v.Contains(vt(2)) {
		t.Fatal("membership of an Append-built relation lost")
	}
}

// TestVersionedInsertAllocs bounds an insert by what it writes: the
// tuple's clone and the successor revision. The membership set keys on
// a hash of the values, so no key is built; amortized slice and map
// growth averages out below one allocation over the runs.
func TestVersionedInsertAllocs(t *testing.T) {
	const runs = 1000
	tuples := make([]Tuple, runs+1) // AllocsPerRun adds a warm-up call
	for i := range tuples {
		tuples[i] = Tuple{value.Int(int64(i)), value.String(fmt.Sprintf("row-%d", i)), value.Int(-7 * int64(i))}
	}
	v := NewVersioned([]string{"A", "B", "C"})
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		if added, err := v.Insert(tuples[next]); err != nil || !added {
			t.Fatalf("insert %d: added=%v err=%v", next, added, err)
		}
		next++
	})
	if allocs > 2 {
		t.Fatalf("Versioned.Insert allocated %.0f objects, want at most 2", allocs)
	}
	if dup := testing.AllocsPerRun(runs, func() { v.Insert(tuples[0]) }); dup != 0 {
		t.Fatalf("a duplicate insert allocated %.0f objects, want none", dup)
	}
}

// TestExtendsByAppend drives the lineage detector through the cases the
// closure relies on: append sharing, append with
// reallocation, deletes anywhere in the prefix, delete-then-append, and
// the empty base.
func TestExtendsByAppend(t *testing.T) {
	v := NewVersioned([]string{"A", "B"})
	empty := v.Head()
	for i := int64(0); i < 3; i++ {
		if _, err := v.Insert(vt(i, i*10)); err != nil {
			t.Fatal(err)
		}
	}
	r3 := v.Head()
	if !ExtendsByAppend(empty, r3) {
		t.Fatal("empty base must be extended by anything")
	}
	if !ExtendsByAppend(r3, r3) {
		t.Fatal("a revision extends itself")
	}

	// Many appends force at least one backing-array reallocation; the
	// storage-identity check must survive it.
	for i := int64(3); i < 40; i++ {
		if _, err := v.Insert(vt(i, i*10)); err != nil {
			t.Fatal(err)
		}
	}
	r40 := v.Head()
	if !ExtendsByAppend(r3, r40) {
		t.Fatal("pure appends (with reallocation) not detected")
	}
	if ExtendsByAppend(r40, r3) {
		t.Fatal("a shorter revision cannot extend a longer one")
	}

	// Deleting inside the old prefix breaks the extension.
	if n := v.Delete(func(tp Tuple) bool { return tp[0].Equal(value.Int(1)) }); n != 1 {
		t.Fatalf("delete removed %d", n)
	}
	afterDel := v.Head()
	if ExtendsByAppend(r3, afterDel) {
		t.Fatal("delete within the prefix reported as pure append")
	}
	// ... even after appends push the length past old's again.
	if _, err := v.Insert(vt(100, 0)); err != nil {
		t.Fatal(err)
	}
	if ExtendsByAppend(r3, v.Head()) {
		t.Fatal("delete+append reported as pure append")
	}
	// But the post-delete revision is itself a valid new base.
	if !ExtendsByAppend(afterDel, v.Head()) {
		t.Fatal("appends on the post-delete base not detected")
	}

	// Deleting only rows past the old prefix leaves old extended.
	w := NewVersioned([]string{"A", "B"})
	for i := int64(0); i < 3; i++ {
		w.Insert(vt(i, i)) //nolint:errcheck
	}
	base := w.Head()
	w.Insert(vt(50, 50)) //nolint:errcheck
	w.Insert(vt(60, 60)) //nolint:errcheck
	if n := w.Delete(func(tp Tuple) bool { return tp[0].Equal(value.Int(60)) }); n != 1 {
		t.Fatal("tail delete failed")
	}
	if !ExtendsByAppend(base, w.Head()) {
		t.Fatal("delete strictly past the prefix must keep the base extended")
	}
}

func TestSuffix(t *testing.T) {
	v := NewVersioned([]string{"A", "B"})
	for i := int64(0); i < 5; i++ {
		v.Insert(vt(i, i)) //nolint:errcheck
	}
	r := v.Head()
	s := r.Suffix(3)
	if s.Len() != 2 || !s.Tuples()[0].Equal(vt(3, 3)) || !s.Tuples()[1].Equal(vt(4, 4)) {
		t.Fatalf("suffix rows wrong: %v", s.Tuples())
	}
	if len(s.Attrs) != 2 {
		t.Fatal("suffix lost attributes")
	}
	if r.Suffix(5).Len() != 0 || r.Suffix(99).Len() != 0 || r.Suffix(-1).Len() != 5 {
		t.Fatal("suffix bounds not clamped")
	}
}

// TestVersionedArityMismatch checks the writer-side arity guard.
func TestVersionedArityMismatch(t *testing.T) {
	v := NewVersioned([]string{"A", "B"})
	if _, err := v.Insert(vt(1)); err == nil {
		t.Fatal("arity mismatch accepted")
	}
}

// TestVersionedPinnedReadersRace drives one writer (inserts and deletes
// advancing the head) against many readers pinned at whatever revision
// they captured; under -race this proves published revisions are never
// written again. Each reader verifies its revision is internally
// consistent: the same contents however many times it is re-read.
func TestVersionedPinnedReadersRace(t *testing.T) {
	v := NewVersioned([]string{"A", "B"})
	for i := int64(0); i < 64; i++ {
		if _, err := v.Insert(vt(i, i)); err != nil {
			t.Fatal(err)
		}
	}

	var mu sync.Mutex // serializes the writer role only
	heads := make(chan *Relation, 1024)
	done := make(chan struct{})

	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // writer
		defer wg.Done()
		defer close(heads)
		for i := int64(64); i < 2064; i++ {
			mu.Lock()
			if i%17 == 0 {
				v.Delete(func(tp Tuple) bool { return tp[0].AsInt() == i-60 })
			}
			v.Insert(vt(i, i)) //nolint:errcheck
			h := v.Head()
			mu.Unlock()
			select {
			case heads <- h:
			default:
			}
		}
	}()

	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for h := range heads {
				first := tuplesOf(h)
				for k := 0; k < 3; k++ {
					select {
					case <-done:
					default:
					}
					if again := tuplesOf(h); !sameTuples(first, again) {
						panic(fmt.Sprintf("pinned revision changed between reads: %d vs %d tuples", len(first), len(again)))
					}
				}
			}
		}()
	}
	wg.Wait()
	close(done)
}
