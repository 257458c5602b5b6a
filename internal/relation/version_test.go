package relation

import (
	"fmt"
	"slices"
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
	r := NewDistinct([]string{"X"}, ints(0, 1, 2, 3, 4))
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

// FuzzVersionedLineage checks ExtendsByAppend against a model of the
// writes a Versioned took. Each byte of ops is one step: c%4 selects an
// insert (c/4 < 32: a new row, else row number c/4-32 of those made so
// far, present or deleted), a delete (c/4 < 32: the row at position
// c/4, else every row whose A is c/4 mod 4), an insert of a row at a
// position of the head, always a duplicate, or keeping the current
// head. After every step, for each kept
// head o and the current head h, ExtendsByAppend(o, h) must hold exactly
// when no delete since o was kept removed one of o's rows, and then h's
// first o.Len() tuples must be o's, in order.
func FuzzVersionedLineage(f *testing.F) {
	const keep, insert, delRow1, delRow4 = 3, 0, 1 + 4*1, 1 + 4*4
	appends := func(n int) []byte { return make([]byte, n) } // n inserts
	cat := func(parts ...[]byte) []byte {
		var out []byte
		for _, p := range parts {
			out = append(out, p...)
		}
		return out
	}
	// TestExtendsByAppend's cases: the empty base, appends with
	// reallocation, a delete inside the prefix then appends, and a delete
	// strictly past a kept prefix.
	f.Add(cat([]byte{keep}, appends(3), []byte{keep}, appends(37), []byte{keep, delRow1, keep, insert, keep}))
	f.Add(cat(appends(3), []byte{keep, insert, insert, delRow4, keep}))
	f.Add([]byte{insert, insert, keep, 1 + 4*1, 4 * 33, keep, 2 + 4*5, insert}) // a stamped row deleted, then inserted again
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 512 {
			ops = ops[:512]
		}
		type kept struct {
			head   *Relation
			rows   []Tuple // head's tuples when kept
			broken bool    // a delete since removed one of rows
		}
		v := NewVersioned([]string{"A", "B"})
		var heads []*kept
		next := int64(0)
		for step, c := range ops {
			arg := int(c / 4)
			h := v.Head()
			switch c % 4 {
			case 0:
				k := next
				if arg >= 32 && next > 0 {
					k = int64(arg-32) % next
				}
				row := vt(k, 10*k)
				present := v.Contains(row)
				if added, err := v.Insert(row); err != nil || added == present {
					t.Fatalf("step %d: inserting %v, present %v, added %v (%v)", step, row, present, added, err)
				}
				next = max(next, k+1)
			case 1:
				var pred func(Tuple) bool
				if arg < 32 {
					if h.Len() == 0 {
						continue
					}
					victim := h.Tuples()[arg%h.Len()]
					pred = victim.Equal
				} else {
					pred = func(tp Tuple) bool { return tp[0].AsInt()%4 == int64(arg%4) }
				}
				want := h.Len() - h.Select(pred).Len()
				v.Delete(pred)
				if v.Len() != want {
					t.Fatalf("step %d: delete left %d rows, want %d", step, v.Len(), want)
				}
				// A kept row the predicate takes is gone now, or went
				// since its head was kept.
				for _, k := range heads {
					for _, r := range k.rows {
						k.broken = k.broken || pred(r)
					}
				}
			case 2:
				if h.Len() == 0 {
					continue
				}
				if added, err := v.Insert(h.Tuples()[arg%h.Len()]); err != nil || added {
					t.Fatalf("step %d: a duplicate insert added %v (%v)", step, added, err)
				}
				if v.Head() != h {
					t.Fatalf("step %d: a duplicate insert moved the head", step)
				}
			case 3:
				heads = append(heads, &kept{head: h, rows: append([]Tuple(nil), h.Tuples()...)})
			}
			h = v.Head()
			for i, k := range heads {
				if !slices.EqualFunc(k.head.Tuples(), k.rows, Tuple.Equal) {
					t.Fatalf("step %d: kept head %d changed", step, i)
				}
				if got := ExtendsByAppend(k.head, h); got != !k.broken {
					t.Fatalf("step %d: ExtendsByAppend(head %d, current) = %v, want %v", step, i, got, !k.broken)
				}
				if !k.broken && !slices.EqualFunc(h.Tuples()[:len(k.rows)], k.rows, Tuple.Equal) {
					t.Fatalf("step %d: the current head does not begin with kept head %d", step, i)
				}
			}
		}
	})
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
// advancing the head, the inserts appending into the backing array the
// pinned heads share) against many readers pinned at whatever revision
// they captured; under -race this proves published revisions are never
// written again. Each reader calls every read method on its revision,
// directly and through a Rename and a Suffix, and checks that the
// revision reads the same however many times it is read.
func TestVersionedPinnedReadersRace(t *testing.T) {
	v := NewVersioned([]string{"A", "B"})
	for i := int64(0); i < 64; i++ {
		if _, err := v.Insert(vt(i, i%7)); err != nil {
			t.Fatal(err)
		}
	}

	var mu sync.Mutex // serializes the writer role only
	heads := make(chan *Relation, 1024)

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
			v.Insert(vt(i, i%7)) //nolint:errcheck
			h := v.Head()
			mu.Unlock()
			select {
			case heads <- h:
			default:
			}
		}
	}()

	// reads renders what every read method returns for r.
	reads := func(r *Relation) []string {
		out := tuplesOf(r)
		for k := int64(0); k < 7; k++ {
			out = append(out, fmt.Sprint(len(r.LookupEq(1, value.Int(k)))))
		}
		lo, hi := &RangeEnd{V: value.Int(10)}, &RangeEnd{V: value.Int(900), Open: true}
		for _, tp := range r.LookupRange(0, lo, hi) {
			out = append(out, tp[0].String())
		}
		return append(out, fmt.Sprint(r.DistinctCount(0), r.DistinctCount(1)))
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for h := range heads {
				views := []*Relation{h, h.Rename([]string{"X.A", "X.B"}), h.Suffix(h.Len() / 2)}
				for _, view := range views {
					first := reads(view)
					for k := 0; k < 2; k++ {
						if again := reads(view); !slices.Equal(first, again) {
							panic(fmt.Sprintf("pinned revision changed between reads: %d vs %d results", len(first), len(again)))
						}
					}
				}
				if want := tuplesOf(h); !slices.Equal(tuplesOf(views[1]), want) {
					panic("a rename reads other tuples than its revision")
				}
			}
		}()
	}
	wg.Wait()
}
