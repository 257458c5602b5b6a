package relation

import (
	"bytes"
	"encoding/csv"
	"reflect"
	"slices"
	"strings"
	"testing"

	"authdb/internal/value"
)

func vi(i int64) value.Value  { return value.Int(i) }
func vs(s string) value.Value { return value.String(s) }

func TestNewSchemaValidation(t *testing.T) {
	if _, err := NewSchema("", []string{"A"}); err == nil {
		t.Error("empty relation name accepted")
	}
	if _, err := NewSchema("R", nil); err == nil {
		t.Error("attribute-less scheme accepted")
	}
	if _, err := NewSchema("R", []string{"A", "A"}); err == nil {
		t.Error("duplicate attribute accepted")
	}
	if _, err := NewSchema("R", []string{"A", ""}); err == nil {
		t.Error("empty attribute accepted")
	}
	if _, err := NewSchema("R", []string{"A"}, "B"); err == nil {
		t.Error("key outside the scheme accepted")
	}
	s, err := NewSchema("R", []string{"A", "B"}, "B")
	if err != nil {
		t.Fatal(err)
	}
	if s.Arity() != 2 || s.AttrIndex("B") != 1 || s.AttrIndex("C") != -1 {
		t.Error("scheme accessors wrong")
	}
	if got := s.KeyAttrs(); len(got) != 1 || got[0] != "B" {
		t.Errorf("KeyAttrs = %v", got)
	}
	if s.String() != "R = (A, B)" {
		t.Errorf("String = %q", s.String())
	}
}

func TestMustSchemaPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustSchema must panic on a bad scheme")
		}
	}()
	MustSchema("R", []string{"A", "A"})
}

func TestDBSchema(t *testing.T) {
	d := NewDBSchema()
	if err := d.Add(MustSchema("R", []string{"A"})); err != nil {
		t.Fatal(err)
	}
	if err := d.Add(MustSchema("R", []string{"B"})); err == nil {
		t.Error("duplicate relation accepted")
	}
	if d.Lookup("R") == nil || d.Lookup("S") != nil {
		t.Error("Lookup wrong")
	}
	if names := d.Names(); len(names) != 1 || names[0] != "R" {
		t.Errorf("Names = %v", names)
	}
}

func TestQualification(t *testing.T) {
	q := QualifyAttrs("EMPLOYEE:2", []string{"NAME", "TITLE"})
	if q[0] != "EMPLOYEE:2.NAME" || q[1] != "EMPLOYEE:2.TITLE" {
		t.Errorf("QualifyAttrs = %v", q)
	}
	alias, attr := SplitQualified("EMPLOYEE:2.NAME")
	if alias != "EMPLOYEE:2" || attr != "NAME" {
		t.Errorf("SplitQualified = %q %q", alias, attr)
	}
	if a, b := SplitQualified("NAME"); a != "" || b != "NAME" {
		t.Errorf("SplitQualified bare = %q %q", a, b)
	}
	if BaseOfAlias("EMPLOYEE:2") != "EMPLOYEE" || BaseOfAlias("EMPLOYEE") != "EMPLOYEE" {
		t.Error("BaseOfAlias wrong")
	}
}

func TestInsertSetSemantics(t *testing.T) {
	r := New([]string{"A", "B"})
	added, err := r.Insert(Tuple{vi(1), vs("x")})
	if err != nil || !added {
		t.Fatalf("first insert: %v %v", added, err)
	}
	added, err = r.Insert(Tuple{vi(1), vs("x")})
	if err != nil || added {
		t.Fatalf("duplicate insert: %v %v", added, err)
	}
	if _, err := r.Insert(Tuple{vi(1)}); err == nil {
		t.Error("arity mismatch accepted")
	}
	if r.Len() != 1 || !r.Contains(Tuple{vi(1), vs("x")}) {
		t.Error("set semantics broken")
	}
}

func TestInsertDistinguishesKinds(t *testing.T) {
	// Int(1) and String("1") render identically but are distinct values;
	// the set index must not conflate them.
	r := New([]string{"A"})
	r.MustInsert(vi(1))
	r.MustInsert(vs("1"))
	if r.Len() != 2 {
		t.Fatalf("Len = %d, want 2 (kind-distinct tuples)", r.Len())
	}
}

func TestDelete(t *testing.T) {
	r := New([]string{"A"})
	for i := int64(0); i < 10; i++ {
		r.MustInsert(vi(i))
	}
	n := r.Delete(func(t Tuple) bool { return t[0].AsInt()%2 == 0 })
	if n != 5 || r.Len() != 5 {
		t.Fatalf("Delete removed %d, left %d", n, r.Len())
	}
	if r.Contains(Tuple{vi(2)}) || !r.Contains(Tuple{vi(3)}) {
		t.Error("Delete removed the wrong tuples")
	}
	// Deleted tuples can be reinserted.
	if added, _ := r.Insert(Tuple{vi(2)}); !added {
		t.Error("reinsert after delete failed")
	}
}

func TestCloneIsDeep(t *testing.T) {
	r := New([]string{"A"})
	r.MustInsert(vi(1))
	c := r.Clone()
	c.MustInsert(vi(2))
	if r.Len() != 1 || c.Len() != 2 {
		t.Error("Clone shares state")
	}
}

func TestProjectSelectProduct(t *testing.T) {
	r := New([]string{"A", "B"})
	r.MustInsert(vi(1), vs("x"))
	r.MustInsert(vi(2), vs("x"))
	r.MustInsert(vi(3), vs("y"))

	p := r.Project([]int{1})
	if p.Len() != 2 { // duplicates collapse
		t.Fatalf("Project len = %d, want 2", p.Len())
	}
	s := r.Select(func(t Tuple) bool { return t[1].AsString() == "x" })
	if s.Len() != 2 {
		t.Fatalf("Select len = %d, want 2", s.Len())
	}
	q := New([]string{"C"})
	q.MustInsert(vi(7))
	q.MustInsert(vi(8))
	prod := r.Product(q)
	if prod.Len() != 6 || prod.Arity() != 3 {
		t.Fatalf("Product: len=%d arity=%d", prod.Len(), prod.Arity())
	}
}

func TestEqualAndSorted(t *testing.T) {
	a := New([]string{"A"})
	b := New([]string{"A"})
	for _, i := range []int64{3, 1, 2} {
		a.MustInsert(vi(i))
	}
	for _, i := range []int64{1, 2, 3} {
		b.MustInsert(vi(i))
	}
	if !a.Equal(b) {
		t.Error("set equality must ignore insertion order")
	}
	b.MustInsert(vi(4))
	if a.Equal(b) {
		t.Error("different sets compare equal")
	}
	sorted := a.Sorted()
	for i := 1; i < len(sorted); i++ {
		if sorted[i-1].Compare(sorted[i]) >= 0 {
			t.Error("Sorted not ascending")
		}
	}
	if New([]string{"B"}).Equal(New([]string{"A"})) {
		t.Error("attribute lists must match for equality")
	}
}

// TestSortedSharesCanonicalPrefix checks that Sorted serves a relation
// already in canonical order without a copy, capped at its length: a
// caller's append then reallocates instead of writing into the backing
// array a later Versioned insert extends.
func TestSortedSharesCanonicalPrefix(t *testing.T) {
	v := VersionedOf(NewSized([]string{"A"}, 16))
	for _, i := range []int64{1, 2, 3, 4} {
		v.Insert(Tuple{vi(i)}) //nolint:errcheck // arity is correct
	}
	head := v.Head()
	got := head.Sorted()
	if len(got) != 4 || cap(got) != len(got) {
		t.Fatalf("Sorted of a canonical relation: len %d cap %d, want 4 and 4", len(got), cap(got))
	}
	if &got[0] != &head.Tuples()[0] {
		t.Fatal("Sorted copied a relation that was already in order")
	}
	got = append(got, Tuple{vi(99)})
	v.Insert(Tuple{vi(5)}) //nolint:errcheck // arity is correct
	grown := v.Head()
	if &grown.Tuples()[0] != &head.Tuples()[0] {
		t.Fatal("the insert did not extend the shared backing array; the test exercises nothing")
	}
	if x := grown.Tuples()[4]; !x.Equal(Tuple{vi(5)}) {
		t.Fatalf("the head's fifth tuple is %v after a caller appended to Sorted, want (5)", x)
	}
	if !got[4].Equal(Tuple{vi(99)}) {
		t.Fatalf("the caller's appended tuple is %v after an insert, want (99)", got[4])
	}
	if head.Len() != 4 {
		t.Fatalf("the pinned head grew to %d tuples", head.Len())
	}
}

// TestSortedOutOfOrder checks that Sorted sorts a copy of a relation out
// of order and leaves the relation's own order as it was.
func TestSortedOutOfOrder(t *testing.T) {
	r := New([]string{"A"})
	for _, i := range []int64{3, 1, 2} {
		r.MustInsert(vi(i))
	}
	got := r.Sorted()
	for i, want := range []int64{1, 2, 3} {
		if !got[i].Equal(Tuple{vi(want)}) {
			t.Fatalf("Sorted()[%d] = %v, want (%d)", i, got[i], want)
		}
	}
	for i, want := range []int64{3, 1, 2} {
		if !r.Tuples()[i].Equal(Tuple{vi(want)}) {
			t.Fatalf("Sorted reordered the relation: tuple %d is %v, want (%d)", i, r.Tuples()[i], want)
		}
	}
}

// TestCanonicalize checks that sorting in place keeps membership and the
// indexes right: Contains, Insert, an index lookup and a Versioned adopted
// afterwards all still find every tuple.
func TestCanonicalize(t *testing.T) {
	build := func() (*Relation, []Tuple) {
		r := New([]string{"A", "B"})
		var in []Tuple
		for _, i := range []int64{5, 3, 9, 1, 7} {
			tp := Tuple{vi(i), vi(i % 2)}
			r.MustInsert(tp...)
			in = append(in, tp)
		}
		return r, in
	}
	r, in := build()
	if n := len(r.LookupEq(1, vi(1))); n != 5 {
		t.Fatalf("index lookup before Canonicalize found %d tuples, want 5", n)
	}
	r.Canonicalize()
	if !slices.IsSortedFunc(r.Tuples(), Tuple.Compare) {
		t.Fatalf("Canonicalize left %v out of order", r.Tuples())
	}
	// Same length, so only Canonicalize's invalidation rebuilds the index.
	hits := r.LookupEq(1, vi(1))
	if len(hits) != 5 || !slices.IsSortedFunc(hits, Tuple.Compare) {
		t.Fatalf("index lookup after Canonicalize = %v, want the 5 odd tuples in order", hits)
	}
	for _, tp := range in {
		if !r.Contains(tp) {
			t.Fatalf("Contains(%v) false after Canonicalize", tp)
		}
	}
	if ok, _ := r.Insert(in[2]); ok {
		t.Fatal("Insert admitted a duplicate after Canonicalize")
	}
	if ok, _ := r.Insert(Tuple{vi(4), vi(0)}); !ok || !r.Contains(Tuple{vi(4), vi(0)}) {
		t.Fatal("Insert of a new tuple after Canonicalize was lost")
	}

	r, in = build()
	r.Canonicalize()
	v := VersionedOf(r)
	for _, tp := range in {
		if !v.Contains(tp) {
			t.Fatalf("VersionedOf(...).Contains(%v) false after Canonicalize", tp)
		}
	}
	if ok, _ := v.Insert(in[0]); ok {
		t.Fatal("Versioned insert admitted a duplicate after Canonicalize")
	}
}

func TestAttrIndexSuffixFallback(t *testing.T) {
	r := New([]string{"EMPLOYEE.NAME", "PROJECT.NAME", "PROJECT.BUDGET"})
	if r.AttrIndex("PROJECT.BUDGET") != 2 {
		t.Error("exact lookup failed")
	}
	if r.AttrIndex("BUDGET") != 2 {
		t.Error("unambiguous bare lookup failed")
	}
	if r.AttrIndex("NAME") != -1 {
		t.Error("ambiguous bare lookup must fail")
	}
}

func TestRename(t *testing.T) {
	r := New([]string{"A"})
	r.MustInsert(vi(1))
	renamed := r.Rename([]string{"X.A"})
	if renamed.Attrs[0] != "X.A" || renamed.Len() != 1 {
		t.Error("Rename wrong")
	}
	defer func() {
		if recover() == nil {
			t.Error("Rename with wrong arity must panic")
		}
	}()
	r.Rename([]string{"A", "B"})
}

func TestTupleCompare(t *testing.T) {
	a := Tuple{vi(1), vs("a")}
	b := Tuple{vi(1), vs("b")}
	if a.Compare(b) >= 0 || b.Compare(a) <= 0 || a.Compare(a) != 0 {
		t.Error("lexicographic compare wrong")
	}
	short := Tuple{vi(1)}
	if short.Compare(a) >= 0 {
		t.Error("shorter tuple must order first on equal prefix")
	}
	if !a.Equal(a.Clone()) || a.Equal(b) {
		t.Error("Equal wrong")
	}
}

func TestRender(t *testing.T) {
	r := New([]string{"EMPLOYEE.NAME", "EMPLOYEE.SALARY"})
	r.MustInsert(vs("Jones"), vi(26000))
	var b bytes.Buffer
	r.Render(&b, "EMPLOYEE")
	out := b.String()
	for _, want := range []string{"EMPLOYEE", "NAME", "SALARY", "Jones", "26000"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "EMPLOYEE.NAME") {
		t.Error("short mode must strip qualifiers")
	}
}

// TestCSVRoundTrip reads WriteCSV's output back with a standard CSV
// reader: a header row, then one record per tuple in Sorted order,
// each field the value's text and a null an empty field.
func TestCSVRoundTrip(t *testing.T) {
	r := New([]string{"A", "B", "C"})
	r.MustInsert(vi(2), vs("bq-45"), vi(-7))
	r.MustInsert(vi(1), vs("Acme, Inc."), value.Null())
	var buf bytes.Buffer
	if err := r.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	want := [][]string{{"A", "B", "C"}, {"1", "Acme, Inc.", ""}, {"2", "bq-45", "-7"}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("records = %q, want %q", got, want)
	}
}
