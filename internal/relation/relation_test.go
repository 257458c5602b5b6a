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

// build returns a relation over attrs holding the distinct ones of
// tuples in first-occurrence order, built through a Set.
func build(attrs []string, tuples ...Tuple) *Relation {
	s := NewSet(attrs, len(tuples))
	for _, t := range tuples {
		s.Add(t)
	}
	return s.Relation()
}

// ints returns one single-attribute tuple per value.
func ints(vals ...int64) []Tuple {
	out := make([]Tuple, len(vals))
	for i, v := range vals {
		out[i] = Tuple{vi(v)}
	}
	return out
}

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

// TestInsertSetSemantics checks the builder: Add keeps a row once, in
// first-occurrence order, Find and Contains see what it kept, and the
// relation handed over is left as it is by later Adds.
func TestInsertSetSemantics(t *testing.T) {
	s := NewSet([]string{"A", "B"}, 0)
	if !s.Add(Tuple{vi(1), vs("x")}) {
		t.Fatal("first Add refused")
	}
	if s.Add(Tuple{vi(1), vs("x")}) {
		t.Fatal("duplicate Add accepted")
	}
	if !s.Add(Tuple{vi(2), vs("x")}) || s.Len() != 2 {
		t.Fatalf("second row lost: Len = %d", s.Len())
	}
	if s.Find(Tuple{vi(2), vs("x")}) != 1 || s.Find(Tuple{vi(3), vs("x")}) != -1 {
		t.Fatal("Find does not report first-occurrence positions")
	}
	if !s.Contains(Tuple{vi(1), vs("x")}) || s.Contains(Tuple{vi(1), vs("y")}) {
		t.Fatal("Contains wrong")
	}
	r := s.Relation()
	s.Add(Tuple{vi(3), vs("y")})
	if r.Len() != 2 || s.Len() != 3 || !s.Relation().Tuples()[2].Equal(Tuple{vi(3), vs("y")}) {
		t.Fatalf("an Add after the hand-over changed the relation (%d rows) or was lost (%d)", r.Len(), s.Len())
	}
}

func TestInsertDistinguishesKinds(t *testing.T) {
	// Int(1) and String("1") render identically but are distinct values;
	// the set must not conflate them.
	if r := build([]string{"A"}, Tuple{vi(1)}, Tuple{vs("1")}); r.Len() != 2 {
		t.Fatalf("Len = %d, want 2 (kind-distinct tuples)", r.Len())
	}
}

func TestCloneIsDeep(t *testing.T) {
	r := build([]string{"A"}, ints(2, 1)...)
	c := r.Clone()
	if !c.Equal(r) || &c.Tuples()[0][0] == &r.Tuples()[0][0] || &c.Attrs[0] == &r.Attrs[0] {
		t.Error("Clone shares storage or differs")
	}
}

func TestProjectSelectProduct(t *testing.T) {
	r := build([]string{"A", "B"}, Tuple{vi(1), vs("x")}, Tuple{vi(2), vs("x")}, Tuple{vi(3), vs("y")})

	p := r.Project([]int{1})
	if p.Len() != 2 { // duplicates collapse
		t.Fatalf("Project len = %d, want 2", p.Len())
	}
	s := r.Select(func(t Tuple) bool { return t[1].AsString() == "x" })
	if s.Len() != 2 {
		t.Fatalf("Select len = %d, want 2", s.Len())
	}
	q := build([]string{"C"}, ints(7, 8)...)
	prod := r.Product(q)
	if prod.Len() != 6 || prod.Arity() != 3 {
		t.Fatalf("Product: len=%d arity=%d", prod.Len(), prod.Arity())
	}
}

func TestEqualAndSorted(t *testing.T) {
	a := build([]string{"A"}, ints(3, 1, 2)...)
	b := build([]string{"A"}, ints(1, 2, 3)...)
	if !a.Equal(b) {
		t.Error("set equality must ignore insertion order")
	}
	if a.Equal(build([]string{"A"}, ints(1, 2, 3, 4)...)) {
		t.Error("different sets compare equal")
	}
	sorted := a.Sorted()
	for i := 1; i < len(sorted); i++ {
		if sorted[i-1].Compare(sorted[i]) >= 0 {
			t.Error("Sorted not ascending")
		}
	}
	if NewDistinct([]string{"B"}, nil).Equal(NewDistinct([]string{"A"}, nil)) {
		t.Error("attribute lists must match for equality")
	}
}

// TestSortedSharesCanonicalPrefix checks that Sorted serves a relation
// already in canonical order without a copy, capped at its length: a
// caller's append then reallocates instead of writing into the backing
// array a later Versioned insert extends.
func TestSortedSharesCanonicalPrefix(t *testing.T) {
	v := VersionedOf(NewDistinct([]string{"A"}, make([]Tuple, 0, 16)))
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
	r := build([]string{"A"}, ints(3, 1, 2)...)
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

// TestNewCanonical checks that a relation built canonical serves its
// indexes right, and that a Versioned started at it finds every tuple
// and leaves it as it was.
func TestNewCanonical(t *testing.T) {
	var in []Tuple
	for _, i := range []int64{5, 3, 9, 1, 7} {
		in = append(in, Tuple{vi(i), vi(i % 2)})
	}
	tuples := slices.Clone(in)
	slices.SortFunc(tuples, Tuple.Compare)
	r := NewCanonical([]string{"A", "B"}, tuples)
	hits := r.LookupEq(1, vi(1))
	if len(hits) != 5 || !slices.IsSortedFunc(hits, Tuple.Compare) {
		t.Fatalf("index lookup on a canonical relation = %v, want the 5 odd tuples in order", hits)
	}
	v := VersionedOf(r)
	for _, tp := range in {
		if !v.Contains(tp) {
			t.Fatalf("VersionedOf(...).Contains(%v) false on a canonical relation", tp)
		}
	}
	if ok, _ := v.Insert(in[0]); ok {
		t.Fatal("Versioned insert admitted a duplicate into a canonical relation")
	}
	if ok, _ := v.Insert(Tuple{vi(4), vi(0)}); !ok || !v.Contains(Tuple{vi(4), vi(0)}) {
		t.Fatal("Versioned insert of a new tuple was lost")
	}
	if r.Len() != 5 || !r.canonical || !slices.IsSortedFunc(r.Tuples(), Tuple.Compare) {
		t.Fatal("the relation a lineage started at changed")
	}
}

func TestAttrIndexSuffixFallback(t *testing.T) {
	r := NewDistinct([]string{"EMPLOYEE.NAME", "PROJECT.NAME", "PROJECT.BUDGET"}, nil)
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
	r := build([]string{"A"}, ints(1)...)
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
	r := build([]string{"EMPLOYEE.NAME", "EMPLOYEE.SALARY"}, Tuple{vs("Jones"), vi(26000)})
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
	r := build([]string{"A", "B", "C"}, Tuple{vi(2), vs("bq-45"), vi(-7)}, Tuple{vi(1), vs("Acme, Inc."), value.Null()})
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
