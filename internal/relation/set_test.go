package relation

import (
	"math/rand"
	"slices"
	"strconv"
	"testing"

	"authdb/internal/value"
)

// refKey is the rendered set key the value-hashed set replaced: per
// value its kind byte, its text and a NUL. It is the differential's
// reference, so the generated strings never contain a NUL.
func refKey(t Tuple) string {
	var b []byte
	for _, v := range t {
		b = append(b, byte(v.Kind()))
		b = append(b, v.String()...)
		b = append(b, 0)
	}
	return string(b)
}

// refRel is the reference model of one relation: its tuples in order and
// the set of their rendered keys.
type refRel struct {
	tuples []Tuple
	keys   map[string]bool
}

func newRef() *refRel { return &refRel{keys: make(map[string]bool)} }

func (m *refRel) insert(t Tuple) bool {
	k := refKey(t)
	if m.keys[k] {
		return false
	}
	m.keys[k] = true
	m.tuples = append(m.tuples, t.Clone())
	return true
}

func (m *refRel) delete(pred func(Tuple) bool) int {
	var kept []Tuple
	for _, t := range m.tuples {
		if pred(t) {
			delete(m.keys, refKey(t))
		} else {
			kept = append(kept, t)
		}
	}
	n := len(m.tuples) - len(kept)
	m.tuples = kept
	return n
}

func (m *refRel) clone() *refRel {
	c := newRef()
	for _, t := range m.tuples {
		c.insert(t)
	}
	return c
}

// memberGen draws tuples over a small domain so duplicates, near misses
// and kind confusions are common: Int(1), String("1") and Null all occur,
// and every tuple is a last-cell variant of many others.
type memberGen struct{ rng *rand.Rand }

var memberDomain = []value.Value{
	value.Int(1), value.String("1"), value.Null(), value.Int(0), value.Int(-7),
	value.String(""), value.String("-"), value.String("Acme"), value.String("é\x01"),
}

func (g memberGen) tuple(arity int) Tuple {
	t := make(Tuple, arity)
	for i := range t {
		t[i] = memberDomain[g.rng.Intn(len(memberDomain))]
	}
	return t
}

// probe returns a tuple to look up: fresh, an existing one, or an
// existing one with only its last cell changed.
func (g memberGen) probe(m *refRel, arity int) Tuple {
	if len(m.tuples) == 0 || g.rng.Intn(3) == 0 {
		return g.tuple(arity)
	}
	t := m.tuples[g.rng.Intn(len(m.tuples))].Clone()
	if g.rng.Intn(2) == 0 {
		t[arity-1] = memberDomain[g.rng.Intn(len(memberDomain))]
	}
	return t
}

// pred returns a deletion predicate: one tuple, or a cell-value class.
func (g memberGen) pred(m *refRel, arity int) func(Tuple) bool {
	if g.rng.Intn(2) == 0 {
		target := g.probe(m, arity)
		return func(t Tuple) bool { return t.Equal(target) }
	}
	col, v := g.rng.Intn(arity), memberDomain[g.rng.Intn(len(memberDomain))]
	return func(t Tuple) bool { return t[col].Equal(v) }
}

// sameAs fails unless got holds exactly the model's tuples, in order.
func sameAs(t *testing.T, step int, op string, got []Tuple, m *refRel) {
	t.Helper()
	if len(got) != len(m.tuples) {
		t.Fatalf("step %d (%s): %d tuples, reference %d", step, op, len(got), len(m.tuples))
	}
	for i := range got {
		if !got[i].Equal(m.tuples[i]) {
			t.Fatalf("step %d (%s): tuple %d is %v, reference %v", step, op, i, got[i], m.tuples[i])
		}
	}
}

// runMembership drives sets and versioned relations through seeded
// random operations and checks every result, and the tuples after each
// operation, against the rendered-key reference.
func runMembership(t *testing.T, seed int64, steps int) {
	const arity = 3
	g := memberGen{rand.New(rand.NewSource(seed))}
	attrs := []string{"A", "B", "C"}
	type setPair struct {
		s *Set
		m *refRel
	}
	type verPair struct {
		v *Versioned
		m *refRel
	}
	newSet := func() setPair {
		s := NewSet(attrs, g.rng.Intn(8))
		return setPair{&s, newRef()}
	}
	sets := []setPair{newSet()}
	vers := []verPair{{NewVersioned(attrs), newRef()}}
	slab := NewSlab(arity)
	for step := 0; step < steps; step++ {
		if len(sets) == 0 {
			sets = append(sets, newSet())
		}
		k := g.rng.Intn(len(sets))
		p := sets[k]
		var op string
		switch g.rng.Intn(12) {
		case 0, 1, 2, 3:
			op = "Add"
			tp := g.probe(p.m, arity)
			row := slab.Row(steps - step)
			copy(row, tp)
			got := p.s.Add(row)
			if got != p.m.insert(tp) {
				t.Fatalf("step %d: Add(%v) = %v; reference disagrees", step, tp, got)
			}
			if got {
				slab.Keep()
			}
		case 4, 5:
			op = "Find"
			tp := g.probe(p.m, arity)
			if got, want := p.s.Find(tp), slices.IndexFunc(p.m.tuples, tp.Equal); got != want {
				t.Fatalf("step %d: Find(%v) = %d, reference %d", step, tp, got, want)
			}
			if got, want := p.s.Contains(tp), p.m.keys[refKey(tp)]; got != want {
				t.Fatalf("step %d: Contains(%v) = %v, reference %v", step, tp, got, want)
			}
		case 6:
			op = "Relation"
			r := p.s.Relation()
			sameAs(t, step, op, r.Rename([]string{"X.A", "X.B", "X.C"}).Tuples(), p.m)
			if len(sets) < 4 {
				c := NewSet(attrs, r.Len())
				for _, tp := range r.Clone().Tuples() {
					c.Add(tp)
				}
				sets = append(sets, setPair{&c, p.m.clone()})
			}
		case 7:
			op = "VersionedOf"
			sets = append(sets[:k], sets[k+1:]...)
			vers = append(vers, verPair{VersionedOf(p.s.Relation()), p.m})
			if len(vers) > 3 {
				vers = vers[1:]
			}
			continue
		default:
			vp := vers[g.rng.Intn(len(vers))]
			tp := g.probe(vp.m, arity)
			switch g.rng.Intn(3) {
			case 0:
				op = "Versioned.Insert"
				if got, err := vp.v.Insert(tp); err != nil || got != vp.m.insert(tp) {
					t.Fatalf("step %d: Versioned.Insert(%v) = %v, %v; reference disagrees", step, tp, got, err)
				}
			case 1:
				op = "Versioned.Delete"
				pred := g.pred(vp.m, arity)
				if got, want := vp.v.Delete(pred), vp.m.delete(pred); got != want {
					t.Fatalf("step %d: Versioned.Delete removed %d, reference %d", step, got, want)
				}
			default:
				op = "Versioned.Contains"
				if got, want := vp.v.Contains(tp), vp.m.keys[refKey(tp)]; got != want {
					t.Fatalf("step %d: Versioned.Contains(%v) = %v, reference %v", step, tp, got, want)
				}
			}
			sameAs(t, step, op, vp.v.Head().Tuples(), vp.m)
			continue
		}
		sameAs(t, step, op, p.s.Relation().Tuples(), p.m)
	}
}

// TestMembershipDifferential checks the value-hashed membership set
// against the rendered-key set it replaced, over 10⁴ seeded operations
// per seed: once with the real hash and once with every tuple forced
// onto one of four hashes, so nearly every entry goes through the
// overflow list.
func TestMembershipDifferential(t *testing.T) {
	for _, hash := range []struct {
		name string
		fn   func(Tuple) uint64
	}{
		{"value-hash", hashTuple},
		{"four-hashes", func(t Tuple) uint64 { return hashTuple(t) % 4 }},
	} {
		t.Run(hash.name, func(t *testing.T) {
			tupleHash = hash.fn
			t.Cleanup(func() { tupleHash = hashTuple })
			for seed := int64(1); seed <= 3; seed++ {
				t.Run(strconv.FormatInt(seed, 10), func(t *testing.T) { runMembership(t, seed, 10_000) })
			}
		})
	}
}

// TestHashKindTagged: values that render alike hash apart.
func TestHashKindTagged(t *testing.T) {
	seen := make(map[uint64]value.Value)
	for _, v := range []value.Value{value.Int(1), value.String("1"), value.Null(), value.String("-"), value.Int(0), value.String("")} {
		h := hashTuple(Tuple{v})
		if w, dup := seen[h]; dup {
			t.Fatalf("%v (%v) and %v (%v) share hash %#x", v, v.Kind(), w, w.Kind(), h)
		}
		seen[h] = v
	}
}

// TestSlabRowsAreDisjoint: rows carved from one chunk have cap == len,
// so appending to one never writes into the next, and a row not kept is
// handed out again.
func TestSlabRowsAreDisjoint(t *testing.T) {
	s := NewSlab(2)
	a := s.Row(3)
	if cap(a) != 2 {
		t.Fatalf("row cap %d, want 2", cap(a))
	}
	if b := s.Row(3); &b[0] != &a[0] {
		t.Fatal("a row not kept was not reused")
	}
	s.Keep()
	b := s.Row(2)
	b[0] = value.Int(9)
	_ = append(a, value.Int(1))
	if !b[0].Equal(value.Int(9)) || &b[0] == &a[0] {
		t.Fatal("rows share storage")
	}
	if allocs := testing.AllocsPerRun(100, func() {
		s := NewSlab(3)
		for n := 8; n > 0; n-- {
			s.Row(n)
			s.Keep()
		}
	}); allocs != 1 {
		t.Fatalf("eight rows sized by the input cost %.0f allocations, want 1", allocs)
	}
}
