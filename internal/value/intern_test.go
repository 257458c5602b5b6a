package value

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"unsafe"
)

// A Value is 16 bytes and holds no pointer, so the collector never scans
// a relation's cells.
func TestValueIsPointerFree(t *testing.T) {
	if n := unsafe.Sizeof(Value{}); n != 16 {
		t.Errorf("a Value is %d bytes, want 16", n)
	}
	var walk func(path string, typ reflect.Type)
	walk = func(path string, typ reflect.Type) {
		switch typ.Kind() {
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				f := typ.Field(i)
				walk(path+"."+f.Name, f.Type)
			}
		case reflect.Array:
			walk(path+"[]", typ.Elem())
		case reflect.Pointer, reflect.UnsafePointer, reflect.String, reflect.Slice,
			reflect.Map, reflect.Chan, reflect.Func, reflect.Interface:
			t.Errorf("%s is a %s, which holds a pointer", path, typ.Kind())
		}
	}
	walk("Value", reflect.TypeOf(Value{}))
}

// Goroutines interning overlapping strings, each in its own order, agree
// on every string's id and read every string back.
func TestInternConcurrent(t *testing.T) {
	const workers, n = 8, 3001 // n spans several chunks and is prime
	words := make([]string, n)
	for i := range words {
		words[i] = fmt.Sprintf("intern-concurrent-%d", i)
	}
	got := make([][]Value, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			vs := make([]Value, n)
			for k := 0; k < n; k++ {
				i := (k*(2*w+1) + w*n/workers) % n // a permutation, since n is prime
				vs[i] = String(words[i])
				if s := vs[i].AsString(); s != words[i] {
					t.Errorf("worker %d: %q reads back as %q", w, words[i], s)
				}
			}
			got[w] = vs
		}(w)
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		for i := range words {
			if got[w][i] != got[0][i] {
				t.Fatalf("workers 0 and %d interned %q as different values", w, words[i])
			}
		}
	}
	ids := map[uint64]string{}
	for i, v := range got[0] {
		if prev, ok := ids[v.LocalID()]; ok {
			t.Fatalf("%q and %q share an id", prev, words[i])
		}
		ids[v.LocalID()] = words[i]
	}
}

// A string is copied into the table the first time it is interned, so
// the buffer it was sliced from may change or be collected.
func TestInternCopies(t *testing.T) {
	buf := []byte("intern-copies-original")
	v := String(unsafe.String(&buf[0], len(buf)))
	copy(buf, "XXXXXX")
	if s := v.AsString(); s != "intern-copies-original" {
		t.Errorf("the interned string changed with its buffer: %q", s)
	}
	if String("intern-copies-original") != v {
		t.Error("the same contents interned again made a different value")
	}
	n, bytes := Interned()
	if n == 0 || bytes < int64(len(buf)) {
		t.Errorf("Interned() = %d strings, %d bytes", n, bytes)
	}
}

// FuzzValueOrder checks that a string Value behaves as its contents do:
// ordering, equality, map keys, literals and read-back agree with plain
// string semantics, whatever the ids the two strings were given.
func FuzzValueOrder(f *testing.F) {
	for _, p := range [][2]string{
		{"", ""}, {"", "a"}, {"a", "b"}, {"ab", "a"}, {"Acme", "acme"},
		{"bq-45", "bq-"}, {`x"y`, "x"}, {"aé", "a"}, {"b", "a"}, {"z", "z"},
	} {
		f.Add(p[0], p[1])
	}
	f.Fuzz(func(t *testing.T, a, b string) {
		// Intern b first half the time, so the order of ids differs
		// from the order of contents both ways.
		var va, vb Value
		if len(a)%2 == 0 {
			vb, va = String(b), String(a)
		} else {
			va, vb = String(a), String(b)
		}
		if got, want := va.Compare(vb), strings.Compare(a, b); got != want {
			t.Errorf("Compare(%q, %q) = %d, want %d", a, b, got, want)
		}
		if (va == vb) != (a == b) || va.Equal(vb) != (a == b) {
			t.Errorf("%q == %q is %v", a, b, va == vb)
		}
		if (va.LocalID() == vb.LocalID()) != (a == b) {
			t.Errorf("%q and %q: ids equal is %v", a, b, va.LocalID() == vb.LocalID())
		}
		if _, ok := map[Value]bool{va: true}[vb]; ok != (a == b) {
			t.Errorf("%q keys a map entry of %q: %v", b, a, ok)
		}
		for _, c := range []struct {
			v Value
			s string
		}{{va, a}, {vb, b}} {
			if c.v.AsString() != c.s || c.v.String() != c.s || c.v.AsInt() != 0 || c.v.Kind() != KindString {
				t.Errorf("%q reads back as %q (%q, %d, %v)", c.s, c.v.AsString(), c.v.String(), c.v.AsInt(), c.v.Kind())
			}
			lit := `"` + c.s + `"`
			if bareWord(c.s) {
				lit = c.s
			}
			if got := Literal(c.v); got != lit {
				t.Errorf("Literal(%q) = %q, want %q", c.s, got, lit)
			}
			if got, want := Representable(c.v), !strings.Contains(c.s, `"`); got != want {
				t.Errorf("Representable(%q) = %v, want %v", c.s, got, want)
			}
			if c.v.Compare(Int(0)) <= 0 || c.v.Compare(Null()) <= 0 {
				t.Errorf("%q does not sort after every int and null", c.s)
			}
		}
	})
}
