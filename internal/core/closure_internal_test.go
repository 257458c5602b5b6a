package core

import (
	"reflect"
	"testing"

	"authdb/internal/algebra"
	"authdb/internal/cview"
	"authdb/internal/relation"
	"authdb/internal/value"
)

// keyStore builds a store over R (A, B) key (A) and S (A) key (A) with
// one view per name, each over R alone, and permits user the views of
// each grant in order.
func keyStore(t *testing.T, names []string, grants map[string][]string) *Store {
	t.Helper()
	sch := relation.NewDBSchema()
	for _, rs := range []struct {
		name  string
		attrs []string
	}{{"R", []string{"A", "B"}}, {"S", []string{"A"}}} {
		sc, err := relation.NewSchema(rs.name, rs.attrs, "A")
		if err != nil {
			t.Fatal(err)
		}
		if err := sch.Add(sc); err != nil {
			t.Fatal(err)
		}
	}
	st := NewStore(sch)
	for _, n := range names {
		if err := st.DefineView(&cview.Def{Name: n, Cols: []cview.ColRef{{Alias: "R", Attr: "A"}}}); err != nil {
			t.Fatal(err)
		}
	}
	for user, views := range grants {
		for _, v := range views {
			if err := st.Permit(v, user); err != nil {
				t.Fatal(err)
			}
		}
	}
	return st
}

// unkeyed lists the Options fields the cache key leaves out, each with
// the reason it changes no delivered cell. Every other field must change
// the key, so that a new option that shapes the mask cannot silently
// share the closure's entries.
var unkeyed = map[string]string{
	"IndexedExec": "has no effect: the actual side always uses the indexes",
}

// TestCacheKeyCoversOptions flips each Options field of DefaultOptions
// in turn and checks the cache key moves exactly for the keyed ones.
func TestCacheKeyCoversOptions(t *testing.T) {
	psj := &algebra.PSJ{Scans: []algebra.Scan{{Rel: "R", Alias: "R"}}, Cols: []string{"R.A"}}
	st := keyStore(t, []string{"V"}, map[string][]string{"u": {"V"}})
	base := DefaultOptions()
	want := cacheKey(st, "u", psj, base)
	typ := reflect.TypeOf(base)
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		opt := base
		f := reflect.ValueOf(&opt).Elem().Field(i)
		switch f.Kind() {
		case reflect.Bool:
			f.SetBool(!f.Bool())
		case reflect.Int:
			f.SetInt(f.Int() + 1)
		default:
			t.Fatalf("Options.%s: unhandled kind %s", name, f.Kind())
		}
		moved := cacheKey(st, "u", psj, opt) != want
		if why, ok := unkeyed[name]; ok {
			if moved {
				t.Errorf("Options.%s is listed as unkeyed (%s) but changes the key", name, why)
			}
		} else if !moved {
			t.Errorf("Options.%s does not change the cache key: key it, or list it in unkeyed with the reason it changes no delivered cell", name)
		}
	}
	for name := range unkeyed {
		if _, ok := typ.FieldByName(name); !ok {
			t.Errorf("unkeyed names Options.%s, which does not exist", name)
		}
	}
}

// TestCacheKeyInjective: requests that differ in their participating
// views, in the order those were granted, or in the kind of a constant
// must key different plans; requests that differ only in the principal
// and in views that do not take part key the same one.
func TestCacheKeyInjective(t *testing.T) {
	psj := func(preds ...algebra.Atom) *algebra.PSJ {
		return &algebra.PSJ{Scans: []algebra.Scan{{Rel: "R", Alias: "R"}}, Preds: preds, Cols: []string{"R.A"}}
	}
	bEq := func(v value.Value) algebra.Atom {
		return algebra.Atom{L: "R.B", Op: value.EQ, R: algebra.ConstOp(v)}
	}
	st := keyStore(t, []string{"A", "B", "AB"}, map[string][]string{
		"u": {"A"}, "v": {"A"}, "w": {"B", "A"}, "x": {"A", "B"}, "y": {"AB"}, "z": nil,
	})
	// Keep one view out of a query scanning R: the view needs S too.
	if err := st.DefineView(&cview.Def{Name: "RS", Cols: []cview.ColRef{{Alias: "R", Attr: "A"}, {Alias: "S", Attr: "A"}}}); err != nil {
		t.Fatal(err)
	}
	if err := st.Permit("RS", "v"); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name         string
		userA, userB string
		psjA, psjB   *algebra.PSJ
	}{
		{"int against string", "u", "u", psj(bEq(value.Int(5))), psj(bEq(value.String("5")))},
		{"grant order", "w", "x", psj(), psj()},
		{"two views against their concatenation", "x", "y", psj(), psj()},
		{"a view against none", "u", "z", psj(), psj()},
	}
	opt := DefaultOptions()
	for _, c := range cases {
		if cacheKey(st, c.userA, c.psjA, opt) == cacheKey(st, c.userB, c.psjB, opt) {
			t.Errorf("%s: both requests key %q", c.name, cacheKey(st, c.userA, c.psjA, opt))
		}
	}
	if a, b := cacheKey(st, "u", psj(), opt), cacheKey(st, "v", psj(), opt); a != b {
		t.Errorf("u and v hold A, and v's RS does not take part, but they key %q and %q", a, b)
	}
}
