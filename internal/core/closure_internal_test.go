package core

import (
	"reflect"
	"testing"

	"authdb/internal/algebra"
	"authdb/internal/value"
)

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
	base := DefaultOptions()
	want := cacheKey("u", psj, base)
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
		moved := cacheKey("u", psj, opt) != want
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

// TestCacheKeyInjective: requests that differ in their user or in the
// kind of a constant must key different plans.
func TestCacheKeyInjective(t *testing.T) {
	psj := func(preds ...algebra.Atom) *algebra.PSJ {
		return &algebra.PSJ{Scans: []algebra.Scan{{Rel: "R", Alias: "R"}}, Preds: preds, Cols: []string{"R.A"}}
	}
	bEq := func(v value.Value) algebra.Atom {
		return algebra.Atom{L: "R.B", Op: value.EQ, R: algebra.ConstOp(v)}
	}
	// With the user name and the plan joined by a zero byte, the name
	// below followed by the bare plan reads exactly like user u asking
	// for R.B equal to a string that holds the plan's tail.
	tail := "\x00π(R.A) σ("
	cases := []struct {
		name         string
		userA, userB string
		psjA, psjB   *algebra.PSJ
	}{
		{"int against string", "u", "u", psj(bEq(value.Int(5))), psj(bEq(value.String("5")))},
		{"user name holding a zero byte", "u", "u\x00π(R.A) σ(R.B = ", psj(bEq(value.String(tail))), psj()},
	}
	opt := DefaultOptions()
	for _, c := range cases {
		if cacheKey(c.userA, c.psjA, opt) == cacheKey(c.userB, c.psjB, opt) {
			t.Errorf("%s: both requests key %q", c.name, cacheKey(c.userA, c.psjA, opt))
		}
	}
}
