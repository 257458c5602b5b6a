package core

import (
	"reflect"
	"testing"

	"authdb/internal/algebra"
)

// unkeyed lists the Options fields the cache key leaves out, each with
// the reason it changes no delivered cell. Every other field must change
// the key, so that a new option that shapes the mask cannot silently
// share the mask cache's and the closure's entries.
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
