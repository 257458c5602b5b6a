package authdb_test

import (
	"testing"

	"authdb/bench/fixture"
	"authdb/internal/relation"
	"authdb/internal/workload"
)

// TestFixturesSatisfyDeclaredKeys checks that every shipped fixture
// holds no two rows agreeing on a declared key of their relation. The
// §4.2 self-join inference merges meta-tuples through declared keys,
// so a fixture that broke one would measure or test a lossy join.
func TestFixturesSatisfyDeclaredKeys(t *testing.T) {
	script := func(s string) func() *workload.Fixture {
		return func() *workload.Fixture {
			f := workload.NewFixture()
			f.MustExec(s)
			return f
		}
	}
	for _, c := range []struct {
		name string
		load func() *workload.Fixture
	}{
		{"workload.PaperScript", script(workload.PaperScript)},
		{"workload.Generate", func() *workload.Fixture { return workload.Generate(workload.DefaultGen()) }},
		{"fixture.PaperScript", script(fixture.PaperScript(fixture.DefaultPaper()))},
		{"fixture.GenACL", script(fixture.GenACL(1, fixture.DefaultACL()).Script)},
	} {
		t.Run(c.name, func(t *testing.T) {
			f := c.load()
			keyed := 0
			for _, name := range f.Schema.Names() {
				rs := f.Schema.Lookup(name)
				if len(rs.Key) == 0 {
					continue
				}
				keyed++
				keys := relation.New(rs.KeyAttrs())
				for _, tp := range f.Rels[name].Tuples() {
					k := make(relation.Tuple, len(rs.Key))
					for i, j := range rs.Key {
						k[i] = tp[j]
					}
					if added, err := keys.Insert(k); err != nil {
						t.Fatal(err)
					} else if !added {
						t.Errorf("%s: two rows share the key %v", name, k)
					}
				}
			}
			if keyed == 0 {
				t.Fatal("no relation declares a key")
			}
		})
	}
}
