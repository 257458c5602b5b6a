package engine_test

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"authdb/internal/algebra"
	"authdb/internal/core"
	"authdb/internal/cview"
	"authdb/internal/engine"
	"authdb/internal/relation"
	"authdb/internal/value"
	"authdb/internal/workload"
)

// fixtureScript renders a generated fixture as the admin script that
// builds it: relations, rows, views and permits.
func fixtureScript(f *workload.Fixture, users []string) string {
	var b strings.Builder
	for _, n := range f.Schema.Names() {
		rs := f.Schema.Lookup(n)
		var key []string
		for _, k := range rs.Key {
			key = append(key, rs.Attrs[k])
		}
		fmt.Fprintf(&b, "relation %s (%s) key (%s);\n", n, strings.Join(rs.Attrs, ", "), strings.Join(key, ", "))
		for _, t := range f.Rels[n].Head().Tuples() {
			fmt.Fprintf(&b, "insert into %s values (%s);\n", n, valueList(t))
		}
	}
	for _, vn := range f.Store.ViewNames() {
		fmt.Fprintf(&b, "%s;\n", f.Store.ViewDef(vn))
	}
	for _, u := range users {
		for _, vn := range f.Store.ViewsFor(u) {
			fmt.Fprintf(&b, "permit %s to %s;\n", vn, u)
		}
	}
	return b.String()
}

func intVal(n int) value.Value { return value.Int(int64(n)) }

func valueList(t relation.Tuple) string {
	parts := make([]string, len(t))
	for i, v := range t {
		parts[i] = v.String()
	}
	return strings.Join(parts, ", ")
}

// oracleCovers is the oracle of TestUpdateAuthorizationDifferential:
// t may be written to rel when the naive evaluation of some permitted
// branch, over the instance with t present, projects t on an occurrence
// of rel whose cells the branch stars.
func oracleCovers(t *testing.T, e *engine.Engine, user, rel string, tup relation.Tuple) bool {
	t.Helper()
	store := e.Store()
	src := func(name string) (*relation.Relation, error) {
		r, err := e.Relation(name)
		if err != nil || name != rel {
			return r, err
		}
		v := relation.VersionedOf(r)
		if _, err := v.Insert(tup); err != nil {
			return nil, err
		}
		return v.Head(), nil
	}
	for _, vn := range store.ViewsFor(user) {
		for _, v := range store.Branches(vn) {
			for _, st := range v.Tuples {
				if st.Rel != rel || !allStarred(st) {
					continue
				}
				an, err := cview.Analyze(v.Def, e.Schema())
				if err != nil {
					t.Fatal(err)
				}
				q := *an.PSJ
				q.Cols = relation.QualifyAttrs(st.Alias, e.Schema().Lookup(rel).Attrs)
				ans, err := algebra.EvalNaive(&q, src, nil)
				if err != nil {
					t.Fatal(err)
				}
				if slices.ContainsFunc(ans.Tuples(), tup.Equal) {
					return true
				}
			}
		}
	}
	return false
}

func allStarred(st core.StoredTuple) bool {
	for _, c := range st.Cells {
		if !c.Star {
			return false
		}
	}
	return true
}

// TestUpdateAuthorizationDifferential drives non-admin inserts and
// deletes over seeded generated fixtures, whose views join chains of
// distinct relations. The engine must accept exactly the inserts the
// naive oracle covers, and a delete, of one row or of every row sharing
// an A1 value, must remove exactly the matched rows the oracle covers.
// Three writes in four go to a relation some permitted branch stars
// entirely, so both outcomes occur often; a delete that removes nothing
// counts as a rejection.
func TestUpdateAuthorizationDifferential(t *testing.T) {
	const rows, opsPerSeed = 16, 80
	accepts, rejects := 0, 0
	for seed := int64(1); seed <= 5; seed++ {
		cfg := workload.DefaultGen()
		cfg.Seed, cfg.AttrsPerRel, cfg.RowsPerRel, cfg.ViewJoinWidth = seed, 3, rows, 3
		f := workload.Generate(cfg)
		type target struct{ user, rel string }
		var starred []target
		for _, u := range cfg.Users {
			for _, vn := range f.Store.ViewsFor(u) {
				for _, v := range f.Store.Branches(vn) {
					seen := map[string]bool{}
					for _, st := range v.Tuples {
						if seen[st.Rel] {
							t.Fatalf("seed %d: view %s repeats %s", seed, vn, st.Rel)
						}
						seen[st.Rel] = true
						if allStarred(st) {
							starred = append(starred, target{u, st.Rel})
						}
					}
				}
			}
		}
		e := engine.New(core.DefaultOptions())
		if _, err := e.NewSession("admin", true).ExecScript(fixtureScript(f, cfg.Users)); err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		nextKey := rows
		for op := 0; op < opsPerSeed; op++ {
			user := cfg.Users[rng.Intn(len(cfg.Users))]
			rel := workload.RelName(rng.Intn(cfg.Relations))
			if len(starred) > 0 && rng.Intn(4) > 0 {
				tg := starred[rng.Intn(len(starred))]
				user, rel = tg.user, tg.rel
			}
			cur, err := e.Relation(rel)
			if err != nil {
				t.Fatal(err)
			}
			if rng.Intn(2) == 0 && cur.Len() > 0 {
				tup := cur.Tuples()[rng.Intn(cur.Len())]
				stmt := fmt.Sprintf("delete from %s where A0 = %s and A1 = %s and A2 = %s", rel, tup[0], tup[1], tup[2])
				match := func(m relation.Tuple) bool { return m.Equal(tup) }
				if rng.Intn(2) == 0 {
					stmt = fmt.Sprintf("delete from %s where A1 = %s", rel, tup[1])
					match = func(m relation.Tuple) bool { return m[1].Equal(tup[1]) }
				}
				wantV := relation.VersionedOf(cur.Clone())
				n := wantV.Delete(func(m relation.Tuple) bool { return match(m) && oracleCovers(t, e, user, rel, m) })
				want := wantV.Head()
				res, err := e.NewSession(user, false).Exec(stmt)
				if err != nil {
					t.Fatalf("seed %d: %s as %s: %v", seed, stmt, user, err)
				}
				after, err := e.Relation(rel)
				if err != nil {
					t.Fatal(err)
				}
				if wantText := fmt.Sprintf("deleted %d tuple(s) from %s", n, rel); res.Text != wantText || !after.Equal(want) {
					t.Fatalf("seed %d: %s as %s: %q, want %q; %d rows left, want %d", seed, stmt, user, res.Text, wantText, after.Len(), want.Len())
				}
				if n > 0 {
					accepts++
				} else {
					rejects++
				}
				continue
			}
			tup := relation.Tuple{intVal(nextKey), intVal(rng.Intn(rows)), intVal(rng.Intn(rows))}
			nextKey++
			stmt := fmt.Sprintf("insert into %s values (%s)", rel, valueList(tup))
			want := oracleCovers(t, e, user, rel, tup)
			_, err = e.NewSession(user, false).Exec(stmt)
			if got := err == nil; got != want {
				t.Fatalf("seed %d: %s as %s: accepted = %v (err %v), oracle covers = %v", seed, stmt, user, got, err, want)
			}
			if want {
				accepts++
			} else {
				rejects++
			}
		}
	}
	if accepts < 50 || rejects < 50 {
		t.Fatalf("%d accepts, %d rejects: each must reach 50", accepts, rejects)
	}
	t.Logf("%d accepts, %d rejects", accepts, rejects)
}
