package core_test

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"authdb/internal/core"
	"authdb/internal/cview"
	"authdb/internal/parser"
	"authdb/internal/workload"
)

// storedCellString renders one stored tuple the way Figure 1 prints it.
func storedTupleString(v *core.StoredView, ti int) string {
	var parts []string
	for _, c := range v.Tuples[ti].Cells {
		s := ""
		switch {
		case c.Const != nil:
			s = c.Const.String()
		case c.Var != "":
			s = c.Var
		}
		if c.Star {
			s += "*"
		}
		parts = append(parts, s)
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// TestFigure1Compilation checks the compiled meta-tuples against Figure 1
// cell for cell: stars, variables, constants, and blanks.
func TestFigure1Compilation(t *testing.T) {
	f := workload.Paper()
	want := map[string][]struct {
		rel   string
		cells string
	}{
		"SAE": {{"EMPLOYEE", "(*, , *)"}},
		"ELP": {
			{"EMPLOYEE", "(x1*, *, )"},
			{"PROJECT", "(x2*, , x3*)"},
			{"ASSIGNMENT", "(x1*, x2*)"},
		},
		"EST": {
			{"EMPLOYEE", "(*, x4*, )"},
			{"EMPLOYEE", "(*, x4*, )"},
		},
		"PSA": {{"PROJECT", "(*, Acme*, *)"}},
	}
	for name, tuples := range want {
		bs := f.Store.Branches(name)
		if len(bs) == 0 {
			t.Fatalf("view %s missing", name)
		}
		v := bs[0]
		if len(v.Tuples) != len(tuples) {
			t.Fatalf("view %s has %d tuples, want %d", name, len(v.Tuples), len(tuples))
		}
		for i, wantTuple := range tuples {
			if v.Tuples[i].Rel != wantTuple.rel {
				t.Errorf("%s tuple %d over %s, want %s", name, i, v.Tuples[i].Rel, wantTuple.rel)
			}
			got := storedTupleString(v, i)
			got = strings.ReplaceAll(got, ", ,", ", ,") // keep literal blanks
			if got != wantTuple.cells {
				t.Errorf("%s tuple %d = %s, want %s", name, i, got, wantTuple.cells)
			}
		}
	}
	// ELP's x3 carries the COMPARISON constraint x3 >= 250000.
	elp := f.Store.Branches("ELP")[0]
	iv, ok := elp.VarIv["x3"]
	if !ok {
		t.Fatal("x3 has no interval")
	}
	if !iv.Lo.Bounded || iv.Lo.V.AsInt() != 250000 || iv.Hi.Bounded {
		t.Fatalf("x3 interval = %v", iv)
	}
	// x4 links EST's two tuples.
	est := f.Store.Branches("EST")[0]
	if occs := est.VarOccs["x4"]; len(occs) != 2 {
		t.Fatalf("x4 occurrences = %v", occs)
	}
}

func TestFigure1Rendering(t *testing.T) {
	f := workload.Paper()
	var b strings.Builder
	f.Store.RenderMeta(&b, "PROJECT")
	out := b.String()
	for _, want := range []string{"PROJECT'", "VIEW", "PSA", "Acme*", "ELP", "x2*", "x3*"} {
		if !strings.Contains(out, want) {
			t.Fatalf("meta rendering misses %q:\n%s", want, out)
		}
	}
	b.Reset()
	f.Store.RenderComparison(&b)
	if !strings.Contains(b.String(), "x3") || !strings.Contains(b.String(), ">=") ||
		!strings.Contains(b.String(), "250000") {
		t.Fatalf("COMPARISON rendering:\n%s", b.String())
	}
	b.Reset()
	f.Store.RenderPermission(&b)
	for _, want := range []string{"Brown", "Klein", "SAE", "ELP", "EST", "PSA"} {
		if !strings.Contains(b.String(), want) {
			t.Fatalf("PERMISSION rendering misses %q:\n%s", want, b.String())
		}
	}
}

func mustView(t *testing.T, f *workload.Fixture, stmt string) {
	t.Helper()
	s, err := parser.Parse(stmt)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Store.DefineView(s.(parser.ViewStmt).Def); err != nil {
		t.Fatal(err)
	}
}

func viewErr(t *testing.T, f *workload.Fixture, stmt string) error {
	t.Helper()
	s, err := parser.Parse(stmt)
	if err != nil {
		t.Fatal(err)
	}
	return f.Store.DefineView(s.(parser.ViewStmt).Def)
}

func TestDefineViewErrors(t *testing.T) {
	f := workload.Paper()
	cases := []string{
		// Redefinition.
		`view SAE (EMPLOYEE.NAME)`,
		// Contradictory constant equalities.
		`view C1 (PROJECT.NUMBER) where PROJECT.SPONSOR = Acme and PROJECT.SPONSOR = Apex`,
		// Contradictory comparative against a pinned constant.
		`view C2 (PROJECT.NUMBER) where PROJECT.BUDGET = 100 and PROJECT.BUDGET > 200`,
		// Contradictory interval.
		`view C3 (PROJECT.NUMBER) where PROJECT.BUDGET > 200 and PROJECT.BUDGET < 100`,
		// A < A is unsatisfiable.
		`view C4 (PROJECT.NUMBER) where PROJECT.BUDGET < PROJECT.BUDGET`,
		// Unknown relation.
		`view C5 (NOPE.X)`,
	}
	for _, stmt := range cases {
		if err := viewErr(t, f, stmt); err == nil {
			t.Errorf("%s: accepted", stmt)
		}
	}
	// A ≤ A is trivially satisfiable and fine.
	mustView(t, f, `view OK1 (PROJECT.NUMBER) where PROJECT.BUDGET <= PROJECT.BUDGET`)
}

func TestSymbolicComparisonCompiles(t *testing.T) {
	f := workload.Paper()
	mustView(t, f, `view RICH (EMPLOYEE.NAME, EMPLOYEE.SALARY, PROJECT.BUDGET)
		where EMPLOYEE.SALARY > PROJECT.BUDGET`)
	v := f.Store.Branches("RICH")[0]
	if len(v.VarCmps) != 1 {
		t.Fatalf("VarCmps = %v", v.VarCmps)
	}
}

func TestPermitRevokeDrop(t *testing.T) {
	f := workload.Paper()
	if err := f.Store.Permit("NOPE", "Brown"); err == nil {
		t.Error("permit on unknown view accepted")
	}
	// Idempotent permit.
	if err := f.Store.Permit("SAE", "Brown"); err != nil {
		t.Fatal(err)
	}
	if n := len(f.Store.ViewsFor("Brown")); n != 3 {
		t.Fatalf("Brown has %d views, want 3", n)
	}
	if !f.Store.Revoke("SAE", "Brown") {
		t.Error("revoke failed")
	}
	if f.Store.Revoke("SAE", "Brown") {
		t.Error("double revoke succeeded")
	}
	if !f.Store.DropView("EST") {
		t.Error("drop failed")
	}
	if f.Store.DropView("EST") {
		t.Error("double drop succeeded")
	}
	for _, u := range []string{"Brown", "Klein"} {
		for _, v := range f.Store.ViewsFor(u) {
			if v == "EST" {
				t.Errorf("%s still permitted the dropped EST", u)
			}
		}
	}
	if got := f.Store.ViewNames(); len(got) != 3 {
		t.Fatalf("ViewNames = %v", got)
	}
}

func TestUsersSorted(t *testing.T) {
	f := workload.Paper()
	users := f.Store.Users()
	if len(users) != 2 || users[0] != "Brown" || users[1] != "Klein" {
		t.Fatalf("Users = %v", users)
	}
}

func TestVarNamesGloballySequential(t *testing.T) {
	// Figure 1 numbers variables across views in definition order:
	// ELP gets x1..x3, EST gets x4.
	f := workload.Paper()
	if _, ok := f.Store.Branches("EST")[0].VarIv["x4"]; !ok {
		t.Fatalf("EST variables: %v", f.Store.Branches("EST")[0].VarIv)
	}
	for _, x := range []string{"x1", "x2", "x3"} {
		if _, ok := f.Store.Branches("ELP")[0].VarIv[x]; !ok {
			t.Fatalf("ELP misses %s: %v", x, f.Store.Branches("ELP")[0].VarIv)
		}
	}
}

// storeState renders everything a reader of s can observe about users
// and views, for byte-identical comparison across a mutation.
func storeState(s *core.Store, users []string) string {
	var b strings.Builder
	for _, u := range users {
		fmt.Fprintf(&b, "%s %v\n", u, s.ViewsFor(u))
	}
	fmt.Fprintf(&b, "users=%v views=%v viewgen=%d\n", s.Users(), s.ViewNames(), s.ViewGen())
	s.RenderPermission(&b)
	for _, rel := range s.Schema().Names() {
		s.RenderMeta(&b, rel)
	}
	s.RenderComparison(&b)
	return b.String()
}

// TestCloneIsolation mutates clones of one store and checks that neither
// the source nor a sibling clone taken before the mutation changes.
func TestCloneIsolation(t *testing.T) {
	f := workload.Paper()
	if err := f.Store.Permit("SAE", "Solo"); err != nil {
		t.Fatal(err)
	}
	src := f.Store
	users := []string{"Brown", "Klein", "Solo", "New"}
	def := func(stmt string) *cview.Def {
		s, err := parser.Parse(stmt)
		if err != nil {
			t.Fatal(err)
		}
		return s.(parser.ViewStmt).Def
	}
	cases := []struct {
		name string
		mut  func(c *core.Store) error
	}{
		{"permit", func(c *core.Store) error { return c.Permit("PSA", "Klein") }},
		{"permit new user", func(c *core.Store) error { return c.Permit("PSA", "New") }},
		{"idempotent permit", func(c *core.Store) error { return c.Permit("SAE", "Brown") }},
		{"revoke", func(c *core.Store) error {
			if !c.Revoke("SAE", "Brown") {
				return fmt.Errorf("revoke failed")
			}
			return nil
		}},
		{"revoke to empty", func(c *core.Store) error {
			if !c.Revoke("SAE", "Solo") || len(c.Users()) != 2 {
				return fmt.Errorf("revoke to empty: users %v", c.Users())
			}
			return nil
		}},
		{"failing define", func(c *core.Store) error {
			if c.DefineView(def(`view C3 (PROJECT.NUMBER) where PROJECT.BUDGET > 200 and PROJECT.BUDGET < 100`)) == nil {
				return fmt.Errorf("contradictory view accepted")
			}
			return nil
		}},
		{"define", func(c *core.Store) error {
			return c.DefineView(def(`view BIG (PROJECT.NUMBER, PROJECT.BUDGET) where PROJECT.BUDGET > 400000`))
		}},
		{"drop cascade", func(c *core.Store) error {
			if !c.DropView("SAE") {
				return fmt.Errorf("drop failed")
			}
			for _, u := range users {
				for _, v := range c.ViewsFor(u) {
					if v == "SAE" {
						return fmt.Errorf("%s still permitted the dropped SAE", u)
					}
				}
			}
			return nil
		}},
	}
	want := storeState(src, users)
	for _, c := range cases {
		sibling := src.Clone(src.Schema())
		clone := src.Clone(src.Schema())
		if err := c.mut(clone); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := storeState(src, users); got != want {
			t.Fatalf("%s on a clone changed the source:\ngot:\n%s\nwant:\n%s", c.name, got, want)
		}
		if got := storeState(sibling, users); got != want {
			t.Fatalf("%s on a clone changed a sibling:\ngot:\n%s\nwant:\n%s", c.name, got, want)
		}
	}
	// Siblings growing the view order or one user's views must not write
	// into storage they share.
	a, b := src.Clone(src.Schema()), src.Clone(src.Schema())
	for _, p := range []struct {
		s    *core.Store
		view string
	}{{a, "A1"}, {b, "B1"}} {
		if err := p.s.DefineView(def(`view ` + p.view + ` (PROJECT.NUMBER)`)); err != nil {
			t.Fatal(err)
		}
		if err := p.s.Permit(p.view, "Solo"); err != nil {
			t.Fatal(err)
		}
	}
	if na, nb := a.ViewNames(), b.ViewNames(); na[len(na)-1] != "A1" || nb[len(nb)-1] != "B1" {
		t.Fatalf("sibling view orders: %v, %v", na, nb)
	}
	if va, vb := a.ViewsFor("Solo"), b.ViewsFor("Solo"); va[1] != "A1" || vb[1] != "B1" {
		t.Fatalf("sibling permits: %v, %v", va, vb)
	}
}

// TestDropCascadeEmptiesUser checks that a drop cascade emptying a user
// along a clone lineage leaves the user with no views, unlisted, while
// the parent version keeps the grant.
func TestDropCascadeEmptiesUser(t *testing.T) {
	f := workload.Paper()
	s := f.Store.Clone(f.Store.Schema())
	if err := s.Permit("SAE", "Solo"); err != nil {
		t.Fatal(err)
	}
	parent := s
	s = s.Clone(s.Schema())
	s.DropView("SAE")
	if got := s.ViewsFor("Solo"); len(got) != 0 {
		t.Fatalf("after the drop Solo holds %v", got)
	}
	for _, u := range s.Users() {
		if u == "Solo" {
			t.Fatalf("user without views listed: %v", s.Users())
		}
	}
	if got := parent.ViewsFor("Solo"); len(got) != 1 || got[0] != "SAE" {
		t.Fatalf("the drop reached the parent version: Solo holds %v", got)
	}
}

// permitBytes is the average heap bytes one Clone+Permit of a new user
// allocates on a store already holding n users.
func permitBytes(t *testing.T, n int) float64 {
	t.Helper()
	f := workload.NewFixture()
	f.MustExec(`relation P (N) key (N); view V (P.N);`)
	s := f.Store
	for i := 0; i < n; i++ {
		if err := s.Permit("V", fmt.Sprintf("u%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	const ops = 100
	fresh := make([]string, ops)
	for i := range fresh {
		fresh[i] = fmt.Sprintf("new%d", i)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, u := range fresh {
		s = s.Clone(s.Schema())
		if err := s.Permit("V", u); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / ops
}

// TestPermitCostIndependentOfUsers bounds a definition change by what it
// changes: a permit on a store of 10 000 users may allocate at most twice
// what it does on 1 000, and under 2 KB — less than a flat table of 256
// shard pointers alone would copy.
func TestPermitCostIndependentOfUsers(t *testing.T) {
	small, large := permitBytes(t, 1000), permitBytes(t, 10000)
	t.Logf("Clone+Permit: %.0f B at 1 000 users, %.0f B at 10 000", small, large)
	if large > 2*small {
		t.Fatalf("Clone+Permit allocates %.0f B at 10 000 users, %.0f B at 1 000: not independent of users", large, small)
	}
	if small >= 2048 {
		t.Fatalf("Clone+Permit allocates %.0f B at 1 000 users, want under 2 KB", small)
	}
}
