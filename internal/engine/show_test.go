package engine_test

import (
	"errors"
	"fmt"
	"regexp"
	"slices"
	"strings"
	"testing"

	"authdb/internal/engine"
)

func TestShowVariants(t *testing.T) {
	e := paperEngine(t)
	admin := e.NewSession("admin", true)
	cases := []struct {
		stmt string
		want []string
	}{
		{`show relations`, []string{"EMPLOYEE = (NAME, TITLE, SALARY)", "PROJECT = (NUMBER, SPONSOR, BUDGET)"}},
		{`show views`, []string{"view SAE", "view ELP", "view EST", "view PSA"}},
		{`show view ELP`, []string{"PROJECT.BUDGET >= 250000", "in EMPLOYEE", "in ASSIGNMENT"}},
		{`show permissions`, []string{"Brown", "Klein", "SAE", "ELP"}},
		{`show meta`, []string{"EMPLOYEE'", "COMPARISON", "PERMISSION", "x3"}},
	}
	for _, c := range cases {
		res, err := admin.Exec(c.stmt)
		if err != nil {
			t.Fatalf("%s: %v", c.stmt, err)
		}
		for _, want := range c.want {
			if !strings.Contains(res.Text, want) {
				t.Fatalf("%s output misses %q:\n%s", c.stmt, want, res.Text)
			}
		}
	}
	if _, err := admin.Exec(`show view NOPE`); err == nil {
		t.Fatal("show of unknown view accepted")
	}
	if _, err := admin.Exec(`show bananas`); err == nil {
		t.Fatal("unknown show target accepted")
	}
	// Users may inspect views and permissions, but not the meta-relations.
	user := e.NewSession("Brown", false)
	if _, err := user.Exec(`show views`); err != nil {
		t.Fatal(err)
	}
	if _, err := user.Exec(`show meta`); err == nil {
		t.Fatal("show meta must require admin")
	}
}

func TestDropViewAndRevokeAtEngine(t *testing.T) {
	e := paperEngine(t)
	admin := e.NewSession("admin", true)
	if _, err := admin.Exec(`revoke PSA from Brown`); err != nil {
		t.Fatal(err)
	}
	if _, err := admin.Exec(`revoke PSA from Brown`); err == nil {
		t.Fatal("double revoke accepted")
	}
	if _, err := admin.Exec(`drop view PSA`); err != nil {
		t.Fatal(err)
	}
	if _, err := admin.Exec(`drop view PSA`); err == nil {
		t.Fatal("double drop accepted")
	}
	if _, err := admin.Exec(`permit PSA to Brown`); err == nil {
		t.Fatal("permit on dropped view accepted")
	}
	// Non-admin paths.
	user := e.NewSession("Brown", false)
	for _, stmt := range []string{`drop view SAE`, `revoke SAE from Brown`, `permit SAE to Brown`,
		`view W (EMPLOYEE.NAME)`, `relation Z (A)`} {
		if _, err := user.Exec(stmt); err == nil {
			t.Fatalf("%q must require admin", stmt)
		}
	}
	if s := user.User(); s != "Brown" {
		t.Fatalf("User() = %q", s)
	}
}

func TestCreateRelationErrors(t *testing.T) {
	e := paperEngine(t)
	admin := e.NewSession("admin", true)
	if _, err := admin.Exec(`relation EMPLOYEE (X)`); err == nil {
		t.Fatal("duplicate relation accepted")
	}
	if _, err := admin.Exec(`relation BAD (A, A)`); err == nil {
		t.Fatal("duplicate attribute accepted")
	}
	if _, err := admin.Exec(`relation BAD2 (A) key (B)`); err == nil {
		t.Fatal("foreign key attr accepted")
	}
	if _, err := admin.Exec(`view BADVIEW (NOPE.X)`); err == nil {
		t.Fatal("view over unknown relation accepted")
	}
	if _, err := admin.Exec(`permit NOPE to u`); err == nil {
		t.Fatal("permit on unknown view accepted")
	}
}

// showTables splits a `show meta` rendering into its tables: title ->
// rows, each row its trimmed cells (column widths differ between
// renderings, so rows are compared by cell).
func showTables(text string) map[string][][]string {
	out := map[string][][]string{}
	for _, block := range strings.Split(text, "\n\n") {
		lines := strings.Split(strings.TrimSpace(block), "\n")
		var rows [][]string
		for _, line := range lines[min(3, len(lines)):] { // title, header, rule
			cells := strings.Split(strings.Trim(line, "|"), "|")
			for i := range cells {
				cells[i] = strings.TrimSpace(cells[i])
			}
			rows = append(rows, cells)
		}
		out[lines[0]] = rows
	}
	return out
}

// execText runs stmt and returns its text, failing the test on an error.
func execText(t *testing.T, s *engine.Session, stmt string) string {
	t.Helper()
	res, err := s.Exec(stmt)
	if err != nil {
		t.Fatalf("%s: %v", stmt, err)
	}
	return res.Text
}

func hasRow(rows [][]string, row []string) bool {
	return slices.ContainsFunc(rows, func(r []string) bool { return slices.Equal(r, row) })
}

// varNumber matches a rendered variable's number.
var varNumber = regexp.MustCompile(`x[0-9]+`)

// unnumbered returns tables with every variable's number erased.
func unnumbered(tables map[string][][]string) map[string][][]string {
	for _, rows := range tables {
		for _, r := range rows {
			for i := range r {
				r[i] = varNumber.ReplaceAllString(r[i], "x")
			}
		}
	}
	return tables
}

// TestShowRights: `show rights U` is `show meta` restricted to U — its R'
// and COMPARISON rows are exactly the meta rows of U's views, up to the
// variables' numbers, and its PERMISSION table exactly U's grants. The
// numbers count U's views alone: Brown's EST prints Figure 1's x4 as x1.
func TestShowRights(t *testing.T) {
	e := paperEngine(t)
	admin := e.NewSession("admin", true)
	if rows := showTables(execText(t, admin, `show rights Brown`))["EMPLOYEE'"]; !hasRow(rows, []string{"EST", "*", "x1*", ""}) {
		t.Fatalf("Brown's EMPLOYEE' rows = %v, want EST's (*, x1*, )", rows)
	}
	meta := unnumbered(showTables(execText(t, admin, `show meta`)))
	for _, user := range []string{"Brown", "Klein"} {
		rights := unnumbered(showTables(execText(t, admin, `show rights `+user)))
		views := map[string]bool{}
		var grants [][]string
		for _, r := range meta["PERMISSION"] {
			if r[0] == user {
				views[r[1]] = true
				grants = append(grants, r)
			}
		}
		if got := rights["PERMISSION"]; fmt.Sprint(got) != fmt.Sprint(grants) {
			t.Fatalf("%s: PERMISSION = %v, want %v", user, got, grants)
		}
		metaRows := 0
		for title, rows := range meta {
			if title == "PERMISSION" {
				continue
			}
			for _, r := range rights[title] {
				if !hasRow(rows, r) {
					t.Fatalf("%s: %s row %v is not in show meta", user, title, r)
				}
			}
			for _, r := range rows {
				if views[r[0]] && !hasRow(rights[title], r) {
					t.Fatalf("%s: %s row %v of a permitted view is missing", user, title, r)
				}
			}
			if strings.HasSuffix(title, "'") {
				metaRows += len(rights[title])
			}
		}
		// ELP contributes three membership tuples, EST two.
		if user == "Klein" && metaRows != 5 {
			t.Fatalf("Klein's R' rows = %d, want 5", metaRows)
		}
	}
	if got := execText(t, admin, `show rights nobody`); got != "user nobody holds no permits" {
		t.Fatalf("show rights nobody = %q", got)
	}
	if _, err := admin.Exec(`show rights`); err == nil || err.Error() != "usage: show rights USER" {
		t.Fatalf("show rights with no user: %v", err)
	}
	if _, err := e.NewSession("Brown", false).Exec(`show rights Brown`); !errors.Is(err, engine.ErrNotAuthorized) {
		t.Fatalf("user show rights: %v", err)
	}
}

// TestUserShowSeesOnlyOwnViews: Brown's views are the same in both
// states, so everything Brown's `show` prints must be too — the second
// state's extra view and grants to others included.
func TestUserShowSeesOnlyOwnViews(t *testing.T) {
	s1 := paperEngine(t)
	s2 := paperEngine(t)
	if _, err := s2.NewSession("admin", true).ExecScript(`
		view SECRET (PROJECT.NUMBER) where PROJECT.SPONSOR = Apex;
		permit SECRET to Klein;
		permit ELP to Nobody;`); err != nil {
		t.Fatal(err)
	}
	observe := func(e *engine.Engine) []string {
		brown := e.NewSession("Brown", false)
		var out []string
		for _, stmt := range []string{`show views`, `show permissions`, `show view SAE`, `show view SECRET`} {
			res, err := brown.Exec(stmt)
			if err != nil {
				out = append(out, "error: "+err.Error())
				continue
			}
			out = append(out, res.Text)
		}
		return out
	}
	o1, o2 := observe(s1), observe(s2)
	for i := range o1 {
		if o1[i] != o2[i] {
			t.Fatalf("Brown's observation %d differs:\n%s\n---\n%s", i, o1[i], o2[i])
		}
	}
	if o2[3] != "error: unknown view SECRET" {
		t.Fatalf("show view SECRET = %q", o2[3])
	}
}
