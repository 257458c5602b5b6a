package authdb_test

import (
	"bufio"
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"authdb"
	"authdb/internal/wire"
	"authdb/internal/workload"
)

// paperDB loads the paper's Figure 1 database through the public API.
func paperDB(t testing.TB) *authdb.DB {
	t.Helper()
	db := authdb.Open()
	db.Admin().MustExecScript(workload.PaperScript)
	return db
}

func TestQuickstartFlow(t *testing.T) {
	db := authdb.Open()
	admin := db.Admin()
	admin.MustExec(`relation EMPLOYEE (NAME, TITLE, SALARY) key (NAME)`)
	admin.MustExec(`insert into EMPLOYEE values (Jones, manager, 26000)`)
	admin.MustExec(`insert into EMPLOYEE values (Brown, engineer, 32000)`)
	admin.MustExec(`view SAE (EMPLOYEE.NAME, EMPLOYEE.SALARY)`)
	admin.MustExec(`permit SAE to Brown`)

	res, err := db.Session("Brown").Exec(`retrieve (EMPLOYEE.NAME, EMPLOYEE.TITLE, EMPLOYEE.SALARY)`)
	if err != nil {
		t.Fatal(err)
	}
	if res.FullyAuthorized || res.Denied {
		t.Fatalf("want a partial grant, got full=%v denied=%v", res.FullyAuthorized, res.Denied)
	}
	if len(res.Table.Rows) != 2 {
		t.Fatalf("rows = %d, want 2\n%s", len(res.Table.Rows), res.Table)
	}
	for _, row := range res.Table.Rows {
		if row[0].IsNull() || row[2].IsNull() {
			t.Fatalf("NAME and SALARY must be delivered: %v", row)
		}
		if !row[1].IsNull() {
			t.Fatalf("TITLE must be masked: %v", row)
		}
	}
	if len(res.Permits) != 1 || res.Permits[0] != "permit (NAME, SALARY)" {
		t.Fatalf("permits = %v", res.Permits)
	}
}

func TestAdminSeesEverything(t *testing.T) {
	db := paperDB(t)
	res, err := db.Admin().Exec(`retrieve (EMPLOYEE.NAME, EMPLOYEE.SALARY)`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Table.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(res.Table.Rows))
	}
	for _, row := range res.Table.Rows {
		for _, c := range row {
			if c.IsNull() {
				t.Fatal("admin results must be unmasked")
			}
		}
	}
}

func TestDeniedUserGetsNothing(t *testing.T) {
	db := paperDB(t)
	res, err := db.Session("Mallory").Exec(`retrieve (EMPLOYEE.NAME, EMPLOYEE.SALARY)`)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Denied || len(res.Table.Rows) != 0 {
		t.Fatalf("unpermitted user must receive nothing, got %d rows, denied=%v",
			len(res.Table.Rows), res.Denied)
	}
}

func TestPaperExample1ViaFacade(t *testing.T) {
	db := paperDB(t)
	res, err := db.Session("Brown").Exec(workload.Example1Query)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Table.Rows) != 1 {
		t.Fatalf("rows = %d, want 1\n%s", len(res.Table.Rows), res.Table)
	}
	if got := res.Table.Rows[0][0].String(); got != "bq-45" {
		t.Fatalf("NUMBER = %s, want bq-45", got)
	}
	if len(res.Permits) != 1 || !strings.Contains(res.Permits[0], "SPONSOR = Acme") {
		t.Fatalf("permits = %v", res.Permits)
	}
}

// TestRenderPaperExamples pins the one result renderer
// (wire.Response.Render) on the paper's three §5 examples: what the REPL
// prints (Result.Render) and what a network client prints from the
// reply frame (Result.Wire, then Render on the receiving side) are the
// same text.
func TestRenderPaperExamples(t *testing.T) {
	db := paperDB(t)
	for _, tc := range []struct{ user, query, want string }{
		{"Brown", workload.Example1Query, "" +
			"| NUMBER | SPONSOR |\n" +
			"| ------ | ------- |\n" +
			"| bq-45  | Acme    |\n" +
			"permit (NUMBER, SPONSOR) where SPONSOR = Acme\n"},
		{"Klein", workload.Example2Query, "" +
			"| NAME  | SALARY |\n" +
			"| ----- | ------ |\n" +
			"| Brown | -      |\n" +
			"permit (NAME)\n"},
		{"Brown", workload.Example3Query, "" +
			"| NAME:1 | SALARY:1 | NAME:2 | SALARY:2 |\n" +
			"| ------ | -------- | ------ | -------- |\n" +
			"| Brown  | 32000    | Brown  | 32000    |\n" +
			"| Jones  | 26000    | Jones  | 26000    |\n" +
			"| Smith  | 22000    | Smith  | 22000    |\n" +
			"(entire answer delivered)\n"},
	} {
		res, err := db.Session(tc.user).Exec(tc.query)
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Render(); got != tc.want {
			t.Errorf("%s, Result.Render:\n%s\nwant:\n%s", tc.user, got, tc.want)
		}
		var frame bytes.Buffer
		resp := res.Wire(1)
		if err := wire.WriteMsg(&frame, &resp); err != nil {
			t.Fatal(err)
		}
		var reply wire.Response
		if err := wire.ReadMsg(bufio.NewReader(&frame), &reply); err != nil {
			t.Fatal(err)
		}
		if got := reply.Render(); got != tc.want {
			t.Errorf("%s, rendered from the reply frame:\n%s\nwant:\n%s", tc.user, got, tc.want)
		}
	}
}

func TestUpdateAuthorization(t *testing.T) {
	db := authdb.Open()
	admin := db.Admin()
	admin.MustExecScript(`
		relation PROJECT (NUMBER, SPONSOR, BUDGET) key (NUMBER);
		insert into PROJECT values (bq-45, Acme, 300000);
		view PSA (PROJECT.NUMBER, PROJECT.SPONSOR, PROJECT.BUDGET)
		  where PROJECT.SPONSOR = Acme;
		permit PSA to Brown;
	`)
	brown := db.Session("Brown")
	// Within PSA: Acme rows.
	if _, err := brown.Exec(`insert into PROJECT values (zz-99, Acme, 100)`); err != nil {
		t.Fatalf("insert within the permitted view failed: %v", err)
	}
	// Outside PSA: other sponsors.
	if _, err := brown.Exec(`insert into PROJECT values (xx-1, Apex, 100)`); err == nil {
		t.Fatal("insert outside the permitted view must fail")
	}
	if _, err := brown.Exec(`delete from PROJECT where NUMBER = zz-99`); err != nil {
		t.Fatalf("delete within the permitted view failed: %v", err)
	}
	// Admin loads an Apex row; Brown's delete does not reach it.
	admin.MustExec(`insert into PROJECT values (sv-72, Apex, 450000)`)
	if res, err := brown.Exec(`delete from PROJECT where NUMBER = sv-72`); err != nil || res.Text != "deleted 0 tuple(s) from PROJECT" {
		t.Fatalf("delete outside the permitted view: %v, %v", res, err)
	}
	if res := admin.MustExec(`retrieve (PROJECT.NUMBER) where PROJECT.NUMBER = sv-72`); len(res.Table.Rows) != 1 {
		t.Fatalf("delete outside the permitted view removed the row:\n%s", res.Render())
	}
}

func TestShowStatements(t *testing.T) {
	db := paperDB(t)
	admin := db.Admin()
	res := admin.MustExec(`show relations`)
	if !strings.Contains(res.Text, "EMPLOYEE = (NAME, TITLE, SALARY)") {
		t.Fatalf("show relations output:\n%s", res.Text)
	}
	res = admin.MustExec(`show meta`)
	for _, want := range []string{"EMPLOYEE'", "PROJECT'", "ASSIGNMENT'", "COMPARISON", "PERMISSION", "x1*", "Acme*"} {
		if !strings.Contains(res.Text, want) {
			t.Fatalf("show meta misses %q:\n%s", want, res.Text)
		}
	}
	if _, err := db.Session("Brown").Exec(`show meta`); err == nil {
		t.Fatal("show meta must require an administrator")
	}
	res = admin.MustExec(`show view EST`)
	if !strings.Contains(res.Text, "EMPLOYEE:1.TITLE = EMPLOYEE:2.TITLE") {
		t.Fatalf("show view output:\n%s", res.Text)
	}
}

func TestRevokeTakesEffect(t *testing.T) {
	db := paperDB(t)
	brown := db.Session("Brown")
	res, err := brown.Exec(workload.Example1Query)
	if err != nil || len(res.Table.Rows) == 0 {
		t.Fatalf("pre-revoke retrieve: rows=%v err=%v", res, err)
	}
	db.Admin().MustExec(`revoke PSA from Brown`)
	res, err = brown.Exec(workload.Example1Query)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Denied {
		t.Fatalf("post-revoke retrieve should be denied, got\n%s", res.Table)
	}
}

func TestNonAdminCannotDefine(t *testing.T) {
	db := paperDB(t)
	brown := db.Session("Brown")
	for _, stmt := range []string{
		`relation X (A, B)`,
		`view VX (EMPLOYEE.NAME)`,
		`permit SAE to Brown`,
		`revoke SAE from Brown`,
		`drop view SAE`,
	} {
		if _, err := brown.Exec(stmt); err == nil {
			t.Fatalf("%q must require admin", stmt)
		}
	}
}

func TestFacadeSaveLoad(t *testing.T) {
	db := paperDB(t)
	dir := t.TempDir()
	if err := db.Save(dir); err != nil {
		t.Fatal(err)
	}
	back, err := authdb.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	res, err := back.Session("Brown").Exec(workload.Example1Query)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Table.Rows) != 1 || res.Table.Rows[0][1].String() != "Acme" {
		t.Fatalf("restored database answers differently:\n%s", res.Table)
	}
	if _, err := authdb.Load(t.TempDir()); err == nil {
		t.Fatal("loading an empty directory must fail")
	}
}

// TestLoadSaveRefuseDurableDir: a directory that Save wrote and OpenDir
// then opened holds the Save-time scripts beside CURRENT, so Load would
// return that stale state and Save would write scripts OpenDir ignores.
// Both refuse it, naming OpenDir.
func TestLoadSaveRefuseDurableDir(t *testing.T) {
	dir := t.TempDir()
	db := authdb.Open()
	db.Admin().MustExecScript("relation T (A) key (A);\ninsert into T values (one);\n")
	if err := db.Save(dir); err != nil {
		t.Fatal(err)
	}
	durable, err := authdb.OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	durable.Admin().MustExec("insert into T values (two)")
	if err := durable.Save(dir); err == nil || !strings.Contains(err.Error(), "OpenDir") {
		t.Errorf("Save into a durable directory: %v, want an error naming OpenDir", err)
	}
	if err := durable.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := authdb.Load(dir); err == nil || !strings.Contains(err.Error(), "OpenDir") {
		t.Errorf("Load of a durable directory: %v, want an error naming OpenDir", err)
	}
}

func TestFacadeDisjunctiveView(t *testing.T) {
	db := authdb.Open()
	db.Admin().MustExecScript(`
		relation P (N, S, B) key (N);
		insert into P values (1, Acme, 10);
		insert into P values (2, Apex, 99);
		insert into P values (3, Apex, 5);
		view V (P.N, P.S, P.B) where P.S = Acme or P.B >= 50;
		permit V to u;
	`)
	res, err := db.Session("u").Exec(`retrieve (P.N, P.S, P.B)`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Table.Rows) != 2 {
		t.Fatalf("disjunctive delivery:\n%s", res.Table)
	}
	show := db.Admin().MustExec(`show view V`)
	if !strings.Contains(show.Text, "or P.B >= 50") {
		t.Fatalf("show view output:\n%s", show.Text)
	}
}

func TestFacadeCellAccessors(t *testing.T) {
	db := paperDB(t)
	res, err := db.Session("Brown").Exec(`retrieve (EMPLOYEE.NAME, EMPLOYEE.TITLE, EMPLOYEE.SALARY)`)
	if err != nil {
		t.Fatal(err)
	}
	row := res.Table.Rows[0]
	if txt, ok := row[0].Text(); !ok || txt == "" {
		t.Fatalf("NAME accessor: %q %v", txt, ok)
	}
	if !row[1].IsNull() {
		t.Fatal("TITLE must be withheld")
	}
	if n, ok := row[2].Int(); !ok || n <= 0 {
		t.Fatalf("SALARY accessor: %d %v", n, ok)
	}
}

func TestFacadeCertify(t *testing.T) {
	db := paperDB(t)
	db.Admin().MustExec(`permit PSA to validated`)
	c, err := db.Certify("validated", workload.Example1Query)
	if err != nil {
		t.Fatal(err)
	}
	if c.Full {
		t.Fatal("only the Acme portion is validated")
	}
	if len(c.Table.Rows) != 2 {
		t.Fatalf("certification must never withhold rows:\n%s", c.Table)
	}
	if len(c.Statements) != 1 ||
		c.Statements[0] != "certified (NUMBER, SPONSOR) where SPONSOR = Acme" {
		t.Fatalf("statements = %v", c.Statements)
	}
	if _, err := db.Certify("validated", `permit PSA to x`); err == nil {
		t.Fatal("non-retrieve statement accepted")
	}
	if _, err := db.Certify("validated", `retrieve (avg(PROJECT.BUDGET))`); err == nil {
		t.Fatal("aggregate certify accepted")
	}
}

func TestFacadeAggregates(t *testing.T) {
	db := paperDB(t)
	res, err := db.Session("Brown").Exec(`retrieve (count(EMPLOYEE.NAME), sum(EMPLOYEE.SALARY))`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Table.Rows) != 1 {
		t.Fatalf("rows:\n%s", res.Table)
	}
	if n, _ := res.Table.Rows[0][0].Int(); n != 3 {
		t.Fatalf("count = %d", n)
	}
	if sum, _ := res.Table.Rows[0][1].Int(); sum != 80000 {
		t.Fatalf("sum = %d", sum)
	}
	if res.Table.Columns[0] != "count(NAME)" {
		t.Fatalf("columns = %v", res.Table.Columns)
	}
}

// TestOpenDirRejectsMemoryStorage: a durable directory has one format,
// statements, so OpenDir refuses Storage "memory" before touching the
// directory, and accepts "" and "paged" alike.
func TestOpenDirRejectsMemoryStorage(t *testing.T) {
	opt := authdb.DefaultOptions()
	opt.Storage = "memory"
	dir := filepath.Join(t.TempDir(), "db")
	if db, err := authdb.OpenDir(dir, opt); err == nil {
		db.Close()
		t.Fatal(`OpenDir accepted Storage "memory"`)
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Fatalf("rejected open touched the directory (%v)", err)
	}
	for _, storage := range []string{"", "paged"} {
		opt.Storage = storage
		db, err := authdb.OpenDir(dir, opt)
		if err != nil {
			t.Fatalf("Storage %q: %v", storage, err)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
