package engine_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"authdb/internal/core"
	"authdb/internal/engine"
	"authdb/internal/workload"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	e := paperEngine(t)
	dir := t.TempDir()
	if err := e.Save(dir); err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{"schema.authdb", "views.authdb",
		filepath.Join("data", "EMPLOYEE.csv"), filepath.Join("data", "PROJECT.csv")} {
		if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
			t.Fatalf("missing %s: %v", f, err)
		}
	}
	back, err := engine.Load(dir, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Data round-trips.
	for _, rel := range []string{"EMPLOYEE", "PROJECT", "ASSIGNMENT"} {
		a, err := e.Relation(rel)
		if err != nil {
			t.Fatal(err)
		}
		b, err := back.Relation(rel)
		if err != nil {
			t.Fatal(err)
		}
		if !a.Equal(b) {
			t.Fatalf("%s differs after round trip", rel)
		}
	}
	// Views and permits round-trip: Klein's Example 2 behaves the same.
	res, err := back.NewSession("Klein", false).Exec(workload.Example2Query)
	if err != nil {
		t.Fatal(err)
	}
	if res.Relation.Len() != 1 || !res.Relation.Tuples()[0][1].IsNull() {
		t.Fatalf("restored engine answers differently:\n%s", res.Relation)
	}
	if len(res.Permits) != 1 || res.Permits[0].String() != "permit (NAME)" {
		t.Fatalf("restored permits = %v", res.Permits)
	}
}

func TestSaveLoadDisjunctiveView(t *testing.T) {
	e := engine.New(core.DefaultOptions())
	admin := e.NewSession("admin", true)
	if _, err := admin.ExecScript(`
		relation P (N, S, B) key (N);
		insert into P values (1, Acme, 10);
		insert into P values (2, Apex, 99);
		view V (P.N, P.S, P.B) where P.S = Acme or P.B >= 50;
		permit V to u;
	`); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := e.Save(dir); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "views.authdb"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "or P.B >= 50") {
		t.Fatalf("disjunct lost in serialization:\n%s", data)
	}
	back, err := engine.Load(dir, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	res, err := back.NewSession("u", false).Exec(`retrieve (P.N, P.S, P.B)`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Relation.Len() != 2 {
		t.Fatalf("restored disjunctive view delivers:\n%s", res.Relation)
	}
}

func TestLoadErrors(t *testing.T) {
	if _, err := engine.Load(t.TempDir(), core.DefaultOptions()); err == nil {
		t.Fatal("loading an empty directory must fail")
	}
	// Corrupt CSV arity.
	e := paperEngine(t)
	dir := t.TempDir()
	if err := e.Save(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "data", "EMPLOYEE.csv"),
		[]byte("NAME,TITLE\nJones,manager\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := engine.Load(dir, core.DefaultOptions()); err == nil {
		t.Fatal("column mismatch must fail")
	}
}

// showPermissions renders `show permissions` on e.
func showPermissions(t *testing.T, e *engine.Engine) string {
	t.Helper()
	res, err := e.NewSession("admin", true).Exec(`show permissions`)
	if err != nil {
		t.Fatal(err)
	}
	return res.Text
}

// TestCheckpointOmitsEmptiedUser revokes a user's only view, checkpoints
// and reopens: the user keeps a record in memory (its permit generation)
// but must not reach the written PERMISSION, and `show permissions` must
// read the same before and after reopening. It reads the memory layout's
// views.authdb, so it pins that backend; TestPagedOmitsEmptiedUser is its
// paged twin.
func TestCheckpointOmitsEmptiedUser(t *testing.T) {
	dir := t.TempDir()
	memory := engine.StorageConfig{Backend: engine.StorageMemory}
	e, err := engine.OpenDurableStorage(dir, core.DefaultOptions(), memory)
	if err != nil {
		t.Fatal(err)
	}
	admin := e.NewSession("admin", true)
	if _, err := admin.ExecScript(workload.PaperScript + `
		permit SAE to Ghost;
		revoke SAE from Ghost;
	`); err != nil {
		t.Fatal(err)
	}
	want := showPermissions(t, e)
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	cur, err := os.ReadFile(filepath.Join(dir, "CURRENT"))
	if err != nil {
		t.Fatal(err)
	}
	views, err := os.ReadFile(filepath.Join(dir, strings.TrimSpace(string(cur)), "views.authdb"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(views), "permit SAE to Brown") || strings.Contains(string(views), "Ghost") {
		t.Fatalf("written PERMISSION:\n%s", views)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	back, err := engine.OpenDurableStorage(dir, core.DefaultOptions(), memory)
	if err != nil {
		t.Fatal(err)
	}
	defer back.Close()
	if got := showPermissions(t, back); got != want {
		t.Fatalf("show permissions after reopening:\n%s\nbefore:\n%s", got, want)
	}
}
