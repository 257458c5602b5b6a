package core_test

import (
	"strings"
	"testing"

	"authdb/internal/core"
	"authdb/internal/workload"
)

func paperAuthorizer(t testing.TB, opt core.Options) (*workload.Fixture, *core.Authorizer) {
	t.Helper()
	f := workload.Paper()
	return f, core.NewAuthorizer(f.Store, f.Source, opt)
}

// TestExample1 reproduces §5 Example 1: Brown retrieves the numbers and
// sponsors of large projects; the mask restricts him to projects sponsored
// by Acme and the inferred permit says so.
func TestExample1(t *testing.T) {
	f, a := paperAuthorizer(t, core.DefaultOptions())
	d, err := a.Retrieve("Brown", workload.MustQuery(workload.Example1Query))
	if err != nil {
		t.Fatal(err)
	}
	if d.Denied || d.FullyAuthorized {
		t.Fatalf("expected a partial grant, got denied=%v full=%v", d.Denied, d.FullyAuthorized)
	}
	// The full answer has two rows (bq-45 and sv-72); only the Acme
	// project survives the mask, entirely revealed.
	if ans := referenceAnswer(t, f.Source, d.PSJ); ans.Len() != 2 {
		t.Fatalf("answer rows = %d, want 2\n%s", ans.Len(), ans)
	}
	if d.Masked.Len() != 1 {
		t.Fatalf("masked rows = %d, want 1\n%s", d.Masked.Len(), d.Masked)
	}
	row := d.Masked.Tuples()[0]
	if row[0].String() != "bq-45" || row[1].String() != "Acme" {
		t.Fatalf("masked row = %v, want (bq-45, Acme)", row)
	}
	if len(d.Permits) != 1 {
		t.Fatalf("permits = %v, want exactly one", d.Permits)
	}
	want := "permit (NUMBER, SPONSOR) where SPONSOR = Acme"
	if got := d.Permits[0].String(); got != want {
		t.Fatalf("permit = %q, want %q", got, want)
	}
}

// TestExample2 reproduces §5 Example 2: Klein retrieves names and salaries
// of engineers on very large projects; the mask reveals names only.
func TestExample2(t *testing.T) {
	f, a := paperAuthorizer(t, core.DefaultOptions())
	d, err := a.Retrieve("Klein", workload.MustQuery(workload.Example2Query))
	if err != nil {
		t.Fatal(err)
	}
	if d.Denied || d.FullyAuthorized {
		t.Fatalf("expected a partial grant, got denied=%v full=%v", d.Denied, d.FullyAuthorized)
	}
	// Engineers on projects with budget > 300,000: Brown (sv-72).
	if ans := referenceAnswer(t, f.Source, d.PSJ); ans.Len() != 1 {
		t.Fatalf("answer rows = %d, want 1\n%s", ans.Len(), ans)
	}
	if d.Masked.Len() != 1 {
		t.Fatalf("masked rows = %d, want 1\n%s", d.Masked.Len(), d.Masked)
	}
	row := d.Masked.Tuples()[0]
	if row[0].String() != "Brown" {
		t.Fatalf("masked NAME = %v, want Brown", row[0])
	}
	if !row[1].IsNull() {
		t.Fatalf("SALARY %v should be masked", row[1])
	}
	found := false
	for _, p := range d.Permits {
		if p.String() == "permit (NAME)" {
			found = true
		}
	}
	if !found {
		t.Fatalf("permits = %v, want to include %q", d.Permits, "permit (NAME)")
	}
}

// TestExample3 reproduces §5 Example 3: Brown retrieves names and salaries
// of employees with the same title; the self-join of SAE and EST grants
// the entire answer, with no accompanying permit statements.
func TestExample3(t *testing.T) {
	f, a := paperAuthorizer(t, core.DefaultOptions())
	d, err := a.Retrieve("Brown", workload.MustQuery(workload.Example3Query))
	if err != nil {
		t.Fatal(err)
	}
	if !d.FullyAuthorized {
		var b strings.Builder
		for _, mt := range d.Mask.Tuples {
			b.WriteString(strings.Join(mt.Views, ",") + "\n")
		}
		t.Fatalf("expected a full grant; mask tuples:\n%s", b.String())
	}
	if len(d.Permits) != 0 {
		t.Fatalf("permits = %v, want none on a full grant", d.Permits)
	}
	ans := referenceAnswer(t, f.Source, d.PSJ)
	if !d.Masked.Equal(ans) {
		t.Fatalf("masked answer differs from answer:\n%s\nvs\n%s", d.Masked, ans)
	}
	// Pairs of employees with the same title: only self-pairs here
	// (all three titles are distinct), so 3 rows.
	if ans.Len() != 3 {
		t.Fatalf("answer rows = %d, want 3\n%s", ans.Len(), ans)
	}
}

// TestExample2WithoutSelfJoins checks Example 2 is insensitive to the
// self-join refinement (no key-complete pair exists for Klein's views).
func TestExample2WithoutSelfJoins(t *testing.T) {
	opt := core.DefaultOptions()
	opt.SelfJoins = false
	_, a := paperAuthorizer(t, opt)
	d, err := a.Retrieve("Klein", workload.MustQuery(workload.Example2Query))
	if err != nil {
		t.Fatal(err)
	}
	if d.Masked.Len() != 1 || !d.Masked.Tuples()[0][1].IsNull() {
		t.Fatalf("unexpected masked answer\n%s", d.Masked)
	}
}

// TestExample3NeedsSelfJoins checks that disabling the self-join
// refinement loses the salaries in Example 3 — the ablation the paper's
// §4.2 motivates.
func TestExample3NeedsSelfJoins(t *testing.T) {
	opt := core.DefaultOptions()
	opt.SelfJoins = false
	_, a := paperAuthorizer(t, opt)
	d, err := a.Retrieve("Brown", workload.MustQuery(workload.Example3Query))
	if err != nil {
		t.Fatal(err)
	}
	if d.FullyAuthorized {
		t.Fatal("full grant without self-joins should be impossible")
	}
	for _, row := range d.Masked.Tuples() {
		if !row[1].IsNull() || !row[3].IsNull() {
			t.Fatalf("salaries should be masked without self-joins: %v", row)
		}
	}
}
