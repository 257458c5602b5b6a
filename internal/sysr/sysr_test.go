package sysr_test

import (
	"testing"

	"authdb/internal/sysr"
	"authdb/internal/workload"
)

func newSystem(t *testing.T) (*workload.Fixture, *sysr.System) {
	t.Helper()
	f := workload.Paper()
	s := sysr.New(f.Schema, f.Source, "dba")
	return f, s
}

func TestOwnerPrivileges(t *testing.T) {
	_, s := newSystem(t)
	if !s.HasSelect("dba", "EMPLOYEE") {
		t.Fatal("owner lacks SELECT")
	}
	if s.HasSelect("alice", "EMPLOYEE") {
		t.Fatal("stranger holds SELECT")
	}
}

func TestGrantRequiresOption(t *testing.T) {
	_, s := newSystem(t)
	if err := s.GrantSelect("alice", "bob", "EMPLOYEE", false); err == nil {
		t.Fatal("grant without the option accepted")
	}
	if err := s.GrantSelect("dba", "alice", "EMPLOYEE", false); err != nil {
		t.Fatal(err)
	}
	// Alice got SELECT without the option: she may read but not grant.
	if !s.HasSelect("alice", "EMPLOYEE") {
		t.Fatal("grant did not take")
	}
	if err := s.GrantSelect("alice", "bob", "EMPLOYEE", false); err == nil {
		t.Fatal("grant option not enforced")
	}
	if err := s.GrantSelect("dba", "carol", "NOPE", false); err == nil {
		t.Fatal("grant on unknown object accepted")
	}
}

func TestRecursiveRevocation(t *testing.T) {
	_, s := newSystem(t)
	// dba -> alice (option) -> bob (option) -> carol.
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(s.GrantSelect("dba", "alice", "EMPLOYEE", true))
	must(s.GrantSelect("alice", "bob", "EMPLOYEE", true))
	must(s.GrantSelect("bob", "carol", "EMPLOYEE", false))
	if !s.HasSelect("carol", "EMPLOYEE") {
		t.Fatal("chain did not reach carol")
	}
	removed := s.RevokeSelect("dba", "alice", "EMPLOYEE")
	if removed != 3 {
		t.Fatalf("revocation cascaded over %d grants, want 3", removed)
	}
	for _, u := range []string{"alice", "bob", "carol"} {
		if s.HasSelect(u, "EMPLOYEE") {
			t.Fatalf("%s retains SELECT after recursive revoke", u)
		}
	}
}

func TestRevocationKeepsIndependentSupport(t *testing.T) {
	_, s := newSystem(t)
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	// bob is supported both through alice and directly by the dba, with
	// the direct grant EARLIER than alice's.
	must(s.GrantSelect("dba", "bob", "EMPLOYEE", true))
	must(s.GrantSelect("dba", "alice", "EMPLOYEE", true))
	must(s.GrantSelect("alice", "bob", "EMPLOYEE", true))
	must(s.GrantSelect("bob", "carol", "EMPLOYEE", false))
	s.RevokeSelect("dba", "alice", "EMPLOYEE")
	if !s.HasSelect("bob", "EMPLOYEE") || !s.HasSelect("carol", "EMPLOYEE") {
		t.Fatal("independently supported grants must survive")
	}
	if len(s.Grants()) != 2 {
		t.Fatalf("grants left: %v", s.Grants())
	}
}

func TestTimestampSemantics(t *testing.T) {
	_, s := newSystem(t)
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	// bob grants to carol at t3 supported only by alice's grant at t2;
	// the dba's direct grant to bob arrives LATER (t4). Revoking alice
	// kills carol's grant: bob had no option before t3 anymore.
	must(s.GrantSelect("dba", "alice", "EMPLOYEE", true))  // t1
	must(s.GrantSelect("alice", "bob", "EMPLOYEE", true))  // t2
	must(s.GrantSelect("bob", "carol", "EMPLOYEE", false)) // t3
	must(s.GrantSelect("dba", "bob", "EMPLOYEE", true))    // t4
	s.RevokeSelect("dba", "alice", "EMPLOYEE")
	if s.HasSelect("carol", "EMPLOYEE") {
		t.Fatal("Griffiths–Wade timestamps violated: carol's grant predates bob's remaining support")
	}
	if !s.HasSelect("bob", "EMPLOYEE") {
		t.Fatal("bob's direct grant must survive")
	}
}

func TestViewsAsAccessWindows(t *testing.T) {
	f, s := newSystem(t)
	elp := f.Store.Branches("ELP")[0].Def
	if err := s.DefineView("dba", elp); err != nil {
		t.Fatal(err)
	}
	if err := s.GrantSelect("dba", "klein", "ELP", false); err != nil {
		t.Fatal(err)
	}
	// Klein may query the view…
	rel, err := s.Query("klein", workload.MustQuery(`retrieve (ELP.NAME) where ELP.BUDGET >= 400000`))
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() == 0 {
		t.Fatal("view query returned nothing")
	}
	// …but not the base relations, even inside the view's bounds — the
	// §1 criticism.
	_, err = s.Query("klein", workload.MustQuery(workload.Example2Query))
	if err == nil {
		t.Fatal("base-relation query within the view's permissions must be denied")
	}
}

func TestDefineViewChecksPrivileges(t *testing.T) {
	f, s := newSystem(t)
	sae := f.Store.Branches("SAE")[0].Def
	if err := s.DefineView("alice", sae); err == nil {
		t.Fatal("view definition without SELECT on the base accepted")
	}
	if err := s.GrantSelect("dba", "alice", "EMPLOYEE", false); err != nil {
		t.Fatal(err)
	}
	if err := s.DefineView("alice", sae); err != nil {
		t.Fatal(err)
	}
	if err := s.DefineView("alice", sae); err == nil {
		t.Fatal("duplicate view name accepted")
	}
	// The definer owns the view and may grant it.
	if err := s.GrantSelect("alice", "bob", "SAE", false); err != nil {
		t.Fatal(err)
	}
	rel, err := s.Query("bob", workload.MustQuery(`retrieve (SAE.NAME, SAE.SALARY)`))
	if err != nil || rel.Len() != 3 {
		t.Fatalf("bob's view query: %v, %v", rel, err)
	}
}

func TestViewWithDuplicateColumnsRenamed(t *testing.T) {
	f, s := newSystem(t)
	est := f.Store.Branches("EST")[0].Def
	if err := s.DefineView("dba", est); err != nil {
		t.Fatal(err)
	}
	if err := s.GrantSelect("dba", "u", "EST", false); err != nil {
		t.Fatal(err)
	}
	rel, err := s.Query("u", workload.MustQuery(`retrieve (EST.NAME_1, EST.NAME_2)`))
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() == 0 {
		t.Fatal("renamed view columns unqueryable")
	}
}

func TestQueryUnknownObject(t *testing.T) {
	_, s := newSystem(t)
	if _, err := s.Query("dba", workload.MustQuery(`retrieve (NOPE.X)`)); err == nil {
		t.Fatal("unknown object accepted")
	}
}
