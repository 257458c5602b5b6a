// Benchmarks regenerating the paper's artifacts and the EXPERIMENTS.md
// measurements: one benchmark per reproduced table/figure (E1–E5), the
// baseline comparisons (E6–E7), the §4.2 refinement ablations (E8), the
// overhead and executor sweeps and the cold authorization on the
// benchmark's 28-view fixture (E9), the §4.2 four-case walkthrough
// (E10), and the §6(3) extension (E11).
//
// Run with: go test -bench=. -benchmem
package authdb_test

import (
	"bytes"
	"context"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"authdb"
	"authdb/bench/fixture"
	"authdb/internal/algebra"
	"authdb/internal/core"
	"authdb/internal/cview"
	"authdb/internal/guard"
	"authdb/internal/qmod"
	"authdb/internal/relation"
	"authdb/internal/server"
	"authdb/internal/sysr"
	"authdb/internal/value"
	"authdb/internal/wire"
	"authdb/internal/workload"
	"authdb/pkg/client"
)

// BenchmarkFigure1Compile measures E1: translating the paper's four view
// definitions and five permits into meta-relations, COMPARISON, and
// PERMISSION (the §6 front-end path).
func BenchmarkFigure1Compile(b *testing.B) {
	for i := 0; i < b.N; i++ {
		workload.Paper()
	}
}

func benchExample(b *testing.B, user, query string) {
	b.Helper()
	f := workload.Paper()
	auth := core.NewAuthorizer(f.Store, f.Source, core.DefaultOptions())
	def := workload.MustQuery(query)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := auth.Retrieve(user, def); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExample1 measures E2: Brown's single-relation request with the
// PSA mask.
func BenchmarkExample1(b *testing.B) { benchExample(b, "Brown", workload.Example1Query) }

// BenchmarkExample2 measures E3: Klein's three-way join with products,
// pruning, clearing, and the NAME-only mask.
func BenchmarkExample2(b *testing.B) { benchExample(b, "Klein", workload.Example2Query) }

// BenchmarkExample3 measures E4: Brown's self-product with the SAE ⋈ EST
// self-join inference and a full grant.
func BenchmarkExample3(b *testing.B) { benchExample(b, "Brown", workload.Example3Query) }

// BenchmarkColdAuthorize measures an authorization nothing is cached
// for (no closure) on the benchmark's 28-view paper
// fixture with the Figure 1 rows alone, so the meta side — instantiate,
// plan, compile the mask — is all of the cost.
func BenchmarkColdAuthorize(b *testing.B) {
	f := workload.NewFixture()
	f.MustExec(fixture.PaperScript(fixture.PaperScale{}))
	auth := core.NewAuthorizer(f.Store, f.Source, core.DefaultOptions())
	for _, c := range []struct{ name, user, query string }{
		{"ex2_brown", "Brown", workload.Example2Query},
		{"ex2_klein", "Klein", workload.Example2Query},
		{"ex3_brown", "Brown", workload.Example3Query},
	} {
		def := workload.MustQuery(c.query)
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := auth.Retrieve(c.user, def); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// coldACL loads the benchmark's ACL database (seed 1, default scale)
// and returns an authorizer over it with no closure,
// fusing the mask pushdown as the server does, so every Retrieve runs
// both sides cold.
func coldACL(tb testing.TB) (*core.Authorizer, *fixture.ACL) {
	tb.Helper()
	acl := fixture.GenACL(1, fixture.DefaultACL())
	f := workload.NewFixture()
	f.MustExec(acl.Script)
	return core.NewAuthorizer(f.Store, f.Source, core.DefaultOptions()), acl
}

// parentGroupJoinWork is what one cold group_join of principal u7 charged
// the guard, meta side included, before the actual side probed base
// indexes with residual filters: the 11 641-row SUBJ_TYPE run was
// materialized, then built into a hash table, before any join.
const parentGroupJoinWork = 20_174

// TestColdACLGroupJoinWorkBound bounds the work of one cold group_join by
// count, not time: the guard's total must stay under a tenth of the
// parent's, and the delivered rows must match the oracle's.
func TestColdACLGroupJoinWorkBound(t *testing.T) {
	auth, acl := coldACL(t)
	g := guard.New(context.Background(), guard.Unlimited())
	auth.Guard = g
	const u = 7
	d, err := auth.Retrieve(fixture.Principal(u), workload.MustQuery(acl.Query(u, fixture.QGroupJoin)))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := d.Masked.Len(), len(acl.Expect(u, fixture.QGroupJoin)); got != want {
		t.Fatalf("group_join delivered %d rows, oracle %d", got, want)
	}
	if got := g.Produced(); got > parentGroupJoinWork/10 {
		t.Fatalf("group_join charged %d units, over a tenth of the parent's %d", got, parentGroupJoinWork)
	}
}

// coldGroupJoinUnits is what each cold group_join of principals 0..49
// charged the guard, meta side included, when the actual side still
// materialized its last join and answer before masking.
var coldGroupJoinUnits = [50]int64{
	375, 354, 338, 381, 386, 319, 368, 405, 457, 419, 459, 346, 369, 369, 382, 368, 430, 432, 392, 388,
	325, 384, 334, 421, 339, 338, 386, 412, 392, 396, 417, 450, 378, 367, 408, 411, 377, 383, 450, 387,
	378, 457, 334, 454, 383, 373, 381, 412, 430, 372,
}

// TestColdGuardUnits pins the guard units one cold read charges: each
// statement class of the benchmark's ACL database for principals 0..49,
// and the paper's Examples 1–3 for each of its users, on the Figure 1
// database and on the benchmark's scaled copy of it, with and without
// the §6(3) extension. A streamed last step charges one unit per probed
// candidate, per row entering each selection and per projected row,
// exactly as the materializing executor did, so every budget outcome and
// error text is unchanged. Every extended read has a grouped mask (one
// that leaves a column of the wide answer out), so the extended rows pin
// the grouped delivery path.
func TestColdGuardUnits(t *testing.T) {
	auth, acl := coldACL(t)
	units := func(a *core.Authorizer, user string, def *cview.Def) (int64, *core.Decision) {
		a.Guard = guard.New(context.Background(), guard.Unlimited())
		d, err := a.Retrieve(user, def)
		if err != nil {
			t.Fatal(err)
		}
		return a.Guard.Produced(), d
	}
	for u := 0; u < len(coldGroupJoinUnits); u++ {
		want := [fixture.ACLQueries]int64{801, coldGroupJoinUnits[u], 3 - int64(u%2)}
		for q, name := range fixture.ACLQueryNames {
			if got, _ := units(auth, fixture.Principal(u), workload.MustQuery(acl.Query(u, q))); got != want[q] {
				t.Errorf("u%d %s: %d guard units, want %d", u, name, got, want[q])
			}
		}
	}
	scaled := workload.NewFixture()
	scaled.MustExec(fixture.PaperScript(fixture.DefaultPaper()))
	extended := core.DefaultOptions()
	extended.ExtendedMasks = true
	for _, c := range []struct {
		fixture, example string
		f                *workload.Fixture
		query            string
		extended         bool
		brown, klein     int64
	}{
		{"figure1", "example1", workload.Paper(), workload.Example1Query, false, 3, 4},
		{"figure1", "example2", workload.Paper(), workload.Example2Query, false, 6, 12},
		{"figure1", "example3", workload.Paper(), workload.Example3Query, false, 46, 11},
		{"scaled", "example1", scaled, workload.Example1Query, false, 318, 582},
		{"scaled", "example2", scaled, workload.Example2Query, false, 6, 60},
		{"scaled", "example3", scaled, workload.Example3Query, false, 7558, 7251},
		{"figure1", "example1", workload.Paper(), workload.Example1Query, true, 3, 4},
		{"figure1", "example2", workload.Paper(), workload.Example2Query, true, 6, 12},
		{"figure1", "example3", workload.Paper(), workload.Example3Query, true, 46, 11},
		{"scaled", "example1", scaled, workload.Example1Query, true, 591, 32},
		{"scaled", "example2", scaled, workload.Example2Query, true, 6, 60},
		{"scaled", "example3", scaled, workload.Example3Query, true, 7558, 7251},
	} {
		opt := core.DefaultOptions()
		if c.extended {
			opt = extended
		}
		a := core.NewAuthorizer(c.f.Store, c.f.Source, opt)
		def := workload.MustQuery(c.query)
		for user, want := range map[string]int64{"Brown": c.brown, "Klein": c.klein} {
			got, d := units(a, user, def)
			if got != want {
				t.Errorf("%s %s %s extended=%v: %d guard units, want %d", c.fixture, c.example, user, c.extended, got, want)
			}
			delivered := map[int]bool{}
			for _, k := range d.Mask.Out {
				delivered[k] = true
			}
			if c.extended && len(delivered) == len(d.Mask.Attrs) {
				t.Errorf("%s %s %s: the extended mask delivers every column of %v, so the read is not grouped", c.fixture, c.example, user, d.Mask.Attrs)
			}
		}
	}
}

// TestColdACLAllocBound bounds the allocations of one cold read of each
// statement class by principal u7, and the bytes they take, each about a
// tenth above what the read allocates. Before membership keyed on value
// hashes and masked rows came from one slab per relation, every answer
// and masked row cost a clone plus a rendered key string (org_list 2174,
// group_join 1651); before the last step streamed through the mask, the
// last join made a row at a time and the answer was built with a
// membership set of its own before masking (org_list 131, group_join
// 794, point 123). The parent's figures are from before NewCanonical
// took its attribute list without a copy and before a cell held its
// string by id in 16 pointer-free bytes rather than inline in 32;
// group_join's are from before a join step built its relation once its
// rows were in, without a copy of its attribute list.
func TestColdACLAllocBound(t *testing.T) {
	auth, acl := coldACL(t)
	const u = 7
	for _, c := range []struct {
		q           int
		max, parent float64
		maxBytes    float64
		parentBytes float64
	}{
		{fixture.QOrgList, 122, 112, 55_830, 71_888},
		{fixture.QGroupJoin, 591, 539, 139_330, 126_664},
		{fixture.QPoint, 133, 122, 8_040, 8_080},
	} {
		def := workload.MustQuery(acl.Query(u, c.q))
		read := func() {
			if _, err := auth.Retrieve(fixture.Principal(u), def); err != nil {
				t.Fatal(err)
			}
		}
		name := fixture.ACLQueryNames[c.q]
		allocs := testing.AllocsPerRun(20, read)
		bytes := bytesPerRun(20, read)
		t.Logf("%s: %.0f allocations, %.0f bytes", name, allocs, bytes)
		if allocs > c.max {
			t.Errorf("%s allocated %.0f objects, want at most %.0f (parent %.0f)", name, allocs, c.max, c.parent)
		}
		if bytes > c.maxBytes {
			t.Errorf("%s allocated %.0f bytes, want at most %.0f (parent %.0f)", name, bytes, c.maxBytes, c.parentBytes)
		}
	}
}

// bytesPerRun is testing.AllocsPerRun for the bytes f allocates: their
// average over runs calls, after one call that is not counted, on one
// processor.
func bytesPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&ms)
	return float64((ms.TotalAlloc - before) / uint64(runs))
}

// parentClosureHeap is the heap, in bytes, that TestClosureResidentHeap's
// 255 entries held when every entry also kept the unmasked answer (and,
// when it could refresh, an accumulator for it) beside the delivered
// relation. Measured with go1.24.0 on linux/amd64 (the same reading with
// and without -race); the entries without the answer read 9.09 MB
// there. Object layout differs with pointer size, so the test runs only
// on amd64.
const parentClosureHeap int64 = 16_562_896

// closureHeapBound is TestClosureResidentHeap's limit: the 2.97 MB its
// entries hold once a delivered relation keeps no membership set and a
// cell is 16 bytes, measured with go1.24.0 on linux/amd64, plus a tenth.
const closureHeapBound int64 = 3_270_000

// TestClosureResidentHeap bounds what a full closure keeps resident: 85
// principals of the benchmark's ACL database, three statements each,
// fill a default closure with one entry per distinct key: 190, since
// members of one organization share their org_list entry, and their
// point entry when they probe the same resource. The statements are
// answered as the server answers them (Session.Reply), so each entry
// also keeps its encoded reply section. The indexes the statements use
// are built by a first pass without a closure, so the GC'd heap growth
// of the second pass is the entries alone; it must stay within
// closureHeapBound, under a third of the parent's, whose 255 entries
// were one per statement.
func TestClosureResidentHeap(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("parentClosureHeap was measured on amd64, not %s", runtime.GOARCH)
	}
	acl := fixture.GenACL(1, fixture.DefaultACL())
	db := authdb.Open(authdb.Options{})
	db.Admin().MustExecScript(acl.Script)
	const users = 85
	// A statement's views that take part are its principal's
	// organization view and, for group_join, group views; group_join's
	// text names the principal, so the text and the organization tell
	// the keys apart.
	keys := map[string]bool{}
	for u := 0; u < users; u++ {
		for q := range fixture.ACLQueryNames {
			keys[fmt.Sprint(acl.Query(u, q), "|", acl.UserOrg[u])] = true
		}
	}
	pass := func() {
		for u := 0; u < users; u++ {
			s := db.Session(fixture.Principal(u))
			for q := range fixture.ACLQueryNames {
				if _, err := s.Reply(context.Background(), 1, acl.Query(u, q)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	pass()
	db.Engine().SetMaskClosureEnabled(true)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	pass()
	runtime.GC()
	runtime.ReadMemStats(&after)
	st := db.Engine().MaskClosureStats()
	if st.Entries != len(keys) || st.Entries != 190 {
		t.Fatalf("closure holds %d entries, want %d distinct keys (190 at seed 1)", st.Entries, len(keys))
	}
	if st.ReplyBytes == 0 {
		t.Fatalf("the entries keep no reply sections: %+v", st)
	}
	growth := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	t.Logf("closure heap: %.2f MB for %d entries, %.2f MB of them reply sections (parent %.2f MB)",
		float64(growth)/1e6, len(keys), float64(st.ReplyBytes)/1e6, float64(parentClosureHeap)/1e6)
	if growth > closureHeapBound {
		t.Errorf("closure heap %d B, want at most %d B (2.97 MB measured with go1.24.0, plus a tenth; this is %s)",
			growth, closureHeapBound, runtime.Version())
	}
}

// aclFirstVisits draws principals of acl by Zipf (s = 1.1, as acl_cold
// draws them) until n distinct ones are drawn, in first-draw order.
func aclFirstVisits(acl *fixture.ACL, seed int64, n int) []int {
	draw := rand.NewZipf(rand.New(rand.NewSource(seed)), 1.1, 1, uint64(acl.Cfg.Users-1))
	seen := map[int]bool{}
	var out []int
	for len(out) < n {
		if u := int(draw.Uint64()); !seen[u] {
			seen[u] = true
			out = append(out, u)
		}
	}
	return out
}

// TestSharedFirstVisitsACL runs 600 first visits — 200 Zipf-drawn
// principals of the benchmark's ACL database, three statements each —
// with the closure on, where members of one organization share their
// org_list entry, and again with it off: the replies must be identical,
// reply for reply.
func TestSharedFirstVisitsACL(t *testing.T) {
	acl := fixture.GenACL(1, fixture.DefaultACL())
	db := authdb.Open()
	db.Admin().MustExecScript(acl.Script)
	visits := aclFirstVisits(acl, 7, 200)
	pass := func() []string {
		var out []string
		for _, u := range visits {
			s := db.Session(fixture.Principal(u))
			for q := range fixture.ACLQueryNames {
				r, err := s.Exec(acl.Query(u, q))
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, r.Render())
			}
		}
		return out
	}
	on := pass()
	st := db.Engine().MaskClosureStats()
	t.Logf("closure over %d first visits: %+v", len(on), st)
	if st.Hits == 0 {
		t.Fatalf("no first visit was served a shared entry: %+v", st)
	}
	db.Engine().SetMaskClosureEnabled(false)
	off := pass()
	for i := range on {
		if on[i] != off[i] {
			u, q := visits[i/len(fixture.ACLQueryNames)], i%len(fixture.ACLQueryNames)
			t.Fatalf("%s of %s: closure on and off differ:\n%s\nvs\n%s", fixture.ACLQueryNames[q], fixture.Principal(u), on[i], off[i])
		}
	}
}

// replyFrame is the frame the server writes for s's reply to stmt, and
// the reply it was written from.
func replyFrame(tb testing.TB, s *authdb.Session, stmt string) ([]byte, wire.Response) {
	tb.Helper()
	resp, err := s.Reply(context.Background(), 1, stmt)
	if err != nil {
		tb.Fatalf("%s: %v", stmt, err)
	}
	frame, err := wire.AppendResponseFrame(nil, &resp)
	if err != nil {
		tb.Fatalf("%s: %v", stmt, err)
	}
	return frame, resp
}

// sameReplyFrames checks that user's reply frames to stmt match with the
// closure on and off, twice: the first reply on reads the entry a
// retrieve left (and builds its section, if it has none yet), the second
// reads it again.
func sameReplyFrames(t *testing.T, on, off *authdb.DB, user, stmt string) {
	t.Helper()
	want, _ := replyFrame(t, off.Session(user), stmt)
	for _, visit := range []string{"first", "second"} {
		if got, _ := replyFrame(t, on.Session(user), stmt); !bytes.Equal(got, want) {
			t.Fatalf("%s, %s, %s reply: closure on and off write different frames (%d and %d bytes)",
				user, stmt, visit, len(got), len(want))
		}
	}
}

// TestSharedReplyFramesACL is TestSharedFirstVisitsACL on the server's
// path: the frames Session.Reply writes, which a closure hit copies from
// its entry's encoded section, against the frames with the closure off,
// for the same 600 first visits and one revisit of each.
func TestSharedReplyFramesACL(t *testing.T) {
	acl := fixture.GenACL(1, fixture.DefaultACL())
	on, off := authdb.Open(), authdb.Open(authdb.Options{})
	on.Admin().MustExecScript(acl.Script)
	off.Admin().MustExecScript(acl.Script)
	for _, u := range aclFirstVisits(acl, 7, 200) {
		for q := range fixture.ACLQueryNames {
			sameReplyFrames(t, on, off, fixture.Principal(u), acl.Query(u, q))
		}
	}
	st := on.Engine().MaskClosureStats()
	t.Logf("closure over 600 first visits and their revisits: %+v", st)
	if st.Hits < 600 || st.ReplyBytes == 0 {
		t.Fatalf("revisits were not served from resident sections: %+v", st)
	}
}

// TestReplyFramesAcrossClosureTransitions compares reply frames with the
// closure on and off on the benchmark's paper fixture, cold and after
// each way an entry's rows change: an insert that refreshes Example 1's
// entry in place, a delete of a stamped row that recomputes it through
// its plan, and a view defined and dropped that no reader holds, which
// moves no key and so costs no miss.
func TestReplyFramesAcrossClosureTransitions(t *testing.T) {
	script := fixture.PaperScript(fixture.DefaultPaper())
	on, off := authdb.Open(), authdb.Open(authdb.Options{})
	on.Admin().MustExecScript(script)
	off.Admin().MustExecScript(script)
	reads := []struct{ user, stmt string }{
		{"Brown", fixture.Example1}, {"Klein", fixture.Example2}, {"Brown", fixture.Example3},
	}
	stats := on.Engine().MaskClosureStats
	for _, step := range []struct {
		name, stmts string
		moved       func(before, after core.ClosureStats) bool
	}{
		{"cold", "", nil},
		{"insert", "insert into PROJECT values (pz, Acme, 900000)",
			func(b, a core.ClosureStats) bool { return a.Refreshes > b.Refreshes }},
		{"delete", "delete from PROJECT where PROJECT.NUMBER = pz",
			func(b, a core.ClosureStats) bool { return a.PlanHits > b.PlanHits }},
		{"define and drop view", "view VZ (PROJECT.NUMBER, PROJECT.BUDGET); drop view VZ",
			func(b, a core.ClosureStats) bool { return a.Misses == b.Misses }},
	} {
		before := stats()
		if step.stmts != "" {
			on.Admin().MustExecScript(step.stmts)
			off.Admin().MustExecScript(step.stmts)
		}
		for _, r := range reads {
			sameReplyFrames(t, on, off, r.user, r.stmt)
		}
		if after := stats(); step.moved != nil && !step.moved(before, after) {
			t.Fatalf("%s: the closure did not go through the transition: %+v, then %+v", step.name, before, after)
		}
	}
}

// TestReplySectionOnlyForItsRelation checks that a reply sends a
// closure entry's section only for the entry's own delivered relation.
// An aggregate over the query of a resident entry is answered from that
// entry's Decision, yet replies with its own table, not the entry's
// section; an administrator's answer comes from no entry and carries no
// section.
func TestReplySectionOnlyForItsRelation(t *testing.T) {
	on, off := authdb.Open(), authdb.Open(authdb.Options{})
	on.Admin().MustExecScript(workload.PaperScript)
	off.Admin().MustExecScript(workload.PaperScript)
	const (
		plain = "retrieve (EMPLOYEE.NAME, EMPLOYEE.SALARY)"
		agg   = "retrieve (EMPLOYEE.NAME, sum(EMPLOYEE.SALARY))"
	)
	sameReplyFrames(t, on, off, "Brown", plain)
	held := on.Engine().MaskClosureStats()
	if held.ReplyBytes == 0 {
		t.Fatalf("no section was kept for %s: %+v", plain, held)
	}
	sameReplyFrames(t, on, off, "Brown", agg)
	if st := on.Engine().MaskClosureStats(); st.Hits <= held.Hits || st.Entries != held.Entries {
		t.Fatalf("the aggregate was not answered from %s's entry: %+v, then %+v", plain, held, st)
	}
	for _, stmt := range []string{plain, agg} {
		if _, resp := replyFrame(t, on.Admin(), stmt); resp.Table == nil || resp.Table.Section != nil {
			t.Errorf("admin, %s: reply table %+v, want one without a section", stmt, resp.Table)
		}
	}
	if st := on.Engine().MaskClosureStats(); st.ReplyBytes != held.ReplyBytes {
		t.Errorf("section bytes went from %d to %d without a new entry", held.ReplyBytes, st.ReplyBytes)
	}
}

// TestClosureReplyBytes checks ClosureStats.ReplyBytes and its gauge: 0
// while no reply has read an entry, then the sum of the sections the
// replies sent. A delete leaves the entries and their sections resident;
// the replies after it recompute the entries, and the gauge is then the
// sum of the new sections.
func TestClosureReplyBytes(t *testing.T) {
	db := authdb.Open()
	db.Admin().MustExecScript(workload.PaperScript)
	brown := db.Session("Brown")
	stmts := []string{workload.Example3Query, "retrieve (EMPLOYEE.NAME, EMPLOYEE.SALARY)"}
	check := func(step string, want int) {
		t.Helper()
		if got := db.Engine().MaskClosureStats().ReplyBytes; got != want {
			t.Errorf("%s: ReplyBytes %d, want %d", step, got, want)
		}
		line := fmt.Sprintf("\nauthdb_mask_closure_reply_bytes %d\n", want)
		if text := db.Metrics().Text(); !strings.Contains(text, line) {
			t.Errorf("%s: metrics lack %q", step, strings.TrimSpace(line))
		}
	}
	reply := func() int {
		sum := 0
		for _, stmt := range stmts {
			_, resp := replyFrame(t, brown, stmt)
			if resp.Table == nil || len(resp.Table.Section) == 0 {
				t.Fatalf("%s: the reply carries no section: %+v", stmt, resp.Table)
			}
			sum += len(resp.Table.Section)
		}
		return sum
	}
	for _, stmt := range stmts {
		brown.MustExec(stmt)
	}
	check("before any reply", 0)
	sum := reply()
	check("after the replies", sum)
	db.Admin().MustExec("delete from EMPLOYEE where EMPLOYEE.NAME = Smith")
	check("after a delete", sum)
	check("after the replies to the delete", reply())
}

// BenchmarkSharedFirstVisitACL measures an org_list first visit made
// after another member of the same organization made one: principals
// 0..19 visit first, one per organization, and each iteration is the
// visit of the next principal after them, which the closure serves from
// its organization's entry.
func BenchmarkSharedFirstVisitACL(b *testing.B) {
	acl := fixture.GenACL(1, fixture.DefaultACL())
	db := authdb.Open()
	db.Admin().MustExecScript(acl.Script)
	visit := func(u int) {
		if _, err := db.Session(fixture.Principal(u)).Exec(acl.Query(u, fixture.QOrgList)); err != nil {
			b.Fatal(err)
		}
	}
	orgs, users := acl.Cfg.Orgs, acl.Cfg.Users
	for u := 0; u < orgs; u++ {
		visit(u)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		visit(orgs + i%(users-orgs))
	}
}

// BenchmarkColdACL measures the three acl_cold statements with every
// cache off, round-robin over the principals, so each iteration pays the
// meta side and the actual side in full.
func BenchmarkColdACL(b *testing.B) {
	auth, acl := coldACL(b)
	for q, name := range fixture.ACLQueryNames {
		defs := make([]*cview.Def, acl.Cfg.Users)
		for u := range defs {
			defs[u] = workload.MustQuery(acl.Query(u, q))
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				u := i % len(defs)
				if _, err := auth.Retrieve(fixture.Principal(u), defs[u]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkACLLoad measures loading the benchmark's ACL database (seed 1,
// default scale) through an administrator session — the statement path
// behind acl_cold's set-up time, where each of the script's permits
// commits a new meta-database version.
func BenchmarkACLLoad(b *testing.B) {
	script := fixture.GenACL(1, fixture.DefaultACL()).Script
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := authdb.Open().Admin().ExecScript(script); err != nil {
			b.Fatal(err)
		}
	}
}

// journalACL writes the benchmark's ACL load into a fresh durable
// directory and closes it without a checkpoint, so dir holds the empty
// opening snapshot and a WAL of every statement. The statements commit
// asynchronously, so Close writes them all with one fsync.
func journalACL(tb testing.TB, dir, script string, opt authdb.Options) {
	tb.Helper()
	db, err := authdb.OpenDir(dir, opt)
	if err != nil {
		tb.Fatal(err)
	}
	admin := db.Engine().NewSession("admin", true)
	admin.SetAsyncCommit(true)
	if _, err := admin.ExecScript(script); err != nil {
		tb.Fatal(err)
	}
	if err := db.Close(); err != nil {
		tb.Fatal(err)
	}
}

// copyTree copies the regular files under src into dst.
func copyTree(tb testing.TB, src, dst string) {
	tb.Helper()
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
	if err != nil {
		tb.Fatal(err)
	}
}

// TestOpenDirReplayMatchesLoad checks recovery against the load it
// recovers: a directory holding the ACL load (seed 1) only in its WAL,
// reopened, answers show relations, show permissions and one statement
// of every acl_cold class byte for byte as the in-memory load does.
func TestOpenDirReplayMatchesLoad(t *testing.T) {
	acl := fixture.GenACL(1, fixture.DefaultACL())
	mem := authdb.Open()
	mem.Admin().MustExecScript(acl.Script)
	const u = 7
	answers := func(db *authdb.DB) []string {
		out := []string{
			db.Admin().MustExec("show relations").Render(),
			db.Admin().MustExec("show permissions").Render(),
		}
		for q := range fixture.ACLQueryNames {
			r, err := db.Session(fixture.Principal(u)).Exec(acl.Query(u, q))
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, r.Render())
		}
		return out
	}
	want := answers(mem)
	// Options.Storage accepts the empty default and "paged"; both open
	// the same statement-script directory.
	for _, tc := range []struct{ name, storage string }{{"default", ""}, {"paged", "paged"}} {
		t.Run(tc.name, func(t *testing.T) {
			opt := authdb.DefaultOptions()
			opt.Storage = tc.storage
			dir := t.TempDir()
			journalACL(t, dir, acl.Script, opt)
			db, err := authdb.OpenDir(dir, opt)
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			for i, got := range answers(db) {
				if got != want[i] {
					t.Fatalf("answer %d after replay:\n%s\nin-memory load:\n%s", i, got, want[i])
				}
			}
		})
	}
}

// BenchmarkOpenDirReplay measures recovery, which rides the statement
// path: opening a durable directory whose WAL holds the whole ACL load
// (seed 1) and no checkpoint replays every record through an
// administrator session, then takes the opening checkpoint, which a
// replayed record calls for.
func BenchmarkOpenDirReplay(b *testing.B) {
	src := b.TempDir()
	journalACL(b, src, fixture.GenACL(1, fixture.DefaultACL()).Script, authdb.DefaultOptions())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dir := b.TempDir()
		copyTree(b, src, dir)
		b.StartTimer()
		db, err := authdb.OpenDir(dir)
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if err := db.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}

// BenchmarkCommuteCheck measures E5: evaluating a mask meta-tuple as a
// view of the answer (the Figure 2 commutation check used by the
// Proposition property tests).
func BenchmarkCommuteCheck(b *testing.B) {
	f := workload.Paper()
	inst := f.Store.Of("Brown").Instantiate(map[string]int{"PROJECT": 1}, core.DefaultOptions())
	mr := inst.MetaRelFor("PROJECT", "PROJECT")
	base := f.Rels["PROJECT"].Head().Rename([]string{"PROJECT.NUMBER", "PROJECT.SPONSOR", "PROJECT.BUDGET"})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, mt := range mr.Tuples {
			mt.EvalOn(base)
		}
	}
}

// BenchmarkVsSystemR measures E6: a System R all-or-nothing check versus
// the full dual-pipeline masking decision on the same request.
func BenchmarkVsSystemR(b *testing.B) {
	f := workload.Paper()
	sr := sysr.New(f.Schema, f.Source, "dba")
	for _, name := range f.Store.ViewNames() {
		if err := sr.DefineView("dba", f.Store.Branches(name)[0].Def); err != nil {
			b.Fatal(err)
		}
	}
	if err := sr.GrantSelect("dba", "Klein", "ELP", false); err != nil {
		b.Fatal(err)
	}
	auth := core.NewAuthorizer(f.Store, f.Source, core.DefaultOptions())
	def := workload.MustQuery(workload.Example2Query)
	b.Run("systemr", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sr.Query("Klein", def) //nolint:errcheck // denial is the expected outcome
		}
	})
	b.Run("mask", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := auth.Retrieve("Klein", def); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkVsIngres measures E7: INGRES query modification versus masking
// on a covered single-relation request.
func BenchmarkVsIngres(b *testing.B) {
	f := workload.Paper()
	ing := qmod.New(f.Schema, f.Source)
	if err := ing.Permit(qmod.Permission{
		User: "Brown", Rel: "PROJECT",
		Attrs: []string{"NUMBER", "SPONSOR", "BUDGET"},
		Quals: []qmod.Qual{{Attr: "SPONSOR", Op: value.EQ, Const: value.String("Acme")}},
	}); err != nil {
		b.Fatal(err)
	}
	auth := core.NewAuthorizer(f.Store, f.Source, core.DefaultOptions())
	def := workload.MustQuery(workload.Example1Query)
	b.Run("ingres", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := ing.Query("Brown", def); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("mask", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := auth.Retrieve("Brown", def); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// ablationWorkload prepares E8's synthetic fixture and queries.
func ablationWorkload(b *testing.B) (*workload.Fixture, []*cview.Def) {
	b.Helper()
	cfg := workload.DefaultGen()
	cfg.Views, cfg.Relations, cfg.RowsPerRel = 6, 4, 96
	g := workload.Generate(cfg)
	qs := workload.GenQueries(cfg, workload.QueryConfig{
		Seed: 11, Count: 10, JoinWidth: 2, ExtraAttrProb: 0.3,
		RangeFraction: 0.7, DropSelAttrProb: 0.5, InsideProb: 0.6,
	}, g.ViewDefsFor("u0")...)
	return g, qs
}

func benchAblation(b *testing.B, mod func(*core.Options)) {
	b.Helper()
	g, qs := ablationWorkload(b)
	opt := core.DefaultOptions()
	mod(&opt)
	auth := core.NewAuthorizer(g.Store, g.Source, opt)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, q := range qs {
			if _, err := auth.Retrieve("u0", q); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkAblation measures E8: the cost of each §4.2 refinement
// configuration over the synthetic workload (10 queries per iteration).
func BenchmarkAblation(b *testing.B) {
	b.Run("default", func(b *testing.B) { benchAblation(b, func(*core.Options) {}) })
	b.Run("no-padding", func(b *testing.B) {
		benchAblation(b, func(o *core.Options) { o.Padding = false })
	})
	b.Run("no-fourcase", func(b *testing.B) {
		benchAblation(b, func(o *core.Options) { o.FourCase = false })
	})
	b.Run("no-selfjoins", func(b *testing.B) {
		benchAblation(b, func(o *core.Options) { o.SelfJoins = false })
	})
	b.Run("bare-definitions", func(b *testing.B) {
		benchAblation(b, func(o *core.Options) {
			o.Padding, o.FourCase, o.SelfJoins = false, false, false
		})
	})
}

// BenchmarkOverhead measures E9: plain execution versus the dual pipeline
// at several database sizes and view counts.
func BenchmarkOverhead(b *testing.B) {
	for _, rows := range []int{100, 1000, 5000} {
		for _, views := range []int{2, 8, 32} {
			cfg := workload.DefaultGen()
			cfg.Relations, cfg.RowsPerRel, cfg.Views, cfg.ViewJoinWidth = 3, rows, views, 2
			cfg.Users = []string{"u0"}
			g := workload.Generate(cfg)
			def := workload.GenQueries(cfg, workload.QueryConfig{
				Seed: 3, Count: 1, JoinWidth: 2, RangeFraction: 0.5,
			})[0]
			an, err := cview.Analyze(def, g.Schema)
			if err != nil {
				b.Fatal(err)
			}
			auth := core.NewAuthorizer(g.Store, g.Source, core.DefaultOptions())
			name := fmt.Sprintf("rows=%d/views=%d", rows, views)
			b.Run(name+"/exec-only", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := algebra.EvalPSJ(an.PSJ, g.Source, nil, algebra.ExecOptions{}, nil); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.Run(name+"/exec+mask", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := auth.RetrievePlan("u0", an.PSJ); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkExecNaiveVsOptimized measures E9's executor comparison: the
// paper's products→selections→projections order against pushdown with
// hash joins.
func BenchmarkExecNaiveVsOptimized(b *testing.B) {
	for _, rows := range []int{100, 1000} {
		cfg := workload.DefaultGen()
		cfg.Relations, cfg.RowsPerRel, cfg.Views = 3, rows, 2
		g := workload.Generate(cfg)
		def := workload.GenQueries(cfg, workload.QueryConfig{
			Seed: 3, Count: 1, JoinWidth: 2, RangeFraction: 0.5,
		})[0]
		an, err := cview.Analyze(def, g.Schema)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("rows=%d/naive", rows), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := algebra.EvalNaive(an.PSJ, g.Source, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("rows=%d/optimized", rows), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := algebra.EvalPSJ(an.PSJ, g.Source, nil, algebra.ExecOptions{}, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFourCase measures E10: the four-case interval analysis itself.
func BenchmarkFourCase(b *testing.B) {
	f := workload.NewFixture()
	f.MustExec(`
		relation P (N, BUDGET) key (N);
		view V (P.N, P.BUDGET) where P.BUDGET >= 300000 and P.BUDGET <= 600000;
		permit V to u;
	`)
	inst := f.Store.Of("u").Instantiate(map[string]int{"P": 1}, core.DefaultOptions())
	mr := inst.MetaRelFor("P", "P")
	atom := algebra.Atom{L: "P.BUDGET", Op: value.GE, R: algebra.ConstOp(value.Int(400000))}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.MetaSelect(mr, atom, inst, true); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtendedMasks measures E11: the §6(3) extension against the
// base pipeline on its motivating query.
func BenchmarkExtendedMasks(b *testing.B) {
	f := workload.Paper()
	def := workload.MustQuery(`retrieve (PROJECT.NUMBER, PROJECT.BUDGET)`)
	base := core.NewAuthorizer(f.Store, f.Source, core.DefaultOptions())
	extOpt := core.DefaultOptions()
	extOpt.ExtendedMasks = true
	ext := core.NewAuthorizer(f.Store, f.Source, extOpt)
	b.Run("base", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := base.Retrieve("Brown", def); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("extended", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := ext.Retrieve("Brown", def); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// example3 loads the benchmark's paper fixture and runs warm_wide's read
// once: Brown's Example 3, 3003 rows of four columns (12 012 cells). It
// returns Brown's session, whose next Exec of fixture.Example3 is a
// closure hit, and the first result.
func example3(tb testing.TB) (*authdb.Session, *authdb.Result) {
	tb.Helper()
	db := authdb.Open()
	if _, err := db.Admin().ExecScript(fixture.PaperScript(fixture.DefaultPaper())); err != nil {
		tb.Fatal(err)
	}
	s := db.Session("Brown")
	res, err := s.Exec(fixture.Example3)
	if err != nil {
		tb.Fatal(err)
	}
	return s, res
}

// TestClosureHitConvertAllocs bounds the allocations of warm_wide's read
// in process: a closure hit on Brown's Example 3 and its conversion to a
// Table. The masked answer is canonical when the closure stores it, so a
// hit converts it without sorting, into rows carved from one slab. Sorting
// a copy and allocating each row cost about 3100 allocations a read.
func TestClosureHitConvertAllocs(t *testing.T) {
	s, _ := example3(t)
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := s.Exec(fixture.Example3); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("closure hit on Example 3: %.0f allocations", allocs)
	if allocs > 150 {
		t.Errorf("closure hit on Example 3 allocated %.0f objects, want at most 150 (a sort and a row at a time: about 3100)", allocs)
	}
}

// TestClosureHitReplyAllocs bounds the allocations of the server's
// half of warm_wide's read: a closure hit on Brown's Example 3 and its
// reply, the entry's encoded section copied into a frame buffer with
// room, as internal/server does. Converting to Cells, then to cell text
// with one FormatInt per integer cell, cost about 6 094 allocations a
// read; encoding the delivered tuples on every hit, 33.
func TestClosureHitReplyAllocs(t *testing.T) {
	s, _ := example3(t)
	frame := serveWide(t, s, nil)
	allocs := testing.AllocsPerRun(10, func() { frame = serveWide(t, s, frame[:0]) })
	t.Logf("closure-hit reply to Example 3: %.0f allocations", allocs)
	if allocs > 28 {
		t.Errorf("closure-hit reply to Example 3 allocated %.0f objects, want at most 28 (encoding the tuples on every hit: 33)", allocs)
	}
}

// TestClosureRefreshAllocs bounds the allocations of a closure refresh
// in process: an append to the relation a single-scan entry reads, then
// the read that streams the appended row through the mask, merges it
// into the entry's delivered rows and converts them to a Table. The
// merge is one linear pass into one new array, so the read allocates as
// many objects over 2000 resident rows as over 200. Each appended row
// sorts before every resident one; the merged rows are canonical all the
// same, so the hit after a refresh allocates what any other hit does.
// While a refresh appended its rows behind the resident ones, that hit
// sorted a copy.
func TestClosureRefreshAllocs(t *testing.T) {
	measure := func(n int) (refresh, hitAfterRefresh, hit float64) {
		db := authdb.Open()
		admin := db.Admin()
		admin.MustExecScript(`relation T (A, B, C) key (A);
			view V (T.A, T.B) where T.B >= 3;
			permit V to u;`)
		var script strings.Builder
		for i := 0; i < n; i++ {
			fmt.Fprintf(&script, "insert into T values (%d, %d, %d);\n", i, i%7, i)
		}
		admin.MustExecScript(script.String())
		s := db.Session("u")
		read := func() {
			if _, err := s.Exec(`retrieve (T.A, T.B, T.C)`); err != nil {
				t.Fatal(err)
			}
		}
		next := -1
		appendRow := func() { // delivered, as (A, 5, null), and sorts first
			admin.MustExec(fmt.Sprintf("insert into T values (%d, 5, %d)", next, next))
			next--
		}
		read()
		hit = testing.AllocsPerRun(10, read)
		before := db.Engine().MaskClosureStats().Refreshes
		refresh = allocsAfter(10, appendRow, read)
		hitAfterRefresh = allocsAfter(10, func() { appendRow(); read() }, read)
		if got := db.Engine().MaskClosureStats().Refreshes - before; got != 20 {
			t.Fatalf("%d rows: %d of 20 appends refreshed the entry", n, got)
		}
		return refresh, hitAfterRefresh, hit
	}
	small, smallAfter, smallHit := measure(200)
	large, largeAfter, largeHit := measure(2000)
	t.Logf("refresh: %.0f allocations over 200 rows, %.0f over 2000; hit after a refresh %.0f and %.0f, before any refresh %.0f and %.0f",
		small, large, smallAfter, largeAfter, smallHit, largeHit)
	if small != large {
		t.Errorf("a refresh allocated %.0f objects over 200 resident rows but %.0f over 2000", small, large)
	}
	if small > 58 {
		t.Errorf("a refresh allocated %.0f objects, want at most 58 (59 while NewCanonical copied its attribute list)", small)
	}
	if smallAfter != smallHit || largeAfter != largeHit {
		t.Errorf("the hit after a refresh allocated %.0f and %.0f objects, a hit before any refresh %.0f and %.0f", smallAfter, largeAfter, smallHit, largeHit)
	}
}

// allocsAfter is testing.AllocsPerRun for f alone, each of runs calls
// after a call of prepare that is not counted.
func allocsAfter(runs int, prepare, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var ms runtime.MemStats
	var total uint64
	for i := 0; i < runs; i++ {
		prepare()
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		f()
		runtime.ReadMemStats(&ms)
		total += ms.Mallocs - before
	}
	return float64(total / uint64(runs))
}

// serveWide is the server's half of a warm_wide read: Brown's Example 3
// through Session.Reply, its frame appended to frame.
func serveWide(tb testing.TB, s *authdb.Session, frame []byte) []byte {
	resp, err := s.Reply(context.Background(), 1, fixture.Example3)
	if err != nil {
		tb.Fatal(err)
	}
	if frame, err = wire.AppendResponseFrame(frame, &resp); err != nil {
		tb.Fatal(err)
	}
	return frame
}

// BenchmarkServeWide measures the server's half of a warm_wide read: a
// closure-hit Session.Reply to Brown's Example 3 and its frame, the
// entry's encoded section copied into a reused buffer, as the server
// writes it.
func BenchmarkServeWide(b *testing.B) {
	s, _ := example3(b)
	var frame []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		frame = serveWide(b, s, frame[:0])
	}
}

// BenchmarkClientWide measures a whole warm_wide read over loopback:
// client.Exec of Brown's Example 3 against a server on the benchmark's
// paper fixture, which is the request, the closure hit and its frame,
// TCP, the one-pass decode and the render into Result.Rendered. Beside
// BenchmarkServeWide, BenchmarkReplyCodec's decode and
// BenchmarkRenderTable it shows what the in-process steps leave to the
// transport.
func BenchmarkClientWide(b *testing.B) {
	db := authdb.Open()
	defer db.Close()
	if _, err := db.Admin().ExecScript(fixture.PaperScript(fixture.DefaultPaper())); err != nil {
		b.Fatal(err)
	}
	srv := server.New(db, server.Config{})
	if err := srv.Start(); err != nil {
		b.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}()
	c, err := client.Dial(srv.Addr().String(), client.WithUser("Brown"))
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	// The first read fills the closure; every timed read is a hit.
	if _, err := c.Exec(ctx, fixture.Example3); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Exec(ctx, fixture.Example3); err != nil {
			b.Fatal(err)
		}
	}
}

// TestReplyFrameMatchesCellText is the writer differential on the
// paper's fixtures: for every user and query, the frame the server
// writes from the delivered tuples (Session.Reply) is byte for byte the
// frame of the same result's cell text (Result.Wire).
func TestReplyFrameMatchesCellText(t *testing.T) {
	queries := []string{
		workload.Example1Query, workload.Example2Query, workload.Example3Query,
		"retrieve (EMPLOYEE.NAME, EMPLOYEE.TITLE, EMPLOYEE.SALARY)",
		"retrieve (PROJECT.NUMBER, PROJECT.SPONSOR, PROJECT.BUDGET)",
		"retrieve (EMPLOYEE.NAME, PROJECT.NUMBER) where EMPLOYEE.NAME = ASSIGNMENT.E_NAME and PROJECT.NUMBER = ASSIGNMENT.P_NO",
		"retrieve (EMPLOYEE.NAME) where EMPLOYEE.SALARY > 99999999",
		"show permissions",
	}
	for _, script := range []string{workload.PaperScript, fixture.PaperScript(fixture.DefaultPaper())} {
		db := authdb.Open()
		db.Admin().MustExecScript(script)
		for _, user := range []string{"Brown", "Klein", "Nobody", "admin"} {
			s := db.SessionFor(user, user == "admin")
			for _, q := range queries {
				res, err := s.Exec(q)
				if err != nil {
					t.Fatalf("%s, %s: %v", user, q, err)
				}
				text := res.Wire(1)
				want, err := wire.AppendResponse(nil, &text)
				if err != nil {
					t.Fatal(err)
				}
				reply, err := s.Reply(context.Background(), 1, q)
				if err != nil {
					t.Fatal(err)
				}
				got, err := wire.AppendResponse(nil, &reply)
				if err != nil {
					t.Fatal(err)
				}
				if string(got) != string(want) {
					t.Errorf("%s, %s: the frame from tuples differs from the frame from cell text", user, q)
				}
			}
		}
	}
}

// TestReplyFrameSizes pins the frames of the benchmark's paper reads
// (bench/fixture), header included. Example 3's answer repeats each
// outer employee's cells down its run, so its table is front-coded:
// 63 914 bytes plain, 38 206 front-coded. Example 1's and Example 2's
// rows share no leading cell, so they stay plain, byte for byte as
// before front coding.
func TestReplyFrameSizes(t *testing.T) {
	db := authdb.Open()
	db.Admin().MustExecScript(fixture.PaperScript(fixture.DefaultPaper()))
	for _, c := range []struct {
		user, stmt string
		size       int
		front      bool
	}{
		{"Brown", fixture.Example1, 1058, false},
		{"Klein", fixture.Example2, 87, false},
		{"Brown", fixture.Example3, 38206, true},
	} {
		resp, err := db.Session(c.user).Reply(context.Background(), 1, c.stmt)
		if err != nil {
			t.Fatal(err)
		}
		frame, err := wire.AppendResponseFrame(nil, &resp)
		if err != nil {
			t.Fatal(err)
		}
		// The flags byte follows the length word and the one-byte ID.
		if front := frame[5]&0x80 != 0; len(frame) != c.size || front != c.front {
			t.Errorf("%s, %s: a %d-byte frame, front-coded %v; want %d bytes, front-coded %v",
				c.user, c.stmt, len(frame), front, c.size, c.front)
		}
	}
}

// BenchmarkRenderTable measures the client's table renderer on the
// answer warm_wide delivers: Brown's Example 3 on the benchmark's paper
// fixture, 3003 rows of four columns, rendered into a strings.Builder as
// the wire reply's Render does.
func BenchmarkRenderTable(b *testing.B) {
	_, res := example3(b)
	rows := make([][]string, len(res.Table.Rows))
	for i, r := range res.Table.Rows {
		rows[i] = make([]string, len(r))
		for j, c := range r {
			rows[i][j] = c.String()
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var sb strings.Builder
		relation.RenderTable(&sb, "", res.Table.Columns, rows, false)
	}
}

// BenchmarkReplyCodec measures the Response codec on the reply shapes
// the benchmark's reads deliver: Example 3's 3003 × 4 answer (warm_wide,
// 12 012 cells, front-coded) and principal u7's acl_cold org_list and
// group_join answers, each written from its delivered tuples into a
// reused buffer and decoded, as the server and the client do. The
// closure is off, so each reply carries its tuples: the encode is what
// the first reply to read a closure entry pays, and a later one copies
// its bytes. Each case reports its frame's payload size as frame_B/op.
func BenchmarkReplyCodec(b *testing.B) {
	paper := authdb.Open(authdb.Options{})
	paper.Admin().MustExecScript(fixture.PaperScript(fixture.DefaultPaper()))
	acl := fixture.GenACL(1, fixture.DefaultACL())
	db := authdb.Open(authdb.Options{})
	db.Admin().MustExecScript(acl.Script)
	const u = 7
	for _, c := range []struct {
		name string
		s    *authdb.Session
		stmt string
	}{
		{"example3", paper.Session("Brown"), fixture.Example3},
		{"org_list", db.Session(fixture.Principal(u)), acl.Query(u, fixture.QOrgList)},
		{"group_join", db.Session(fixture.Principal(u)), acl.Query(u, fixture.QGroupJoin)},
	} {
		resp, err := c.s.Reply(context.Background(), 1, c.stmt)
		if err != nil {
			b.Fatal(err)
		}
		frame, err := wire.AppendResponse(nil, &resp)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(c.name+"/encode", func(b *testing.B) {
			b.ReportAllocs()
			buf := make([]byte, 0, len(frame))
			for i := 0; i < b.N; i++ {
				buf, _ = wire.AppendResponse(buf[:0], &resp)
			}
			b.ReportMetric(float64(len(frame)), "frame_B/op")
		})
		b.Run(c.name+"/decode", func(b *testing.B) {
			b.ReportAllocs()
			var out wire.Response
			for i := 0; i < b.N; i++ {
				if err := wire.DecodeResponse(frame, &out); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(frame)), "frame_B/op")
		})
	}
}

// BenchmarkMaskApply isolates mask application on a larger answer.
func BenchmarkMaskApply(b *testing.B) {
	cfg := workload.DefaultGen()
	cfg.Relations, cfg.RowsPerRel, cfg.Views = 2, 5000, 2
	cfg.Users = []string{"u0"}
	g := workload.Generate(cfg)
	def := workload.GenQueries(cfg, workload.QueryConfig{Seed: 9, Count: 1, JoinWidth: 1, RangeFraction: 1})[0]
	auth := core.NewAuthorizer(g.Store, g.Source, core.DefaultOptions())
	d, err := auth.Retrieve("u0", def)
	if err != nil {
		b.Fatal(err)
	}
	ans, err := algebra.EvalNaive(d.PSJ, g.Source, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Mask.Apply(ans)
	}
}

// BenchmarkIndexedPointQuery measures the secondary-index path: a point
// selection on a large relation, against the same query with a range
// predicate that cannot use the index.
func BenchmarkIndexedPointQuery(b *testing.B) {
	cfg := workload.DefaultGen()
	cfg.Relations, cfg.RowsPerRel, cfg.Views = 1, 50000, 1
	g := workload.Generate(cfg)
	point := &algebra.PSJ{
		Scans: []algebra.Scan{{Rel: "R0", Alias: "R0"}},
		Preds: []algebra.Atom{{L: "R0.A0", Op: value.EQ, R: algebra.ConstOp(value.Int(12345))}},
		Cols:  []string{"R0.A0", "R0.A2"},
	}
	scan := &algebra.PSJ{
		Scans: []algebra.Scan{{Rel: "R0", Alias: "R0"}},
		Preds: []algebra.Atom{{L: "R0.A0", Op: value.GE, R: algebra.ConstOp(value.Int(12345))},
			{L: "R0.A0", Op: value.LE, R: algebra.ConstOp(value.Int(12345))}},
		Cols: []string{"R0.A0", "R0.A2"},
	}
	b.Run("indexed-eq", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := algebra.EvalPSJ(point, g.Source, nil, algebra.ExecOptions{}, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("scan-range", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := algebra.EvalPSJ(scan, g.Source, nil, algebra.ExecOptions{}, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAggregateQuery measures the grouped-fold path over the masked
// delivery (the §6 aggregate extension).
func BenchmarkAggregateQuery(b *testing.B) {
	db := authdb.Open()
	admin := db.Admin()
	admin.MustExecScript(workload.PaperScript)
	for i := 0; i < 2000; i++ {
		admin.MustExec(fmt.Sprintf("insert into EMPLOYEE values (e%04d, t%d, %d)", i, i%20, 20000+i))
	}
	admin.MustExec(`view ALL_EMP (EMPLOYEE.NAME, EMPLOYEE.TITLE, EMPLOYEE.SALARY)`)
	admin.MustExec(`permit ALL_EMP to agg`)
	s := db.Session("agg")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Exec(`retrieve (EMPLOYEE.TITLE, count(EMPLOYEE.NAME), avg(EMPLOYEE.SALARY))`); err != nil {
			b.Fatal(err)
		}
	}
}
