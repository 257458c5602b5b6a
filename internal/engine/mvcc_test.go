package engine

import (
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"authdb/internal/core"
	"authdb/internal/faultfs"
)

// The MVCC suite: lock-freedom of reads, version-exactness of commits,
// and the snapshot-isolation differential under permit/revoke churn.
// These tests live in the engine package because they assert on the
// lock and the head pointer directly.

// renderAnswer canonically renders a retrieve outcome (including a
// masked one) for byte-level comparison across engines.
func renderAnswer(res *Result, err error) string {
	if err != nil {
		return "ERR " + err.Error()
	}
	var b strings.Builder
	b.WriteString(strings.Join(res.Relation.Attrs, ","))
	b.WriteByte('\n')
	for _, t := range res.Relation.Tuples() {
		for _, v := range t {
			b.WriteString(v.String())
			b.WriteByte('|')
		}
		b.WriteByte('\n')
	}
	for _, p := range res.Permits {
		b.WriteString(p.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// mvccSetup is the fixture the MVCC tests share: one relation, a view
// over it, and the permit the churn writer toggles.
var mvccSetup = []string{
	`relation R (K, V) key (K)`,
	`insert into R values (1, a)`,
	`insert into R values (2, b)`,
	`insert into R values (3, c)`,
	`view VR (R.K, R.V) where R.K >= 1`,
	`permit VR to u`,
}

func mvccEngine(t *testing.T) *Engine {
	t.Helper()
	e := New(core.DefaultOptions())
	admin := e.NewSession("admin", true)
	for _, stmt := range mvccSetup {
		if _, err := admin.Exec(stmt); err != nil {
			t.Fatalf("%s: %v", stmt, err)
		}
	}
	return e
}

const mvccQuery = `retrieve (R.K, R.V) where R.K >= 1`

// TestPublishAllocsIndependentOfRelations bounds a commit's publish by
// two allocations — the version and its slice of relation heads — however
// many relations the schema holds.
func TestPublishAllocsIndependentOfRelations(t *testing.T) {
	for _, n := range []int{2, 32} {
		e := New(core.DefaultOptions())
		admin := e.NewSession("admin", true)
		for i := 0; i < n; i++ {
			if _, err := admin.Exec(fmt.Sprintf("relation R%d (A)", i)); err != nil {
				t.Fatal(err)
			}
		}
		e.mu.Lock()
		allocs := testing.AllocsPerRun(100, e.publishLocked)
		e.mu.Unlock()
		if allocs > 2 {
			t.Fatalf("publishing over %d relations allocated %.0f objects, want at most 2", n, allocs)
		}
		if r, err := e.headVersion().source(fmt.Sprintf("R%d", n-1)); err != nil || r.Arity() != 1 {
			t.Fatalf("published head lost relation R%d: %v", n-1, err)
		}
	}
}

// TestRetrieveRunsWhileWriterLockHeld proves a retrieve takes no engine
// lock: it must complete while the writer lock is held exclusively the
// whole time.
func TestRetrieveRunsWhileWriterLockHeld(t *testing.T) {
	e := mvccEngine(t)
	e.mu.Lock() // an in-flight writer owns the statement lock
	defer e.mu.Unlock()

	type out struct {
		res *Result
		err error
	}
	done := make(chan out, 1)
	go func() {
		res, err := e.NewSession("u", false).Exec(mvccQuery)
		done <- out{res, err}
	}()
	select {
	case o := <-done:
		if o.err != nil {
			t.Fatalf("retrieve under held writer lock: %v", o.err)
		}
		if o.res.Relation.Len() != 3 {
			t.Fatalf("retrieve delivered %d tuples, want 3", o.res.Relation.Len())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("retrieve blocked on the writer lock")
	}
}

// TestWritersCommitWhileReaderPinned proves the converse: a reader
// holding a pinned version (what any in-flight retrieve holds) cannot
// delay commits, and the pinned snapshot stays exactly what it was.
func TestWritersCommitWhileReaderPinned(t *testing.T) {
	e := mvccEngine(t)
	v := e.headVersion() // the long-running reader's pin
	before, err := v.snapshotFiles()
	if err != nil {
		t.Fatal(err)
	}

	admin := e.NewSession("admin", true)
	for i := 10; i < 30; i++ {
		start := time.Now()
		if _, err := admin.Exec(fmt.Sprintf(`insert into R values (%d, x%d)`, i, i)); err != nil {
			t.Fatal(err)
		}
		if d := time.Since(start); d > 5*time.Second {
			t.Fatalf("commit took %v with a reader pinned", d)
		}
	}

	after, err := v.snapshotFiles()
	if err != nil {
		t.Fatal(err)
	}
	for p := range before {
		if string(before[p]) != string(after[p]) {
			t.Fatalf("pinned version's %s changed under concurrent commits", p)
		}
	}
	head := e.headVersion()
	if r, err := head.source("R"); head == v || err != nil || r.Len() != 23 {
		t.Fatal("commits did not advance the head past the pinned version")
	}
}

// TestReaderSeesExactCommittedVersion checks the read-your-writes edge:
// a retrieve issued after commit N reports AtLSN >= N and contains the
// committed data — the swap is the commit point, there is no window
// where an acknowledged write is invisible.
func TestReaderSeesExactCommittedVersion(t *testing.T) {
	e := mvccEngine(t)
	admin := e.NewSession("admin", true)
	for i := 0; i < 20; i++ {
		if _, err := admin.Exec(fmt.Sprintf(`insert into R values (%d, y%d)`, 100+i, i)); err != nil {
			t.Fatal(err)
		}
		n := e.lsn.Load()
		res, err := admin.Exec(mvccQuery)
		if err != nil {
			t.Fatal(err)
		}
		if res.AtLSN < n {
			t.Fatalf("retrieve after commit %d pinned version %d", n, res.AtLSN)
		}
		if want := 3 + i + 1; res.Relation.Len() != want {
			t.Fatalf("retrieve after commit %d delivered %d tuples, want %d", n, res.Relation.Len(), want)
		}
		if seq, lsn := e.DBVersion(); lsn != n {
			t.Fatalf("head version (seq %d) embodies LSN %d, want %d", seq, lsn, n)
		}
	}
}

// TestReaderSeesCommittedVersionGroupCommit repeats the exactness check
// on a durable engine: Exec acknowledges only after the shared fsync,
// by which point the version must be published.
func TestReaderSeesCommittedVersionGroupCommit(t *testing.T) {
	e, err := OpenDurable(t.TempDir(), core.DefaultOptions(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	admin := e.NewSession("admin", true)
	if _, err := admin.Exec(`relation G (K) key (K)`); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := admin.Exec(fmt.Sprintf(`insert into G values (%d)`, i)); err != nil {
			t.Fatal(err)
		}
		n := e.lsn.Load()
		res, err := admin.Exec(`retrieve (G.K) where G.K >= 0`)
		if err != nil {
			t.Fatal(err)
		}
		if res.AtLSN < n || res.Relation.Len() != i+1 {
			t.Fatalf("after group commit %d: AtLSN %d, %d tuples (want >=%d, %d)",
				n, res.AtLSN, res.Relation.Len(), n, i+1)
		}
	}
}

// TestSnapshotIsolationChurn is the engine-level MVCC differential: one
// writer interleaves data inserts with permit/revoke churn while admin
// and masked-user readers retrieve concurrently. Every reader's answer,
// identified by its AtLSN, must be byte-identical to the answer a fresh
// engine gives after serially replaying exactly that statement prefix —
// a mid-churn retrieve reflects one version in full, never a mix.
func TestSnapshotIsolationChurn(t *testing.T) {
	e := mvccEngine(t)
	baseLSN := e.lsn.Load()

	// The single writer's committed statements, in order; statement i
	// (1-based) commits at LSN baseLSN+i.
	var script []string
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		admin := e.NewSession("admin", true)
		key := 1000
		for round := 0; round < 12; round++ {
			for _, stmt := range []string{
				fmt.Sprintf(`insert into R values (%d, w%d)`, key, key),
				`revoke VR from u`,
				fmt.Sprintf(`insert into R values (%d, w%d)`, key+1, key+1),
				`permit VR to u`,
			} {
				if _, err := admin.Exec(stmt); err != nil {
					panic(fmt.Sprintf("%s: %v", stmt, err))
				}
				script = append(script, stmt)
			}
			key += 2
		}
	}()

	type obs struct {
		lsn   uint64
		admin bool
		ans   string
	}
	var mu sync.Mutex
	var seen []obs
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			asAdmin := r%2 == 0
			s := e.NewSession("u", false)
			if asAdmin {
				s = e.NewSession("admin", true)
			}
			for i := 0; i < 15; i++ {
				res, err := s.Exec(mvccQuery)
				rendered := renderAnswer(res, err)
				lsn := uint64(0)
				if err == nil {
					lsn = res.AtLSN
				}
				mu.Lock()
				seen = append(seen, obs{lsn: lsn, admin: asAdmin, ans: rendered})
				mu.Unlock()
			}
		}(r)
	}
	wg.Wait()

	// Serial ground truth: replay each observed prefix into a fresh
	// engine and rerun the retrieve.
	truth := make(map[string]string)
	for _, o := range seen {
		if o.lsn < baseLSN || o.lsn > baseLSN+uint64(len(script)) {
			t.Fatalf("observed AtLSN %d outside the writer's range [%d, %d]",
				o.lsn, baseLSN, baseLSN+uint64(len(script)))
		}
		kind := "user"
		if o.admin {
			kind = "admin"
		}
		ck := fmt.Sprintf("%d/%s", o.lsn, kind)
		want, ok := truth[ck]
		if !ok {
			re := New(core.DefaultOptions())
			radmin := re.NewSession("admin", true)
			for _, stmt := range mvccSetup {
				if _, err := radmin.Exec(stmt); err != nil {
					t.Fatalf("replay setup %s: %v", stmt, err)
				}
			}
			for _, stmt := range script[:o.lsn-baseLSN] {
				if _, err := radmin.Exec(stmt); err != nil {
					t.Fatalf("replay %s: %v", stmt, err)
				}
			}
			rs := re.NewSession("u", false)
			if o.admin {
				rs = radmin
			}
			want = renderAnswer(rs.Exec(mvccQuery))
			truth[ck] = want
		}
		if o.ans != want {
			t.Fatalf("%s reader pinned at LSN %d diverged from serial replay:\ngot:\n%s\nwant:\n%s",
				kind, o.lsn, o.ans, want)
		}
	}
}

// TestMVCCReadWriteStress is the -race soak: concurrent readers (masked
// and admin), a data writer, and a permit churn writer all hammer one
// engine. The race detector proves pinned evaluation shares no mutable
// state with commits; the assertions prove answers are always whole
// versions (cardinality only ever grows with the LSN here, since the
// writer only inserts).
func TestMVCCReadWriteStress(t *testing.T) {
	e := mvccEngine(t)
	stop := make(chan struct{})
	var wg sync.WaitGroup

	wg.Add(1)
	go func() { // data writer
		defer wg.Done()
		admin := e.NewSession("admin", true)
		for i := 0; i < 400; i++ {
			if _, err := admin.Exec(fmt.Sprintf(`insert into R values (%d, s%d)`, 2000+i, i)); err != nil {
				panic(err)
			}
		}
		close(stop)
	}()
	wg.Add(1)
	go func() { // permit churn writer
		defer wg.Done()
		admin := e.NewSession("admin", true)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			stmt := `revoke VR from u`
			if i%2 == 1 {
				stmt = `permit VR to u`
			}
			if _, err := admin.Exec(stmt); err != nil {
				panic(err)
			}
		}
	}()

	errs := make(chan error, 8)
	for r := 0; r < 6; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			s := e.NewSession("u", false)
			if r%2 == 0 {
				s = e.NewSession("admin", true)
			}
			lastLSN, lastLen := uint64(0), -1
			for {
				select {
				case <-stop:
					return
				default:
				}
				res, err := s.Exec(mvccQuery)
				if err != nil {
					errs <- err
					return
				}
				// Monotone reads per session, and (insert-only data writer)
				// admin cardinality monotone in the LSN.
				if res.AtLSN < lastLSN {
					errs <- fmt.Errorf("AtLSN went backwards: %d after %d", res.AtLSN, lastLSN)
					return
				}
				if r%2 == 0 && res.Relation.Len() < lastLen {
					errs <- fmt.Errorf("admin answer shrank from %d to %d tuples under insert-only writes", lastLen, res.Relation.Len())
					return
				}
				lastLSN, lastLen = res.AtLSN, res.Relation.Len()
			}
		}(r)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestCrashAroundVersionSwap arms a filesystem fault at every operation
// index across the scenario, and checks both sides of the swap: the
// live engine's published head stays a consistent statement-history
// state at least as new as everything acknowledged (the swap happens
// even when journaling fails, preserving read-your-writes on a broken
// engine), and recovery lands on a durable prefix no older than the
// acknowledged statements.
func TestCrashAroundVersionSwap(t *testing.T) {
	refs := referenceStates(t)
	isPrefixState := func(fp string) int {
		for i := len(refs) - 1; i >= 0; i-- {
			if fp == refs[i] {
				return i
			}
		}
		return -1
	}
	base := t.TempDir()
	for k := 0; ; k++ {
		if k > 10000 {
			t.Fatal("sweep did not terminate; fault never stopped tripping")
		}
		dir := filepath.Join(base, fmt.Sprintf("swap-%d", k))
		fs := faultfs.NewFaulty(faultfs.OS())
		fs.Arm(k)

		e, err := OpenDurableFS(fs, dir, core.DefaultOptions(), 0)
		applied := -1
		if err == nil {
			applied = 0
			admin := e.NewSession("admin", true)
			for _, stmt := range durableScenario {
				if _, err := admin.Exec(stmt); err != nil {
					break
				}
				applied++
			}
			// The live head (even of a broken engine) must render a real
			// history state covering every acknowledged statement.
			live := isPrefixState(fingerprint(t, e))
			if live < 0 {
				t.Fatalf("k=%d: live head is not a statement-history state", k)
			}
			if live < applied {
				t.Fatalf("k=%d: live head at state %d is behind %d acknowledged statement(s)", k, live, applied)
			}
			if _, lsn := e.DBVersion(); lsn != e.lsn.Load() {
				t.Fatalf("k=%d: head version LSN %d trails the statement counter %d", k, lsn, e.lsn.Load())
			}
		}
		tripped := fs.Tripped()
		if e != nil {
			e.Close()
		}

		re, err := OpenDurable(dir, core.DefaultOptions(), 0)
		if err != nil {
			t.Fatalf("k=%d: recovery failed: %v", k, err)
		}
		got := isPrefixState(fingerprint(t, re))
		if got < 0 {
			t.Fatalf("k=%d: recovered state is not a prefix of the history", k)
		}
		if applied >= 0 && got < applied {
			t.Fatalf("k=%d: recovery lost %d acknowledged statement(s)", k, applied-got)
		}
		re.Close()

		if !tripped {
			break
		}
	}
}
