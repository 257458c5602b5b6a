package engine

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"authdb/internal/core"
	"authdb/internal/faultfs"
	"authdb/internal/wal"
)

func TestEpochDefaultAndBump(t *testing.T) {
	e := New(core.DefaultOptions())
	if got := e.Epoch(); got != 1 {
		t.Fatalf("fresh engine epoch = %d, want 1", got)
	}
	admin := e.NewSession("admin", true)
	if _, err := admin.Exec(`relation R (A)`); err != nil {
		t.Fatal(err)
	}
	if _, err := admin.Exec(`insert into R values (x)`); err != nil {
		t.Fatal(err)
	}
	ep, err := e.BumpEpoch()
	if err != nil || ep != 2 {
		t.Fatalf("BumpEpoch = %d, %v, want 2, nil", ep, err)
	}
	hist := e.EpochHistory()
	if len(hist) != 2 || hist[1] != (EpochEntry{Epoch: 2, StartLSN: 2}) {
		t.Fatalf("history = %v, want [{1 0} {2 2}]", hist)
	}
}

func TestEpochPersistsAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	e, err := OpenDurable(dir, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	admin := e.NewSession("admin", true)
	if _, err := admin.Exec(`relation R (A)`); err != nil {
		t.Fatal(err)
	}
	if _, err := e.BumpEpoch(); err != nil {
		t.Fatal(err)
	}
	if _, err := admin.Exec(`insert into R values (x)`); err != nil {
		t.Fatal(err)
	}
	if _, err := e.BumpEpoch(); err != nil {
		t.Fatal(err)
	}
	wantHist := e.EpochHistory()
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	e2, err := OpenDurable(dir, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	if got := e2.Epoch(); got != 3 {
		t.Fatalf("reopened epoch = %d, want 3", got)
	}
	gotHist := e2.EpochHistory()
	if len(gotHist) != len(wantHist) {
		t.Fatalf("reopened history = %v, want %v", gotHist, wantHist)
	}
	for i := range wantHist {
		if gotHist[i] != wantHist[i] {
			t.Fatalf("reopened history = %v, want %v", gotHist, wantHist)
		}
	}
}

func TestForkLSNMultiHop(t *testing.T) {
	e := New(core.DefaultOptions())
	// Epochs 2 at LSN 10, 3 at 50, 4 at 100 (adopted wholesale, as a
	// follower would from a handshake).
	if err := e.AdoptEpochHistory([]EpochEntry{
		{Epoch: 1, StartLSN: 0}, {Epoch: 2, StartLSN: 10},
		{Epoch: 3, StartLSN: 50}, {Epoch: 4, StartLSN: 100},
	}); err != nil {
		t.Fatal(err)
	}
	// A node stuck on epoch 2 forked where epoch 3 began — not where the
	// current epoch began; anything it applied past 50 is divergent even
	// though the newest promotion happened at 100.
	cases := []struct {
		stale, fork uint64
		ok          bool
	}{
		{0, 0, true}, // epoch 0 never exists: forks at epoch 1's start
		{1, 10, true},
		{2, 50, true},
		{3, 100, true},
		{4, 0, false},
		{9, 0, false},
	}
	for _, c := range cases {
		fork, ok := e.ForkLSN(c.stale)
		if ok != c.ok || fork != c.fork {
			t.Errorf("ForkLSN(%d) = %d, %v, want %d, %v", c.stale, fork, ok, c.fork, c.ok)
		}
	}
}

func TestForkLSNStaleZeroFindsEpochOne(t *testing.T) {
	e := New(core.DefaultOptions())
	// Epoch 0 never exists; the first entry (epoch 1, LSN 0) is already
	// above it, so a malformed hello epoch of 0 forks at 0 — maximally
	// conservative.
	fork, ok := e.ForkLSN(0)
	if !ok || fork != 0 {
		t.Fatalf("ForkLSN(0) = %d, %v, want 0, true", fork, ok)
	}
}

func TestAdoptEpochHistoryRejectsRegression(t *testing.T) {
	e := New(core.DefaultOptions())
	if _, err := e.BumpEpoch(); err != nil {
		t.Fatal(err)
	}
	if _, err := e.BumpEpoch(); err != nil {
		t.Fatal(err)
	}
	err := e.AdoptEpochHistory([]EpochEntry{{Epoch: 1, StartLSN: 0}, {Epoch: 2, StartLSN: 0}})
	if err == nil || !strings.Contains(err.Error(), "regress") {
		t.Fatalf("adopting a lower history = %v, want regression error", err)
	}
	if err := e.AdoptEpochHistory(nil); err == nil {
		t.Fatal("adopting an empty history succeeded")
	}
	if err := e.AdoptEpochHistory([]EpochEntry{{Epoch: 3, StartLSN: 5}, {Epoch: 3, StartLSN: 5}}); err == nil {
		t.Fatal("adopting a non-increasing history succeeded")
	}
}

func TestRoleReadOnlyFencesExistingSessions(t *testing.T) {
	e := New(core.DefaultOptions())
	admin := e.NewSession("admin", true)
	if _, err := admin.Exec(`relation R (A)`); err != nil {
		t.Fatal(err)
	}
	// The session predates the fence; demotion must still stop it.
	e.SetRoleReadOnly(true)
	_, err := admin.Exec(`insert into R values (x)`)
	if !errors.Is(err, ErrReadOnly) {
		t.Fatalf("write on role-fenced engine = %v, want ErrReadOnly", err)
	}
	// Reads keep working.
	if _, err := admin.Exec(`retrieve (R.A)`); err != nil {
		t.Fatalf("read on role-fenced engine: %v", err)
	}
	// An applier session bypasses the fence.
	ap := e.NewSession("admin", true)
	ap.SetApplier(true)
	if _, err := ap.Exec(`insert into R values (y)`); err != nil {
		t.Fatalf("applier write on role-fenced engine: %v", err)
	}
	e.SetRoleReadOnly(false)
	if _, err := admin.Exec(`insert into R values (z)`); err != nil {
		t.Fatalf("write after unfencing: %v", err)
	}
}

func TestOriginWritesByEpochExcludesApplier(t *testing.T) {
	e := New(core.DefaultOptions())
	admin := e.NewSession("admin", true)
	if _, err := admin.Exec(`relation R (A)`); err != nil {
		t.Fatal(err)
	}
	ap := e.NewSession("admin", true)
	ap.SetApplier(true)
	if _, err := ap.Exec(`insert into R values (replicated)`); err != nil {
		t.Fatal(err)
	}
	if got := e.OriginWritesByEpoch(); got[1] != 1 {
		t.Fatalf("origin writes = %v, want 1 in epoch 1 (applier excluded)", got)
	}
	if _, err := e.BumpEpoch(); err != nil {
		t.Fatal(err)
	}
	if _, err := admin.Exec(`insert into R values (local)`); err != nil {
		t.Fatal(err)
	}
	got := e.OriginWritesByEpoch()
	if got[1] != 1 || got[2] != 1 {
		t.Fatalf("origin writes = %v, want {1:1 2:1}", got)
	}
}

func TestQuarantineDiverged(t *testing.T) {
	dir := t.TempDir()
	e, err := OpenDurable(dir, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	admin := e.NewSession("admin", true)
	stmts := []string{
		`relation R (A)`,
		`insert into R values (one)`,
		`insert into R values (two)`,
		`insert into R values (three)`,
	}
	for _, s := range stmts {
		if _, err := admin.Exec(s); err != nil {
			t.Fatalf("%s: %v", s, err)
		}
	}
	// Fork after LSN 2: statements 3 and 4 are divergent.
	qdir, err := e.QuarantineDiverged(2)
	if err != nil {
		t.Fatal(err)
	}
	if qdir == "" {
		t.Fatal("no quarantine directory for a divergent suffix")
	}
	got, err := wal.ReplayAll(faultfs.OS(), filepath.Join(qdir, "DIVERGED.log"))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || !strings.Contains(got[0], "two") || !strings.Contains(got[1], "three") {
		t.Fatalf("quarantined suffix = %q, want statements 3 and 4", got)
	}
	info, err := os.ReadFile(filepath.Join(qdir, "INFO"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(info), "fork 2") || !strings.Contains(string(info), "lsn 4") {
		t.Fatalf("INFO = %q", info)
	}

	// Nothing past the fork → no quarantine.
	qdir2, err := e.QuarantineDiverged(e.LSN())
	if err != nil {
		t.Fatal(err)
	}
	if qdir2 != "" {
		t.Fatalf("quarantine with nothing past fork = %q, want none", qdir2)
	}
}

func TestQuarantineDivergedSurvivesCheckpointFold(t *testing.T) {
	dir := t.TempDir()
	e, err := OpenDurable(dir, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	admin := e.NewSession("admin", true)
	for _, s := range []string{
		`relation R (A)`,
		`insert into R values (one)`,
		`insert into R values (two)`,
	} {
		if _, err := admin.Exec(s); err != nil {
			t.Fatal(err)
		}
	}
	// Checkpoint folds the WAL into the snapshot: the divergent suffix
	// can no longer be isolated as statements, so the whole state must be
	// preserved.
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	qdir, err := e.QuarantineDiverged(1)
	if err != nil {
		t.Fatal(err)
	}
	if qdir == "" {
		t.Fatal("no quarantine directory")
	}
	data, err := os.ReadFile(filepath.Join(qdir, "state", "data.authdb"))
	if err != nil {
		t.Fatalf("quarantined state dump missing: %v", err)
	}
	if !strings.Contains(string(data), "insert into R values (two);") {
		t.Fatalf("state dump = %q, want the divergent tuple", data)
	}

	// A later checkpoint must not reclaim the quarantine.
	if _, err := admin.Exec(`insert into R values (three)`); err != nil {
		t.Fatal(err)
	}
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(qdir); err != nil {
		t.Fatalf("quarantine reclaimed by checkpoint: %v", err)
	}
}

func TestEpochFileRoundTrip(t *testing.T) {
	hist := []EpochEntry{{Epoch: 1, StartLSN: 0}, {Epoch: 4, StartLSN: 41}}
	got, err := parseEpochHist(renderEpochHist(hist))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != hist[0] || got[1] != hist[1] {
		t.Fatalf("round trip = %v, want %v", got, hist)
	}
	if _, err := parseEpochHist([]byte("bogus\n")); err == nil {
		t.Fatal("malformed EPOCH parsed")
	}
}
