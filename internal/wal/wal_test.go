package wal

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"authdb/internal/faultfs"
)

// replayAll collects the statements of the valid prefix.
func replayAll(fs faultfs.FS, path string) ([]string, error) {
	var out []string
	_, err := Replay(fs, path, func(_ int, stmt string) error {
		out = append(out, stmt)
		return nil
	})
	return out, err
}

func TestAppendReplayRoundTrip(t *testing.T) {
	fs := faultfs.OS()
	path := filepath.Join(t.TempDir(), "wal.log")
	l, err := Create(fs, path)
	if err != nil {
		t.Fatal(err)
	}
	stmts := []string{
		"insert into EMPLOYEE values (Jones, manager, 26000)",
		"permit SAE to Brown",
		"delete from PROJECT where NUMBER = bq-45",
		"", // empty statement record must round-trip too
		"view W (EMPLOYEE.NAME)\nwhere EMPLOYEE.SALARY >= 10",
	}
	for _, s := range stmts {
		if err := l.AppendBatch([]string{s}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := replayAll(fs, path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, stmts) {
		t.Fatalf("replay = %q, want %q", got, stmts)
	}
}

func TestReplayMissingFile(t *testing.T) {
	got, err := replayAll(faultfs.OS(), filepath.Join(t.TempDir(), "nope.log"))
	if err != nil || len(got) != 0 {
		t.Fatalf("got %v, %v", got, err)
	}
}

// TestTruncatedTailYieldsPrefix cuts the log at every byte offset and
// checks replay returns a prefix of the appended statements.
func TestTruncatedTailYieldsPrefix(t *testing.T) {
	fs := faultfs.OS()
	dir := t.TempDir()
	path := filepath.Join(dir, "wal.log")
	l, err := Create(fs, path)
	if err != nil {
		t.Fatal(err)
	}
	stmts := []string{"alpha", "bravo charlie", "delta"}
	for _, s := range stmts {
		if err := l.AppendBatch([]string{s}); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cut := filepath.Join(dir, "cut.log")
	for n := 0; n <= len(full); n++ {
		if err := os.WriteFile(cut, full[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := replayAll(fs, cut)
		if err != nil {
			t.Fatalf("cut at %d: %v", n, err)
		}
		if len(got) > len(stmts) {
			t.Fatalf("cut at %d: more records than written", n)
		}
		for i, s := range got {
			if s != stmts[i] {
				t.Fatalf("cut at %d: record %d = %q, want %q", n, i, s, stmts[i])
			}
		}
	}
}

// TestCorruptRecordStopsReplay flips one byte at every offset; replay
// must never yield a statement that was not written.
func TestCorruptRecordStopsReplay(t *testing.T) {
	fs := faultfs.OS()
	dir := t.TempDir()
	path := filepath.Join(dir, "wal.log")
	l, err := Create(fs, path)
	if err != nil {
		t.Fatal(err)
	}
	stmts := []string{"one", "two", "three"}
	for _, s := range stmts {
		if err := l.AppendBatch([]string{s}); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, s := range stmts {
		seen[s] = true
	}
	mut := filepath.Join(dir, "mut.log")
	for off := 0; off < len(full); off++ {
		data := append([]byte(nil), full...)
		data[off] ^= 0x5a
		if err := os.WriteFile(mut, data, 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := replayAll(fs, mut)
		if err != nil {
			t.Fatalf("flip at %d: %v", off, err)
		}
		for _, s := range got {
			if !seen[s] {
				t.Fatalf("flip at %d fabricated record %q", off, s)
			}
		}
	}
}

func TestOversizeRecordRejected(t *testing.T) {
	fs := faultfs.OS()
	l, err := Create(fs, filepath.Join(t.TempDir(), "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.AppendBatch([]string{string(make([]byte, MaxRecord+1))}); err == nil {
		t.Fatal("oversize append must fail")
	}
}
