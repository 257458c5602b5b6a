//go:build unix

package engine

import (
	"strings"
	"testing"

	"authdb/internal/core"
)

// TestDirLockExcludesSecondOpen: two live engines on one directory
// would checkpoint and rotate generations under each other, orphaning
// the first engine's open WAL, so the second open must be refused
// outright — and succeed again once the first engine closes.
func TestDirLockExcludesSecondOpen(t *testing.T) {
	dir := t.TempDir()
	e, err := OpenDurable(dir, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if second, err := OpenDurable(dir, core.DefaultOptions()); err == nil {
		second.Close()
		t.Fatal("second OpenDurable succeeded while the first engine is live")
	} else if !strings.Contains(err.Error(), "locked by another process") {
		t.Fatalf("second open failed with %v; want the directory-lock error", err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	back, err := OpenDurable(dir, core.DefaultOptions())
	if err != nil {
		t.Fatalf("reopen after Close: %v", err)
	}
	// Double Close stays safe: the lock is released exactly once.
	if err := back.Close(); err != nil {
		t.Fatal(err)
	}
	if err := back.Close(); err != nil {
		t.Fatal(err)
	}
}
