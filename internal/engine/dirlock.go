package engine

import (
	"fmt"
	"os"
	"path/filepath"
)

// lockFileName guards a durable directory against two live engines.
// Without it a second OpenDurable of a directory another process still
// holds could take the opening checkpoint, rotate the generation, and
// remove the first engine's open WAL — the first engine keeps
// acknowledging writes into an unlinked inode (a durability hole) and
// WALTail, reading the rotated layout, reports an empty yet "complete"
// log to replication followers, silently stalling them.
const lockFileName = "LOCK"

// acquireDirLock takes an exclusive advisory lock on dir for the
// lifetime of the engine. It deliberately goes through the real OS
// rather than the engine's (possibly fault-injected) filesystem: the
// lock protects live process state, not durable bytes — it must not
// shift the fault-injection operation schedule, and the kernel drops it
// automatically when the holder dies, so crash recovery never has to
// break a stale lock.
func acquireDirLock(dir string) (*os.File, error) {
	f, err := os.OpenFile(filepath.Join(dir, lockFileName), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	if err := flockExclusive(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("database directory %s is locked by another process: %w", dir, err)
	}
	return f, nil
}

// releaseDirLock drops the lock; closing the descriptor releases the
// flock with it.
func releaseDirLock(f *os.File) {
	if f != nil {
		f.Close()
	}
}
