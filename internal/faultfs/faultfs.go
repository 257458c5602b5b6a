// Package faultfs abstracts the filesystem operations the persistence
// layer performs and provides a fault-injecting implementation for
// crash-safety tests.
//
// The engine's snapshot and WAL code run against the FS interface; in
// production it is backed by the real OS filesystem, and in tests by a
// Faulty wrapper that fails (optionally with a short write) at an exact
// mutating operation and refuses all further writes — simulating a
// process crash at every possible point of a save or log append.
package faultfs

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"sync"
)

// ErrInjected is the error returned by a Faulty filesystem at and after
// its tripping point.
var ErrInjected = errors.New("faultfs: injected failure")

// File is the subset of *os.File the persistence layer needs.
type File interface {
	io.Writer
	// Sync flushes the file's contents to stable storage.
	Sync() error
	Close() error
}

// FS is the filesystem surface used by snapshots and the WAL.
type FS interface {
	// Create truncates or creates the named file for writing.
	Create(name string) (File, error)
	// Append opens the existing named file for writing at its end.
	Append(name string) (File, error)
	ReadFile(name string) ([]byte, error)
	MkdirAll(path string, perm os.FileMode) error
	Rename(oldpath, newpath string) error
	Remove(name string) error
	RemoveAll(path string) error
	ReadDir(name string) ([]fs.DirEntry, error)
	Stat(name string) (fs.FileInfo, error)
	// SyncDir fsyncs a directory so renames and creations in it are
	// durable.
	SyncDir(path string) error
}

// osFS is the real filesystem.
type osFS struct{}

// OS returns the real filesystem.
func OS() FS { return osFS{} }

func (osFS) Create(name string) (File, error) { return os.Create(name) }
func (osFS) Append(name string) (File, error) { return os.OpenFile(name, os.O_WRONLY|os.O_APPEND, 0) }

func (osFS) ReadFile(name string) ([]byte, error)       { return os.ReadFile(name) }
func (osFS) MkdirAll(p string, m os.FileMode) error     { return os.MkdirAll(p, m) }
func (osFS) Rename(o, n string) error                   { return os.Rename(o, n) }
func (osFS) Remove(name string) error                   { return os.Remove(name) }
func (osFS) RemoveAll(path string) error                { return os.RemoveAll(path) }
func (osFS) ReadDir(name string) ([]fs.DirEntry, error) { return os.ReadDir(name) }
func (osFS) Stat(name string) (fs.FileInfo, error)      { return os.Stat(name) }

func (osFS) SyncDir(path string) error {
	d, err := os.Open(path)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// Faulty wraps an FS and injects a failure at the k-th mutating
// operation after Arm(k). Mutating operations are Create, Append, Write,
// Sync, SyncDir, MkdirAll, Rename, Remove and RemoveAll; reads are never
// failed. Once tripped, every further mutating operation fails too (a
// crashed process performs no more writes), so a test observes exactly
// the on-disk state at the failure point. With ShortWrites, the tripping
// operation — when it is a Write — persists only half its payload before
// failing, modelling a torn write.
type Faulty struct {
	inner FS
	// ShortWrites makes the tripping Write persist a prefix of its
	// payload.
	ShortWrites bool

	mu      sync.Mutex
	armed   bool
	left    int // mutating operations remaining before the trip
	tripped bool
	ops     int // total mutating operations observed since Arm/Reset
}

// NewFaulty wraps inner; the result is transparent until Arm is called.
func NewFaulty(inner FS) *Faulty { return &Faulty{inner: inner} }

// Arm schedules the injected failure at the k-th (0-based) mutating
// operation from now and resets the operation counter.
func (f *Faulty) Arm(k int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.armed, f.left, f.tripped, f.ops = true, k, false, 0
}

// Disarm stops injection; the wrapper becomes transparent again.
func (f *Faulty) Disarm() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.armed, f.tripped = false, false
}

// Ops reports the mutating operations observed since the last Arm.
func (f *Faulty) Ops() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.ops
}

// Tripped reports whether the injected failure has fired.
func (f *Faulty) Tripped() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.tripped
}

// step accounts one mutating operation; it reports whether the operation
// must fail, and whether this very operation is the tripping one (for
// short writes).
func (f *Faulty) step() (fail, atTrip bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.ops++
	if !f.armed {
		return false, false
	}
	if f.tripped {
		return true, false
	}
	if f.left == 0 {
		f.tripped = true
		return true, true
	}
	f.left--
	return false, false
}

func (f *Faulty) Create(name string) (File, error) { return f.open("create", name, f.inner.Create) }
func (f *Faulty) Append(name string) (File, error) { return f.open("append", name, f.inner.Append) }

// open is a mutating operation opening name for writing through open.
func (f *Faulty) open(op, name string, open func(string) (File, error)) (File, error) {
	if fail, _ := f.step(); fail {
		return nil, fmt.Errorf("%w: %s %s", ErrInjected, op, name)
	}
	file, err := open(name)
	if err != nil {
		return nil, err
	}
	return &faultyFile{f: f, inner: file, name: name}, nil
}

func (f *Faulty) ReadFile(name string) ([]byte, error) { return f.inner.ReadFile(name) }
func (f *Faulty) ReadDir(name string) ([]fs.DirEntry, error) {
	return f.inner.ReadDir(name)
}
func (f *Faulty) Stat(name string) (fs.FileInfo, error) { return f.inner.Stat(name) }

func (f *Faulty) MkdirAll(path string, perm os.FileMode) error {
	if fail, _ := f.step(); fail {
		return fmt.Errorf("%w: mkdir %s", ErrInjected, path)
	}
	return f.inner.MkdirAll(path, perm)
}

func (f *Faulty) Rename(oldpath, newpath string) error {
	if fail, _ := f.step(); fail {
		return fmt.Errorf("%w: rename %s", ErrInjected, newpath)
	}
	return f.inner.Rename(oldpath, newpath)
}

func (f *Faulty) Remove(name string) error {
	if fail, _ := f.step(); fail {
		return fmt.Errorf("%w: remove %s", ErrInjected, name)
	}
	return f.inner.Remove(name)
}

func (f *Faulty) RemoveAll(path string) error {
	if fail, _ := f.step(); fail {
		return fmt.Errorf("%w: removeall %s", ErrInjected, path)
	}
	return f.inner.RemoveAll(path)
}

func (f *Faulty) SyncDir(path string) error {
	if fail, _ := f.step(); fail {
		return fmt.Errorf("%w: syncdir %s", ErrInjected, path)
	}
	return f.inner.SyncDir(path)
}

// faultyFile threads write/sync faults through an open file.
type faultyFile struct {
	f     *Faulty
	inner File
	name  string
}

func (w *faultyFile) Write(p []byte) (int, error) {
	fail, atTrip := w.f.step()
	if !fail {
		return w.inner.Write(p)
	}
	if atTrip && w.f.ShortWrites && len(p) > 1 {
		n, _ := w.inner.Write(p[:len(p)/2])
		return n, fmt.Errorf("%w: short write %s", ErrInjected, w.name)
	}
	return 0, fmt.Errorf("%w: write %s", ErrInjected, w.name)
}

func (w *faultyFile) Sync() error {
	if fail, _ := w.f.step(); fail {
		return fmt.Errorf("%w: sync %s", ErrInjected, w.name)
	}
	return w.inner.Sync()
}

// Close never fails injection: a crashed process's descriptors close
// implicitly, and failing Close would only mask the interesting faults.
func (w *faultyFile) Close() error { return w.inner.Close() }
