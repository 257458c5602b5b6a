package wal

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"io"
	"os"
	"testing"

	"authdb/internal/faultfs"
)

// memFS keeps the fuzz target's logs in memory, so an iteration costs no
// fsync. Only Create and ReadFile, all a log touches, are implemented.
type memFS struct {
	faultfs.FS
	files map[string][]byte
}

func (m memFS) Create(name string) (faultfs.File, error) {
	m.files[name] = nil
	return memFile{m, name}, nil
}

func (m memFS) ReadFile(name string) ([]byte, error) {
	b, ok := m.files[name]
	if !ok {
		return nil, os.ErrNotExist
	}
	return b, nil
}

type memFile struct {
	fs   memFS
	name string
}

func (f memFile) Write(p []byte) (int, error) {
	f.fs.files[f.name] = append(f.fs.files[f.name], p...)
	return len(p), nil
}
func (memFile) Read([]byte) (int, error) { return 0, io.EOF }
func (memFile) Sync() error              { return nil }
func (memFile) Close() error             { return nil }

// FuzzWALReplay feeds arbitrary bytes to Replay as a log file: it must
// never panic, and appending the records it delivers to a fresh log must
// reproduce exactly the prefix of the input it accepted — so replay
// never invents, alters or reorders a record — while the bytes past that
// prefix must not begin with one more intact record, so the prefix is
// the longest valid one. Seeds are a log with several records (one
// empty) and that log truncated, bit-flipped, with a foreign header,
// and with an oversize length word.
func FuzzWALReplay(f *testing.F) {
	fs := memFS{files: map[string][]byte{}}
	l, err := Create(fs, "seed.log")
	if err != nil {
		f.Fatal(err)
	}
	if err := l.AppendBatch([]string{"relation R (A)", "", "insert into R values (1)"}); err != nil {
		f.Fatal(err)
	}
	full := fs.files["seed.log"]
	f.Add(full)
	f.Add(full[:len(full)-3])
	f.Add(full[:len(magic)+5])
	flip := append([]byte(nil), full...)
	flip[len(flip)-1] ^= 0x40
	f.Add(flip)
	f.Add([]byte(magic))
	f.Add([]byte("AUTHDBWAL0\n"))
	f.Add([]byte{})
	huge := append([]byte(magic), make([]byte, 8)...)
	binary.LittleEndian.PutUint32(huge[len(magic):], MaxRecord+1)
	f.Add(huge)

	f.Fuzz(func(t *testing.T, data []byte) {
		fs := memFS{files: map[string][]byte{"in.log": data}}
		stmts, err := replayAll(fs, "in.log")
		if err != nil {
			t.Fatalf("replay: %v", err)
		}
		if !bytes.HasPrefix(data, []byte(magic)) {
			if len(stmts) != 0 {
				t.Fatalf("replayed %d records from a log without the header", len(stmts))
			}
			return
		}
		l, err := Create(fs, "out.log")
		if err != nil {
			t.Fatal(err)
		}
		if err := l.AppendBatch(stmts); err != nil {
			t.Fatal(err)
		}
		prefix := fs.files["out.log"]
		if !bytes.HasPrefix(data, prefix) {
			t.Fatalf("re-appending the %d replayed records does not reproduce the input's prefix", len(stmts))
		}
		// Read the next record's frame by the format's definition, not by
		// Replay, so a Replay that drops an intact record is caught too.
		if rest := data[len(prefix):]; len(rest) >= 8 {
			n := binary.LittleEndian.Uint32(rest)
			if n <= MaxRecord && uint64(len(rest)-8) >= uint64(n) &&
				crc32.ChecksumIEEE(rest[8:8+n]) == binary.LittleEndian.Uint32(rest[4:]) {
				t.Fatalf("replay stopped after %d records, before an intact one", len(stmts))
			}
		}
	})
}
