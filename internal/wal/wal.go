// Package wal implements an append-only, checksummed statement log.
//
// The engine appends every acknowledged mutating statement to the log;
// recovery replays the log over the last good snapshot. The format is
// deliberately dumb — a magic header followed by length-prefixed,
// CRC32-guarded records:
//
//	"AUTHDBWAL1\n"
//	repeat: uint32le payload length | uint32le CRC32(payload) | payload
//
// A reader accepts the longest valid prefix: a truncated header, a
// torn length/checksum word, a short payload, or a checksum mismatch
// all terminate replay silently at the last intact record, which is
// exactly the crash-recovery contract ("the database reloads to a
// consistent prefix of the statement history").
package wal

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"authdb/internal/faultfs"
)

// magic identifies and versions the log format.
const magic = "AUTHDBWAL1\n"

// MaxRecord bounds one record's payload; larger length words are treated
// as corruption (they terminate replay) rather than allocated.
const MaxRecord = 16 << 20

// Log is an open write handle on a statement log.
type Log struct {
	f faultfs.File
}

// Create truncates or creates the log at path, writes the header, and
// syncs it. The returned Log is ready for AppendBatch.
func Create(fs faultfs.FS, path string) (*Log, error) {
	f, err := fs.Create(path)
	if err != nil {
		return nil, fmt.Errorf("wal: create %s: %w", path, err)
	}
	if _, err := f.Write([]byte(magic)); err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: write header: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: sync header: %w", err)
	}
	return &Log{f: f}, nil
}

// Reopen opens the log at path for AppendBatch when it holds the header
// and no record; otherwise — a record, a torn header, no file — ok is
// false and nothing is opened.
func Reopen(fs faultfs.FS, path string) (l *Log, ok bool, err error) {
	data, err := fs.ReadFile(path)
	if err != nil || string(data) != magic {
		return nil, false, nil
	}
	f, err := fs.Append(path)
	if err != nil {
		return nil, false, fmt.Errorf("wal: reopen %s: %w", path, err)
	}
	return &Log{f: f}, true, nil
}

// AppendBatch writes a run of statement records with one Write and one
// Sync — the group-commit primitive: n concurrent statements cost one
// fsync instead of n. All records are durable once it returns nil; on
// error the tail may be torn and the handle must be treated as broken
// (a reader still recovers the valid prefix, so a crash mid-batch keeps
// a prefix of the batch, never a hole).
func (l *Log) AppendBatch(stmts []string) error {
	var rec []byte
	for _, stmt := range stmts {
		payload := []byte(stmt)
		if len(payload) > MaxRecord {
			return fmt.Errorf("wal: statement of %d bytes exceeds record limit", len(payload))
		}
		var hdr [8]byte
		binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
		binary.LittleEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(payload))
		// One Write call for the whole batch keeps the torn-write window
		// as small as the filesystem allows; correctness never depends
		// on it.
		rec = append(rec, hdr[:]...)
		rec = append(rec, payload...)
	}
	if len(rec) == 0 {
		return nil
	}
	if _, err := l.f.Write(rec); err != nil {
		return fmt.Errorf("wal: append: %w", err)
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: sync: %w", err)
	}
	return nil
}

// Close closes the underlying file.
func (l *Log) Close() error {
	if l.f == nil {
		return nil
	}
	err := l.f.Close()
	l.f = nil
	return err
}

// Replay reads the longest valid prefix of the log at path and calls fn
// for each record in order. A missing file replays zero records. fn's
// error aborts the replay and is returned; corruption or truncation of
// the tail is not an error. The number of records delivered is returned.
func Replay(fs faultfs.FS, path string, fn func(i int, stmt string) error) (int, error) {
	data, err := fs.ReadFile(path)
	if err != nil {
		// A missing log means no statements since the snapshot.
		return 0, nil
	}
	if !bytes.HasPrefix(data, []byte(magic)) {
		return 0, nil // foreign or torn header: empty prefix
	}
	off := len(magic)
	n := 0
	for {
		if len(data)-off < 8 {
			return n, nil // torn length/checksum word
		}
		ln := binary.LittleEndian.Uint32(data[off : off+4])
		sum := binary.LittleEndian.Uint32(data[off+4 : off+8])
		if ln > MaxRecord || len(data)-off-8 < int(ln) {
			return n, nil // corrupt length or short payload
		}
		payload := data[off+8 : off+8+int(ln)]
		if crc32.ChecksumIEEE(payload) != sum {
			return n, nil // corrupt record: stop at the last intact one
		}
		if err := fn(n, string(payload)); err != nil {
			return n, err
		}
		n++
		off += 8 + int(ln)
	}
}

// ReplayAll collects the statements of the valid prefix.
func ReplayAll(fs faultfs.FS, path string) ([]string, error) {
	var out []string
	_, err := Replay(fs, path, func(_ int, stmt string) error {
		out = append(out, stmt)
		return nil
	})
	return out, err
}
