// Package storage is the on-disk page store: fixed-size slotted pages,
// a pager with an LRU buffer cache and pin/unpin semantics, and one
// copy-on-write B+Tree per relation, keyed by the whole encoded tuple.
// It holds tuples only. Statements never reach it: at each checkpoint
// the engine applies the tuples inserted and deleted since the last
// one, flushes only the dirty pages, and commits a tiny ROOT file
// beside the generation's schema and view scripts, behind the existing
// CURRENT pointer protocol (DESIGN.md §16).
package storage

import (
	"encoding/binary"
	"fmt"

	"authdb/internal/value"
)

// Value encoding tags. The encoding is order-preserving under
// bytes.Compare and matches value.Compare's Null < Int < String order.
const (
	tagNull   = 0x01
	tagInt    = 0x02
	tagString = 0x03
)

// encValue appends the order-preserving encoding of v to dst. Ints are
// 8 big-endian bytes with the sign bit flipped; strings escape 0x00 as
// 0x00 0xFF and terminate with a bare 0x00, so every encoding is
// self-delimiting and whole-tuple keys sort lexicographically by
// (value order, arity).
func encValue(dst []byte, v value.Value) []byte {
	switch v.Kind() {
	case value.KindNull:
		return append(dst, tagNull)
	case value.KindInt:
		dst = append(dst, tagInt)
		var b [8]byte
		binary.BigEndian.PutUint64(b[:], uint64(v.AsInt())^(1<<63))
		return append(dst, b[:]...)
	default:
		dst = append(dst, tagString)
		for i := 0; i < len(v.AsString()); i++ {
			c := v.AsString()[i]
			if c == 0x00 {
				dst = append(dst, 0x00, 0xFF)
			} else {
				dst = append(dst, c)
			}
		}
		return append(dst, 0x00)
	}
}

// decValue decodes one value from b, returning it and the remaining
// bytes.
func decValue(b []byte) (value.Value, []byte, error) {
	if len(b) == 0 {
		return value.Value{}, nil, fmt.Errorf("storage: empty value encoding")
	}
	switch b[0] {
	case tagNull:
		return value.Value{}, b[1:], nil
	case tagInt:
		if len(b) < 9 {
			return value.Value{}, nil, fmt.Errorf("storage: truncated int encoding")
		}
		u := binary.BigEndian.Uint64(b[1:9]) ^ (1 << 63)
		return value.Int(int64(u)), b[9:], nil
	case tagString:
		var out []byte
		rest := b[1:]
		for {
			if len(rest) == 0 {
				return value.Value{}, nil, fmt.Errorf("storage: unterminated string encoding")
			}
			c := rest[0]
			rest = rest[1:]
			if c != 0x00 {
				out = append(out, c)
				continue
			}
			if len(rest) > 0 && rest[0] == 0xFF {
				out = append(out, 0x00)
				rest = rest[1:]
				continue
			}
			return value.String(string(out)), rest, nil
		}
	default:
		return value.Value{}, nil, fmt.Errorf("storage: bad value tag 0x%02x", b[0])
	}
}

// encTuple encodes a whole tuple as the concatenation of its values'
// encodings. Relations enforce whole-tuple set semantics, so this is
// the primary-tree key.
func encTuple(vs []value.Value) []byte {
	dst := make([]byte, 0, 16*len(vs))
	for _, v := range vs {
		dst = encValue(dst, v)
	}
	return dst
}

// decTuple decodes exactly arity values and requires the encoding to be
// fully consumed.
func decTuple(b []byte, arity int) ([]value.Value, error) {
	out := make([]value.Value, 0, arity)
	for i := 0; i < arity; i++ {
		v, rest, err := decValue(b)
		if err != nil {
			return nil, fmt.Errorf("storage: tuple value %d: %w", i, err)
		}
		out = append(out, v)
		b = rest
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("storage: %d trailing bytes after tuple", len(b))
	}
	return out, nil
}
