package wire

import (
	"encoding/binary"
	"math"
	"reflect"
	"strings"
	"testing"
)

// FuzzReplBatch holds the batch codec to its two properties: (a)
// arbitrary payload bytes are refused or decode to a batch that
// re-encodes to the same bytes, and (b) a batch built from fuzzed
// statements (split at newlines; any bytes, invalid UTF-8 included) and
// fields decodes from its encoding to itself, an empty list as nil.
func FuzzReplBatch(f *testing.F) {
	batch := func(b ReplBatch) []byte { return Append(nil, &b) }
	seeds := []struct {
		frame       []byte
		stmts       string
		from, epoch uint64
		sent        int64
		nilStmts    bool
	}{
		{batch(ReplBatch{From: 42, Epoch: 2, Stmts: []string{"insert into R values (x)", "permit V to U"}}),
			"insert into R values (\"a\xffb\")\npermit V to U", 42, 2, 1, false},
		{batch(ReplBatch{Epoch: 4, Stmts: []string{"relation R (A)", "insert into R values (\"\x01\x02<&>\")"}}),
			"", 0, 4, math.MinInt64, true},
		{batch(ReplBatch{From: math.MaxUint64, Epoch: math.MaxUint64, SentUnixNano: math.MaxInt64}),
			"\xed\xa0\x80\n\n\xc3", math.MaxUint64, 1, -1, false},
		// Refused: empty, a count past the end, a non-minimal varint, a
		// trailing byte, and protocol 5's JSON batch.
		{[]byte{}, "", 0, 0, 0, false},
		{[]byte{byte(KindReplBatch), 1, 1, 0, 1}, "", 0, 0, 0, false},
		{[]byte{byte(KindReplBatch), 0x81, 0, 1, 0, 0}, "", 0, 0, 0, false},
		{append(batch(ReplBatch{From: 1, Stmts: []string{"a"}}), 0), "", 0, 0, 0, false},
		{[]byte(`{"kind":"repl_batch","from":1,"stmts":["a"]}`), "", 0, 0, 0, false},
	}
	for _, s := range seeds {
		f.Add(s.frame, s.stmts, s.from, s.epoch, s.sent, s.nilStmts)
	}
	f.Fuzz(func(t *testing.T, frame []byte, stmts string, from, epoch uint64, sent int64, nilStmts bool) {
		checkMsg(t, frame, new(ReplBatch), KindReplBatch)
		in := ReplBatch{From: from, Epoch: epoch, SentUnixNano: sent}
		if !nilStmts {
			in.Stmts = strings.Split(stmts, "\n")
		}
		var out ReplBatch
		if err := Decode(Append(nil, &in), &out); err != nil {
			t.Fatalf("Decode rejects Append's frame of %+v: %v", in, err)
		}
		if !reflect.DeepEqual(out, in) {
			t.Fatalf("round trip:\n got %+v\nwant %+v", out, in)
		}
	})
}

// TestReplBatchRefusals: a payload other than Append's is an error and
// leaves the batch empty.
func TestReplBatchRefusals(t *testing.T) {
	for _, p := range [][]byte{
		{},
		[]byte(`{"kind":"repl_batch","from":1,"stmts":["a"]}`),
		{byte(KindReplBatch)},
		{byte(KindReplBatch), 1, 1, 0, 1},
		{byte(KindReplBatch), 0x81, 0, 1, 0, 0},
		append(Append(nil, &ReplBatch{From: 1, Stmts: []string{"a"}}), 0),
		Append(nil, &ReplAck{Applied: 1}),
	} {
		b := ReplBatch{From: 9, Stmts: []string{"x"}}
		if err := Decode(p, &b); err == nil {
			t.Errorf("Decode accepted %q as %+v", p, b)
		} else if !reflect.DeepEqual(b, ReplBatch{}) {
			t.Errorf("Decode(%q) refused but left %+v", p, b)
		}
	}
}

// TestReplBatchLen: a batch cut by ReplBatchLen encodes to at most its
// limit, counting each statement's encoded length rather than its text,
// and a statement larger than the limit still goes, alone.
func TestReplBatchLen(t *testing.T) {
	const limit = 1000
	var stmts []string
	for i := 0; i < 100; i++ {
		stmts = append(stmts, strings.Repeat("\x01", i*7%200))
	}
	// The widest header: every field at its longest varint.
	widest := func(stmts []string) []byte {
		return Append(nil, &ReplBatch{From: math.MaxUint64, Epoch: math.MaxUint64, SentUnixNano: math.MinInt64, Stmts: stmts})
	}
	for len(stmts) > 0 {
		n := ReplBatchLen(stmts, limit)
		if n == 0 {
			t.Fatal("ReplBatchLen took no statement")
		}
		if p := widest(stmts[:n]); len(p) > limit {
			t.Fatalf("%d statements encode to %d bytes, past the limit %d", n, len(p), limit)
		}
		// The bound reserves a count of the widest varint, too.
		if n < len(stmts) {
			if more := widest(stmts[:n+1]); len(more)+binary.MaxVarintLen64 <= limit {
				t.Fatalf("ReplBatchLen stopped at %d statements though %d fit in %d bytes", n, n+1, len(more))
			}
		}
		stmts = stmts[n:]
	}
	if n := ReplBatchLen([]string{strings.Repeat("x", 2*limit), "y"}, limit); n != 1 {
		t.Fatalf("ReplBatchLen of an oversized statement = %d, want 1", n)
	}
	if n := ReplBatchLen(nil, limit); n != 0 {
		t.Fatalf("ReplBatchLen(nil) = %d", n)
	}
}
