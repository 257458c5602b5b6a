package wire

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// TestDecodeResponseGrammar pins which payloads the codec takes: what
// json.Marshal can write, escapes and invalid UTF-8 included, and
// nothing that only a lenient JSON reader would.
func TestDecodeResponseGrammar(t *testing.T) {
	for _, c := range []struct {
		frame string
		ok    bool
	}{
		{`{"id":0}`, true},
		{`{"id":18446744073709551615}`, true},
		{`{"id":1,"text":"\ud83d\ude00 \ud800 \udc00\ud800 \ud800A \/\"\\\b\f\n\r\t<"}`, true},
		{"{\"id\":1,\"text\":\"\xff\xed\xa0\x80 \xc3\xa9\"}", true},
		{`{"id":1,"table":{"columns":[],"rows":[null,[],["a","b"],["c"]]},"permits":["p"]}`, true},
		{`{"id":1,"table":{"columns":null,"rows":null},"permits":null}`, true},
		{`{"id":1,"fully_authorized":false,"denied":true}`, true},
		{`{"id":1,"error":{"code":"X","message":"m","line":-3,"col":-9223372036854775808,"retryable":true,"leader":"h:1"}}`, true},
		{`{"id":18446744073709551616}`, false},
		{`{"id":01}`, false},
		{`{"id":-1}`, false},
		{`{"id":1.0}`, false},
		{`{"id":1} `, false},
		{`{ "id":1}`, false},
		{`{"id":1}{}`, false},
		{`{"text":"x","id":1}`, false},
		{`{"id":1,"unknown":1}`, false},
		{`{"id":1,"table":null}`, false},
		{`{"id":1,"table":{"rows":[]}}`, false},
		{`{"id":1,"error":{"code":"X","message":"m","line":-0}}`, false},
		{`{"id":1,"error":{"code":"X","message":"m","col":9223372036854775808}}`, false},
		{`{"id":1,"text":"\ud800\u"}`, false},
		{`{"id":1,"text":"\x"}`, false},
		{"{\"id\":1,\"text\":\"\x01\"}", false},
		{`{"id":1,"text":"unterminated}`, false},
		{`{"id":1,"permits":["a",]}`, false},
		{`{"id":1,"table":{"columns":["a"],"rows":[["b"],]}}`, false},
	} {
		var got Response
		err := DecodeResponse([]byte(c.frame), &got)
		if (err == nil) != c.ok {
			t.Errorf("DecodeResponse(%s) error = %v, want accepted %v", c.frame, err, c.ok)
			continue
		}
		checkDecode(t, []byte(c.frame))
	}
}

// TestResponseCodecRandom runs the fuzz target's encode arm over
// seeded random replies drawn from an alphabet of the bytes the
// escaping rules single out.
func TestResponseCodecRandom(t *testing.T) {
	alphabet := []string{"a", "Z", "0", " ", "-", "|", "\n", "\"", "\\", "/", "<", ">", "&", "\x00", "\x1f", "\x7f",
		"\b", "\t", "\xc3\xa9", "\xe2\x80\xa8", "\xe2\x80\xa9", "\xf0\x9f\x98\x80", "\xff", "\xed\xa0\x80", "\xc3"}
	rng := rand.New(rand.NewSource(1))
	str := func() string {
		b := make([]byte, 0, 16)
		for n := rng.Intn(12); n > 0; n-- {
			b = append(b, alphabet[rng.Intn(len(alphabet))]...)
		}
		return string(b)
	}
	for i := 0; i < 3000; i++ {
		r := fuzzResponse(str(), str()+"\n"+str()+"\n"+str(), str(), rng.Uint64()>>rng.Intn(64),
			uint16(rng.Intn(1<<11)), rng.Intn(200)-100, rng.Int())
		checkEncode(t, r)
	}
}

// tableResponse is a partial answer of n rows by k columns of short
// cells without escapes, every fifth withheld: an acl_cold org_list
// reply is 400 × 3 and Example 3's 3003 × 6.
func tableResponse(n, k int) *Response {
	r := &Response{ID: 7, Table: &Table{}, Permits: []string{"permit (R.C0, R.C1)"}}
	for j := 0; j < k; j++ {
		r.Table.Columns = append(r.Table.Columns, fmt.Sprintf("R.C%d", j))
	}
	for i := 0; i < n; i++ {
		row := make([]string, k)
		for j := range row {
			row[j] = fmt.Sprintf("v%d_%d", i, j)
			if (i+j)%5 == 0 {
				row[j] = "-"
			}
		}
		r.Table.Rows = append(r.Table.Rows, row)
	}
	return r
}

// TestDecodeResponseAllocs bounds a table reply's decoding by a
// constant: the payload copied to one string, the Table, one slice of
// columns, of cells, of rows and of permits. encoding/json takes 2187
// allocations for these 400 × 3 and 26 462 for 3003 × 6.
func TestDecodeResponseAllocs(t *testing.T) {
	for _, c := range []struct{ rows, cols int }{{400, 3}, {3003, 6}} {
		in := tableResponse(c.rows, c.cols)
		frame := AppendResponse(nil, in)
		var out Response
		allocs := testing.AllocsPerRun(10, func() {
			if err := DecodeResponse(frame, &out); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%d × %d: %.0f allocations", c.rows, c.cols, allocs)
		if !reflect.DeepEqual(&out, in) {
			t.Fatalf("%d × %d: decoded reply differs from the encoded one", c.rows, c.cols)
		}
		if allocs > 12 {
			t.Errorf("decoding a %d × %d table took %.0f allocations, want at most 12", c.rows, c.cols, allocs)
		}
	}
}

// TestDecodedRowsAreDisjoint: rows share one array of cells, so each
// must end at its own last cell; an append to one row must not
// overwrite the next.
func TestDecodedRowsAreDisjoint(t *testing.T) {
	var r Response
	if err := DecodeResponse([]byte(`{"id":1,"table":{"columns":["A"],"rows":[["a"],["b"]]}}`), &r); err != nil {
		t.Fatal(err)
	}
	rows := r.Table.Rows
	_ = append(rows[0], "clobber")
	if rows[1][0] != "b" {
		t.Fatalf("appending to row 0 overwrote row 1: %q", rows[1])
	}
}

// TestAppendResponseAllocs: encoding into a buffer with room allocates
// nothing, and writes json.Marshal's bytes.
func TestAppendResponseAllocs(t *testing.T) {
	r := tableResponse(400, 3)
	r.Error = &Error{Code: CodeExec, Message: "<&>", Line: 2, Col: 3, Leader: "h:1"}
	buf := AppendResponse(nil, r)
	want, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	if string(buf) != string(want) {
		t.Fatalf("AppendResponse differs from encoding/json")
	}
	if allocs := testing.AllocsPerRun(10, func() { buf = AppendResponse(buf[:0], r) }); allocs != 0 {
		t.Errorf("AppendResponse into a reused buffer took %.0f allocations, want 0", allocs)
	}
	// Without a buffer, one allocation: the size hint covers every field
	// at its longest when nothing needs an escape.
	full := &Response{ID: math.MaxUint64, Text: "t", Rendered: "r", Table: &Table{Rows: [][]string{nil, {"a"}}},
		Permits: []string{"p"}, FullyAuthorized: true, Denied: true,
		Error: &Error{Code: "c", Message: "m", Line: math.MinInt, Col: math.MinInt, Retryable: true, Leader: "l"}}
	if allocs := testing.AllocsPerRun(10, func() { AppendResponse(nil, full) }); allocs != 1 {
		t.Errorf("AppendResponse into nil took %.0f allocations, want 1", allocs)
	}
}
