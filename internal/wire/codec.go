package wire

import (
	"encoding/binary"
	"errors"
	"math"
	"strconv"
	"strings"
	"unicode/utf16"
	"unicode/utf8"
)

// The Response codec. A reply is the one message whose size follows the
// answer, and encoding/json reflects over it: decoding a table of n
// cells cost it about one allocation per cell. This codec writes
// exactly the bytes json.Marshal writes for a *Response and reads them
// back without reflection, so a peer on either side may still use
// encoding/json (DESIGN.md §11).

// AppendResponse appends r encoded as json.Marshal(r) encodes it —
// field order, omitempty, null for nil slices, and HTML-safe string
// escaping — to dst and returns the extended buffer. With room for the
// frame in dst it allocates nothing.
func AppendResponse(dst []byte, r *Response) []byte {
	if n := sizeHint(r); cap(dst)-len(dst) < n {
		dst = append(make([]byte, 0, len(dst)+n), dst...)
	}
	dst = append(dst, `{"id":`...)
	dst = strconv.AppendUint(dst, r.ID, 10)
	if r.Text != "" {
		dst = append(dst, `,"text":`...)
		dst = appendString(dst, r.Text)
	}
	if r.Rendered != "" {
		dst = append(dst, `,"rendered":`...)
		dst = appendString(dst, r.Rendered)
	}
	if t := r.Table; t != nil {
		dst = append(dst, `,"table":{"columns":`...)
		dst = appendStrings(dst, t.Columns)
		dst = append(dst, `,"rows":`...)
		if t.Rows == nil {
			dst = append(dst, "null"...)
		} else {
			dst = append(dst, '[')
			for i, row := range t.Rows {
				if i > 0 {
					dst = append(dst, ',')
				}
				dst = appendStrings(dst, row)
			}
			dst = append(dst, ']')
		}
		dst = append(dst, '}')
	}
	if len(r.Permits) > 0 {
		dst = append(dst, `,"permits":`...)
		dst = appendStrings(dst, r.Permits)
	}
	if r.FullyAuthorized {
		dst = append(dst, `,"fully_authorized":true`...)
	}
	if r.Denied {
		dst = append(dst, `,"denied":true`...)
	}
	if e := r.Error; e != nil {
		dst = append(dst, `,"error":{"code":`...)
		dst = appendString(dst, e.Code)
		dst = append(dst, `,"message":`...)
		dst = appendString(dst, e.Message)
		if e.Line != 0 {
			dst = append(dst, `,"line":`...)
			dst = strconv.AppendInt(dst, int64(e.Line), 10)
		}
		if e.Col != 0 {
			dst = append(dst, `,"col":`...)
			dst = strconv.AppendInt(dst, int64(e.Col), 10)
		}
		if e.Retryable {
			dst = append(dst, `,"retryable":true`...)
		}
		if e.Leader != "" {
			dst = append(dst, `,"leader":`...)
			dst = appendString(dst, e.Leader)
		}
		dst = append(dst, '}')
	}
	return append(dst, '}')
}

// AppendResponseFrame appends r as one length-prefixed frame: it
// reserves the header, appends the payload behind it and patches the
// length in. A payload over MaxFrame is an error, and dst comes back
// as it was.
func AppendResponseFrame(dst []byte, r *Response) ([]byte, error) {
	at := len(dst)
	dst = AppendResponse(append(dst, 0, 0, 0, 0), r)
	n := len(dst) - at - 4
	if n > MaxFrame {
		return dst[:at], errFrameSize(n)
	}
	binary.LittleEndian.PutUint32(dst[at:], uint32(n))
	return dst, nil
}

// sizeHint bounds the encoding's length when no string needs an escape
// (an escape only lengthens it), so one allocation usually suffices.
func sizeHint(r *Response) int {
	n := 256 + len(r.Text) + len(r.Rendered) + stringsSize(r.Permits)
	if r.Table != nil {
		n += stringsSize(r.Table.Columns)
		for _, row := range r.Table.Rows {
			n += 1 + stringsSize(row)
		}
	}
	if e := r.Error; e != nil {
		n += len(e.Code) + len(e.Message) + len(e.Leader)
	}
	return n
}

func stringsSize(ss []string) int {
	n := 2
	for _, s := range ss {
		n += len(s) + 3
	}
	return n
}

func appendStrings(dst []byte, ss []string) []byte {
	if ss == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for i, s := range ss {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendString(dst, s)
	}
	return append(dst, ']')
}

// htmlSafe marks the bytes encoding/json writes verbatim with HTML
// escaping on: printable ASCII but `"`, `\`, `<`, `>` and `&`.
var htmlSafe = func() (safe [256]bool) {
	for b := ' '; b < utf8.RuneSelf; b++ {
		safe[b] = !strings.ContainsRune("\"\\<>&", b)
	}
	return safe
}()

// asciiText marks the bytes a string token holds as themselves: ASCII
// from the space up, but `"` and `\`.
var asciiText = func() (text [256]bool) {
	for b := ' '; b < utf8.RuneSelf; b++ {
		text[b] = b != '"' && b != '\\'
	}
	return text
}()

const hexDigits = "0123456789abcdef"

// appendString appends s quoted as encoding/json quotes a string: `"`
// and `\` backslashed; \b \f \n \r \t short; other control bytes and
// `<`, `>`, `&` as \u00XX; U+2028 and U+2029 as \u escapes of their
// code points; each byte of invalid UTF-8 as the \u escape of U+FFFD.
// Runs of other bytes are copied whole.
func appendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		for i < len(s) && htmlSafe[s[i]] {
			i++
		}
		if i == len(s) {
			break
		}
		b := s[i]
		if b < utf8.RuneSelf {
			dst = append(dst, s[start:i]...)
			switch b {
			case '"', '\\':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, "\\ufffd"...)
		case c == 0x2028 || c == 0x2029: // LINE and PARAGRAPH SEPARATOR
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// DecodeResponse decodes a Response frame into r, replacing its
// contents. It reads what json.Marshal writes and nothing else: no
// whitespace, the fields in declaration order, canonical integers.
// Everything it accepts, json.Unmarshal accepts with a DeepEqual
// result. Anything else is an error, with no reflective decoder to
// fall back on, so a reader treats it as it treats garbage.
//
// The payload is copied once, into one string: a string token without
// escapes is a substring of it, so every cell retains the frame. All
// the cells share one []string, and each row is carved from it with
// cap == len, so appending to one row cannot overwrite the next.
func DecodeResponse(p []byte, r *Response) error {
	*r = Response{}
	d := decoder{s: string(p)}
	if !d.response(r) {
		return errors.New("wire: malformed response frame at byte " + strconv.Itoa(d.i))
	}
	return nil
}

// decoder reads a Response from s, a copy of the payload; i is the
// next byte. Every method reports false on input outside the grammar.
type decoder struct {
	s string
	i int
}

// lit consumes t when the input continues with it.
func (d *decoder) lit(t string) bool {
	if strings.HasPrefix(d.s[d.i:], t) {
		d.i += len(t)
		return true
	}
	return false
}

// next consumes the byte c when it comes next.
func (d *decoder) next(c byte) bool {
	if d.i < len(d.s) && d.s[d.i] == c {
		d.i++
		return true
	}
	return false
}

// response reads the whole payload. Each optional field is read when
// its key comes next, in declaration order: `d.lit(key) && !value`
// fails only on a key whose value is malformed.
func (d *decoder) response(r *Response) bool {
	var ok bool
	if !d.lit(`{"id":`) {
		return false
	}
	if r.ID, ok = d.uint(); !ok {
		return false
	}
	if d.lit(`,"text":`) && !d.str(&r.Text) ||
		d.lit(`,"rendered":`) && !d.str(&r.Rendered) {
		return false
	}
	if d.lit(`,"table":{"columns":`) {
		r.Table = new(Table)
		if !d.strs(&r.Table.Columns) || !d.lit(`,"rows":`) || !d.rows(&r.Table.Rows) || !d.next('}') {
			return false
		}
	}
	if d.lit(`,"permits":`) && !d.strs(&r.Permits) ||
		d.lit(`,"fully_authorized":`) && !d.bool(&r.FullyAuthorized) ||
		d.lit(`,"denied":`) && !d.bool(&r.Denied) {
		return false
	}
	if d.lit(`,"error":{"code":`) {
		e := new(Error)
		r.Error = e
		if !d.str(&e.Code) || !d.lit(`,"message":`) || !d.str(&e.Message) ||
			d.lit(`,"line":`) && !d.int(&e.Line) ||
			d.lit(`,"col":`) && !d.int(&e.Col) ||
			d.lit(`,"retryable":`) && !d.bool(&e.Retryable) ||
			d.lit(`,"leader":`) && !d.str(&e.Leader) ||
			!d.next('}') {
			return false
		}
	}
	return d.next('}') && d.i == len(d.s)
}

func (d *decoder) bool(out *bool) bool {
	switch {
	case d.lit("true"):
		*out = true
	case d.lit("false"):
		*out = false
	default:
		return false
	}
	return true
}

// uint reads a canonical unsigned integer — 0, or digits with no
// leading zero — that fits in 64 bits.
func (d *decoder) uint() (uint64, bool) {
	s, start := d.s, d.i
	var n uint64
	i := start
	for ; i < len(s) && '0' <= s[i] && s[i] <= '9'; i++ {
		c := uint64(s[i] - '0')
		if n > (math.MaxUint64-c)/10 {
			return 0, false
		}
		n = n*10 + c
	}
	if i == start || s[start] == '0' && i > start+1 {
		return 0, false
	}
	d.i = i
	return n, true
}

// int reads a canonical signed integer (no "-0") that fits in an int.
func (d *decoder) int(out *int) bool {
	neg := d.next('-')
	u, ok := d.uint()
	switch {
	case !ok:
		return false
	case !neg && u <= math.MaxInt:
		*out = int(u)
	case neg && u-1 <= math.MaxInt: // u-1 wraps for "-0", refusing it
		*out = -int(u-1) - 1
	default:
		return false
	}
	return true
}

// str reads one string token: a substring of the frame when its bytes
// are the string, otherwise the decoded copy.
func (d *decoder) str(out *string) bool {
	start := d.i + 1
	end, plain := d.scan()
	switch {
	case end < 0:
		return false
	case plain:
		*out = d.s[start:end]
	default:
		*out = unquote(d.s[start:end])
	}
	return true
}

// scan steps over the string token at d.i and returns the index of its
// closing quote, or -1 when no valid token starts there. plain reports
// that the token holds no escape and only valid UTF-8, so its bytes are
// the decoded string.
func (d *decoder) scan() (end int, plain bool) {
	s, i := d.s, d.i
	if i >= len(s) || s[i] != '"' {
		return -1, false
	}
	plain = true
	for i++; i < len(s); {
		if asciiText[s[i]] {
			i++
			continue
		}
		// A quote, a backslash, a control byte or the start of a
		// multi-byte sequence.
		switch c := s[i]; {
		case c == '"':
			d.i = i + 1
			return i, plain
		case c < ' ':
			return -1, false
		case c == '\\':
			plain = false
			if i+1 == len(s) {
				return -1, false
			}
			switch s[i+1] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				i += 2
			case 'u':
				if i+6 > len(s) || hex4(s[i+2:i+6]) < 0 {
					return -1, false
				}
				i += 6
			default:
				return -1, false
			}
		default:
			r, size := utf8.DecodeRuneInString(s[i:])
			if r == utf8.RuneError && size == 1 {
				plain = false
			}
			i += size
		}
	}
	return -1, false
}

// hex4 is the value of four hex digits, or -1.
func hex4(s string) rune {
	var r rune
	for i := 0; i < 4; i++ {
		c := s[i]
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}

// unquote decodes the body of a string token that scan accepted, as
// encoding/json does: a \u escape of a surrogate pair is joined, a lone
// surrogate becomes U+FFFD (leaving a following escape to stand alone),
// and so does each byte of invalid UTF-8.
func unquote(s string) string {
	var b strings.Builder
	b.Grow(len(s))
	for i := 0; i < len(s); {
		c := s[i]
		switch {
		case c == '\\' && s[i+1] == 'u':
			r := hex4(s[i+2 : i+6])
			i += 6
			if utf16.IsSurrogate(r) {
				next := rune(-1)
				if i+6 <= len(s) && s[i] == '\\' && s[i+1] == 'u' {
					next = hex4(s[i+2 : i+6])
				}
				if r = utf16.DecodeRune(r, next); r != utf8.RuneError {
					i += 6
				}
			}
			b.WriteRune(r)
		case c == '\\':
			b.WriteByte(unescape(s[i+1]))
			i += 2
		case c < utf8.RuneSelf:
			b.WriteByte(c)
			i++
		default:
			r, size := utf8.DecodeRuneInString(s[i:])
			b.WriteRune(r)
			i += size
		}
	}
	return b.String()
}

// unescape maps the letter of a one-letter escape to its byte.
func unescape(c byte) byte {
	switch c {
	case 'b':
		return '\b'
	case 'f':
		return '\f'
	case 'n':
		return '\n'
	case 'r':
		return '\r'
	case 't':
		return '\t'
	}
	return c // '"', '\\' and '/' stand for themselves
}

// strs reads null or an array of strings into one exactly sized slice:
// a first pass counts the strings, a second stores them.
func (d *decoder) strs(out *[]string) bool {
	if d.lit("null") {
		return true
	}
	start := d.i
	n, _, ok := d.array(nil, false)
	if !ok {
		return false
	}
	d.i = start
	*out = make([]string, n)
	_, _, ok = d.array(*out, true)
	return ok
}

// rows reads null or the rows array. A first pass counts rows and
// cells, so one slice holds every cell and one every row.
func (d *decoder) rows(out *[][]string) bool {
	if d.lit("null") {
		return true
	}
	start := d.i
	nrows, ncells, ok := d.rowArray(nil, nil, false)
	if !ok {
		return false
	}
	d.i = start
	rows, cells := make([][]string, nrows), make([]string, ncells)
	if _, _, ok = d.rowArray(rows, cells, true); !ok {
		return false
	}
	*out = rows
	return true
}

// rowArray reads an array whose elements are null or arrays of
// strings. With fill set it stores row k as its run of cells,
// leaving a null row nil; otherwise it only counts.
func (d *decoder) rowArray(rows [][]string, cells []string, fill bool) (nrows, ncells int, ok bool) {
	if !d.next('[') {
		return 0, 0, false
	}
	if d.next(']') {
		return 0, 0, true
	}
	for {
		var dst []string
		if fill {
			dst = cells[ncells:]
		}
		n, null, ok := d.array(dst, fill)
		if !ok {
			return 0, 0, false
		}
		if fill && !null {
			rows[nrows] = cells[ncells : ncells+n : ncells+n]
		}
		nrows++
		ncells += n
		if d.next(']') {
			return nrows, ncells, true
		}
		if !d.next(',') {
			return 0, 0, false
		}
	}
}

// array reads null or an array of strings, storing them in dst when
// fill is set (a first pass over the same bytes sized dst).
func (d *decoder) array(dst []string, fill bool) (n int, null, ok bool) {
	if d.lit("null") {
		return 0, true, true
	}
	if !d.next('[') {
		return 0, false, false
	}
	if d.next(']') {
		return 0, false, true
	}
	for {
		if fill {
			ok = d.str(&dst[n])
		} else {
			end, _ := d.scan()
			ok = end >= 0
		}
		if !ok {
			return 0, false, false
		}
		n++
		if d.next(']') {
			return n, false, true
		}
		if !d.next(',') {
			return 0, false, false
		}
	}
}
