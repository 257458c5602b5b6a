package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"strconv"
	"unsafe"

	"authdb/internal/engine"
	"authdb/internal/relation"
	"authdb/internal/value"
)

// The Response codec. A reply has no tag: it is known by its place
// after a Request, and its first bytes are its ID (DESIGN.md §11):
//
//	id     uvarint
//	flags  byte: which optional fields follow, in this order
//	text      str                                  (flagText)
//	rendered  str                                  (flagRendered)
//	table     ncols uvarint, ncols × str,
//	          nrows uvarint, then the rows:        (flagTable)
//	            plain: each row ncols × str
//	            front-coded: each row k uvarint,   (flagFront)
//	            then its last ncols − k cells as str
//	permits   n uvarint, n × str                   (flagPermits)
//	error     code str, message str, line varint, col varint,
//	          leader str, retryable byte           (flagError)
//
// A str is a uvarint length and that many bytes. A cell is its text,
// exactly value.Value.String(): decimal for an integer, "-" for a
// withheld cell, the bytes themselves for a string. The frame carries
// no kinds: the client API is text.
//
// In a front-coded table, k counts a row's leading cells whose text
// equals the row above's; they are not sent again. k is the largest
// such count, and 0 on the first row. A table is front-coded exactly
// when that makes it strictly shorter and its rows still take at least
// a byte per cell, as plain rows do (frontCodes); so the layout follows
// from the cells alone, and the decoder refuses the other one.

// The flag bits. fully_authorized and denied are flags with no body;
// front-coded qualifies the table and is refused without one.
const (
	flagText = 1 << iota
	flagRendered
	flagTable
	flagPermits
	flagFull
	flagDenied
	flagError
	flagFront
)

// errShape refuses a table the frame cannot hold: it stores a row
// count, not row lengths, so every row must have one cell per column,
// and rows need a column.
var errShape = errors.New("wire: table rows must each hold one cell per column, and at least one")

// AppendResponse appends r's frame payload to dst and returns the
// extended buffer; on an error the payload in it is incomplete. A table
// is copied from Table.Section when set, otherwise written from
// Table.Tuples when set, otherwise from Table.Rows. It allocates only to
// grow dst: the size of every field but Tuples' cells is reserved up
// front.
func AppendResponse(dst []byte, r *Response) ([]byte, error) {
	if n := sizeHint(r); cap(dst)-len(dst) < n {
		dst = append(make([]byte, 0, len(dst)+n), dst...)
	}
	flags := bit(r.Text != "", flagText) | bit(r.Rendered != "", flagRendered) |
		bit(r.Table != nil, flagTable) | bit(len(r.Permits) > 0, flagPermits) |
		bit(r.FullyAuthorized, flagFull) | bit(r.Denied, flagDenied) | bit(r.Error != nil, flagError)
	dst = binary.AppendUvarint(dst, r.ID)
	at := len(dst)
	dst = append(dst, flags)
	if flags&flagText != 0 {
		dst = appendStr(dst, r.Text)
	}
	if flags&flagRendered != 0 {
		dst = appendStr(dst, r.Rendered)
	}
	switch t := r.Table; {
	case t == nil:
	case len(t.Section) > 0:
		dst[at] |= t.Section[0]
		dst = append(dst, t.Section[1:]...)
	default:
		var err error
		if dst, err = appendTable(dst, at, t); err != nil {
			return dst, err
		}
	}
	if flags&flagPermits != 0 {
		dst = appendStrs(dst, r.Permits)
	}
	if e := r.Error; e != nil {
		dst = e.body(walker{buf: dst}).buf
	}
	return dst, nil
}

// AppendTableSection appends t's table section: a byte of the flags the
// table sets (flagFront or none), then the table as a reply payload
// holds it: the columns, the row count and the rows. AppendResponse
// writes a Table whose Section is these bytes as it writes t. On an
// error the section in dst is incomplete.
func AppendTableSection(dst []byte, t *Table) ([]byte, error) {
	at := len(dst)
	return appendTable(append(dst, 0), at, t)
}

// appendTable writes t's columns, row count and rows from Tuples when
// set, otherwise from Rows, and sets flagFront in dst[flagsAt] when it
// front-codes them.
func appendTable(dst []byte, flagsAt int, t *Table) ([]byte, error) {
	dst = appendStrs(dst, t.Columns)
	var front bool
	var err error
	if t.Tuples != nil {
		dst, front, err = appendTuples(dst, len(t.Columns), t.Tuples)
	} else {
		dst, front, err = appendRows(dst, len(t.Columns), t.Rows)
	}
	if front {
		dst[flagsAt] |= flagFront
	}
	return dst, err
}

// AppendResponseFrame appends r as one length-prefixed frame: it
// reserves the header, appends the payload behind it and patches the
// length in. A payload over MaxFrame, or a table of a shape the frame
// cannot hold, is an error, and dst comes back as it was.
func AppendResponseFrame(dst []byte, r *Response) ([]byte, error) {
	at := len(dst)
	dst, err := AppendResponse(append(dst, 0, 0, 0, 0), r)
	if err != nil {
		return dst[:at], err
	}
	n := len(dst) - at - 4
	if n > MaxFrame {
		return dst[:at], &FrameSizeError{Size: n}
	}
	binary.LittleEndian.PutUint32(dst[at:], uint32(n))
	return dst, nil
}

// sizeHint bounds the payload's length, but for Tuples' cells, whose
// text is only known once written.
func sizeHint(r *Response) int {
	n := 2*binary.MaxVarintLen64 + 1 + strSize(r.Text) + strSize(r.Rendered) + strsSize(r.Permits)
	if t := r.Table; t != nil {
		n += len(t.Section) + strsSize(t.Columns) + binary.MaxVarintLen64
		for _, row := range t.Rows {
			for _, c := range row {
				n += strSize(c)
			}
		}
	}
	if e := r.Error; e != nil {
		n += strSize(e.Code) + strSize(e.Message) + strSize(e.Leader) + 2*binary.MaxVarintLen64 + 1
	}
	return n
}

// uvarintSize is the encoded size of n as a uvarint.
func uvarintSize(n int) int { return (bits.Len(uint(n)|1) + 6) / 7 }

// strSize is the encoded size of s: its length's uvarint, then s.
func strSize(s string) int { return uvarintSize(len(s)) + len(s) }

func strsSize(ss []string) int {
	n := binary.MaxVarintLen64
	for _, s := range ss {
		n += strSize(s)
	}
	return n
}

// bit is f when set, otherwise 0.
func bit(set bool, f byte) byte {
	if set {
		return f
	}
	return 0
}

func appendStr(dst []byte, s string) []byte {
	return append(binary.AppendUvarint(dst, uint64(len(s))), s...)
}

func appendStrs(dst []byte, ss []string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(ss)))
	for _, s := range ss {
		dst = appendStr(dst, s)
	}
	return dst
}

// frontGain counts, row by row, the bytes front coding saves a table:
// the size of the cells each row shares with the row above, less the
// size of the row's k. A row lowers the gain by at most one byte, the k
// of a row that shares nothing (each shared cell takes at least the
// byte its k costs), so once the gain exceeds the rows left its sign is
// settled: done is set, and a caller that needs only the sign may stop
// counting.
type frontGain struct {
	gain int
	done bool
}

// row counts a row that shares its first k cells, of sharedSize bytes,
// with the row above; rowsLeft rows follow it.
func (g *frontGain) row(k, sharedSize, rowsLeft int) {
	g.gain += sharedSize - uvarintSize(k)
	g.done = g.gain > rowsLeft
}

// frontCodes reports whether a table of cells cells is front-coded,
// given its gain (the sign is enough) and size, the bytes its rows take
// front-coded. It is, when that is shorter, unless it would then hold
// more cells than its rows take bytes. A plain row takes a byte per cell
// at least, so in either layout a decoded table's cells are bounded by
// the bytes of its frame.
func frontCodes(gain, cells, size int) bool {
	return gain > 0 && cells <= size
}

// appendRows writes a row count and the cells of rows, each of which
// must hold ncols cells, front-coded when frontCodes says so, and
// reports whether it front-coded them. It counts the gain only until its
// sign is settled, and writes the rows plain after all when the
// front-coded ones hold too many cells for their bytes.
func appendRows(dst []byte, ncols int, rows [][]string) ([]byte, bool, error) {
	var g frontGain
	for i, row := range rows {
		if len(row) != ncols || ncols == 0 {
			return dst, false, errShape
		}
		k, size := 0, 0
		if i > 0 {
			k = sharedText(rows[i-1], row)
		}
		for _, c := range row[:k] {
			size += strSize(c)
		}
		if g.row(k, size, len(rows)-1-i); g.done {
			break
		}
	}
	dst = binary.AppendUvarint(dst, uint64(len(rows)))
	at, front := len(dst), g.gain > 0
	dst, err := appendRowCells(dst, ncols, rows, front)
	if front && err == nil && !frontCodes(g.gain, len(rows)*ncols, len(dst)-at) {
		front = false
		dst, err = appendRowCells(dst[:at], ncols, rows, false)
	}
	return dst, front, err
}

// appendRowCells writes the cells of rows, each row opening with its k
// when front is set.
func appendRowCells(dst []byte, ncols int, rows [][]string, front bool) ([]byte, error) {
	for i, row := range rows {
		if len(row) != ncols {
			return dst, errShape
		}
		if front {
			k := 0
			if i > 0 {
				k = sharedText(rows[i-1], row)
			}
			dst, row = binary.AppendUvarint(dst, uint64(k)), row[k:]
		}
		for _, c := range row {
			dst = appendStr(dst, c)
		}
	}
	return dst, nil
}

// sharedText is the number of leading cells of row equal to above's.
func sharedText(above, row []string) int {
	k := 0
	for k < len(row) && row[k] == above[k] {
		k++
	}
	return k
}

// appendTuples writes what appendRows writes for the tuples' cell text,
// formatting each value in place.
func appendTuples(dst []byte, ncols int, tuples []relation.Tuple) ([]byte, bool, error) {
	var g frontGain
	for i, tp := range tuples {
		if len(tp) != ncols || ncols == 0 {
			return dst, false, errShape
		}
		k, size := 0, 0
		if i > 0 {
			k = sharedValues(tuples[i-1], tp)
		}
		for _, v := range tp[:k] {
			size += cellSize(v)
		}
		if g.row(k, size, len(tuples)-1-i); g.done {
			break
		}
	}
	dst = binary.AppendUvarint(dst, uint64(len(tuples)))
	at, front := len(dst), g.gain > 0
	dst, err := appendTupleCells(dst, ncols, tuples, front)
	if front && err == nil && !frontCodes(g.gain, len(tuples)*ncols, len(dst)-at) {
		front = false
		dst, err = appendTupleCells(dst[:at], ncols, tuples, false)
	}
	return dst, front, err
}

// appendTupleCells writes what appendRowCells writes for the tuples'
// cell text.
func appendTupleCells(dst []byte, ncols int, tuples []relation.Tuple, front bool) ([]byte, error) {
	for i, tp := range tuples {
		if len(tp) != ncols {
			return dst, errShape
		}
		if front {
			k := 0
			if i > 0 {
				k = sharedValues(tuples[i-1], tp)
			}
			dst, tp = binary.AppendUvarint(dst, uint64(k)), tp[k:]
		}
		for _, v := range tp {
			switch v.Kind() {
			case value.KindNull:
				dst = append(dst, 1, '-')
			case value.KindInt:
				dst = appendIntCell(dst, v.AsInt())
			default:
				if s := v.AsString(); len(s) < 0x80 {
					dst = append(append(dst, byte(len(s))), s...)
				} else {
					dst = appendStr(dst, s)
				}
			}
		}
	}
	return dst, nil
}

// sharedValues is the number of leading values of tp whose cell text
// equals above's: equal values, and values of two kinds that read the
// same (sameText). A string equal to the one above is most often the
// same string, copied down a join's run, so its bytes are compared only
// when its data differs: that skips a call to the runtime's comparison
// per shared cell, about a quarter of this function's time on Example 3.
func sharedValues(above, tp relation.Tuple) int {
	for k := range tp {
		a, b := &above[k], &tp[k]
		if a.Kind() != b.Kind() {
			if !sameText(*a, *b) {
				return k
			}
			continue
		}
		if a.AsInt() != b.AsInt() {
			return k
		}
		x, y := a.AsString(), b.AsString()
		if len(x) != len(y) || unsafe.StringData(x) != unsafe.StringData(y) && x != y {
			return k
		}
	}
	return len(tp)
}

// sameText reports whether values of two kinds have the same cell text:
// the integer 5 and the string "5" do, and so do null and the string
// "-".
func sameText(a, b value.Value) bool {
	if a.Kind() == value.KindString {
		a, b = b, a
	}
	switch {
	case b.Kind() != value.KindString:
		return false // an integer and null
	case a.Kind() == value.KindNull:
		return b.AsString() == "-"
	}
	var buf [20]byte
	return string(strconv.AppendInt(buf[:0], a.AsInt(), 10)) == b.AsString()
}

// cellSize is the encoded size of v's cell text.
func cellSize(v value.Value) int {
	switch v.Kind() {
	case value.KindNull:
		return 2
	case value.KindInt:
		// The length byte, a minus sign, then the digits of the
		// magnitude (of math.MinInt64 too, as a uint64).
		n, u := 2, uint64(v.AsInt())
		if v.AsInt() >= 0 {
			n = 1
		} else {
			u = -u
		}
		for ; u >= 10; u /= 10 {
			n++
		}
		return n + 1
	}
	return strSize(v.AsString())
}

// appendIntCell writes n's decimal text as a str. The text is at most 20
// bytes, so its length is one byte.
func appendIntCell(dst []byte, n int64) []byte {
	at := len(dst)
	dst = strconv.AppendInt(append(dst, 0), n, 10)
	dst[at] = byte(len(dst) - at - 1)
	return dst
}

// DecodeResponse decodes a Response payload into r, replacing its
// contents, in one pass. It accepts exactly the payloads AppendResponse
// writes: varints minimal, a front-coded flag only on a table, a
// present string or list non-empty, a table front-coded exactly when
// that is shorter and with every k the largest, a retryable byte of 0
// or 1, no trailing byte. Every count is checked against the bytes left
// before anything is sized by it, a table with rows has columns, and a
// table's rows take at least a byte per cell in either layout, so a
// short hostile frame cannot ask for a large allocation.
//
// The payload is copied once, into one string, and every string of the
// reply is a substring of it: retaining a cell retains the frame. All
// the cells share one []string, and each row is carved from it with
// cap == len, so appending to one row cannot overwrite the next.
func DecodeResponse(p []byte, r *Response) error {
	*r = Response{}
	d := decoder{s: string(p), ok: true}
	d.response(r)
	if d.ok && d.i != len(d.s) {
		d.fail()
	}
	if !d.ok {
		return errors.New("wire: malformed response frame at byte " + strconv.Itoa(d.bad))
	}
	return nil
}

// decoder reads a payload from s; i is the next byte. The first read
// outside the format clears ok and records its offset in bad; every
// read after it returns zero values.
type decoder struct {
	s      string
	i, bad int
	ok     bool
}

func (d *decoder) fail() {
	if d.ok {
		d.ok, d.bad = false, d.i
	}
	d.i = len(d.s)
}

func (d *decoder) response(r *Response) {
	r.ID = d.uvarint()
	flags := d.byte()
	if flags&flagFront != 0 && flags&flagTable == 0 {
		d.fail()
		return
	}
	if flags&flagText != 0 {
		r.Text = d.nonEmpty()
	}
	if flags&flagRendered != 0 {
		r.Rendered = d.nonEmpty()
	}
	if flags&flagTable != 0 {
		r.Table = d.table(flags&flagFront != 0)
	}
	if flags&flagPermits != 0 {
		if r.Permits = d.strs(); r.Permits == nil {
			d.fail()
		}
	}
	r.FullyAuthorized = flags&flagFull != 0
	r.Denied = flags&flagDenied != 0
	if flags&flagError != 0 {
		r.Error = new(Error)
		*d = r.Error.body(walker{d: *d, decoding: true}).d
	}
}

func (d *decoder) byte() byte {
	if d.i >= len(d.s) {
		d.fail()
		return 0
	}
	d.i++
	return d.s[d.i-1]
}

// uvarint reads a minimal uvarint of at most 64 bits: a final byte of
// zero after others, or a tenth byte above 1, is refused.
func (d *decoder) uvarint() uint64 {
	var x uint64
	for shift := uint(0); shift < 64; shift += 7 {
		b := d.byte()
		if b < 0x80 {
			if shift > 0 && b == 0 || shift == 63 && b > 1 {
				d.fail()
				return 0
			}
			return x | uint64(b)<<shift
		}
		x |= uint64(b&0x7f) << shift
	}
	d.fail()
	return 0
}

// varint reads a zigzag varint.
func (d *decoder) varint() int64 {
	u := d.uvarint()
	x := int64(u >> 1)
	if u&1 != 0 {
		x = ^x
	}
	return x
}

// count reads a count of items of at least size bytes each, refusing
// one the bytes left cannot hold.
func (d *decoder) count(size int) int {
	n := d.uvarint()
	if n > uint64((len(d.s)-d.i)/size) {
		d.fail()
		return 0
	}
	return int(n)
}

// str reads a str. A length below 128 is its one byte, read without
// count's division.
func (d *decoder) str() string {
	if d.i < len(d.s) && d.s[d.i] < 0x80 {
		n := int(d.s[d.i])
		d.i++
		if n > len(d.s)-d.i {
			d.fail()
			return ""
		}
		d.i += n
		return d.s[d.i-n : d.i]
	}
	n := d.count(1)
	d.i += n
	return d.s[d.i-n : d.i]
}

// nonEmpty reads a string whose flag says it is present.
func (d *decoder) nonEmpty() string {
	s := d.str()
	if s == "" {
		d.fail()
	}
	return s
}

// strs reads a counted list of strings, nil when empty.
func (d *decoder) strs() []string {
	n := d.count(1)
	if n == 0 {
		return nil
	}
	ss := make([]string, n)
	for i := range ss {
		ss[i] = d.str()
	}
	return ss
}

// table reads the columns, then the rows into one slab of cells, the
// rows front-coded when front is set, and checks the layout is the one
// the encoder chooses: front-coded exactly when frontCodes says so,
// every k the largest, and 0 on the first row. The gain of a plain table
// is counted to the end, since frontCodes needs its front-coded size.
func (d *decoder) table(front bool) *Table {
	t := &Table{Columns: d.strs()}
	ncols := len(t.Columns)
	if ncols == 0 {
		if d.uvarint() != 0 || front {
			// Rows of no cells would cost no bytes to claim, and front
			// coding saves nothing on a table without rows.
			d.fail()
		}
		return t
	}
	// A row takes at least a byte per cell in either layout: a plain
	// one by its strs, a front-coded one by frontCodes' bound, checked
	// once the rows are read.
	nrows := d.count(ncols)
	if front && nrows == 0 {
		d.fail()
	}
	if nrows == 0 || !d.ok {
		return t
	}
	cells := make([]string, nrows*ncols)
	rows := make([][]string, nrows)
	t.Rows = rows
	at := d.i
	var above []string
	var g frontGain
	for i := range rows {
		row := cells[:ncols:ncols]
		cells, rows[i] = cells[ncols:], row
		k := 0
		if front {
			n := d.uvarint()
			if n > uint64(ncols) || i == 0 && n > 0 {
				d.fail()
				return t
			}
			k = int(n)
			// A loop, not copy: copying a []string calls into the
			// runtime once a row, which costs more than these few
			// stores.
			for j, c := range above[:k] {
				row[j] = c
			}
		}
		for j := k; j < ncols; j++ {
			row[j] = d.str()
		}
		if !d.ok {
			return t
		}
		if front && i > 0 && k < ncols && row[k] == above[k] {
			d.fail() // k is not the largest
			return t
		}
		if !front && i > 0 {
			k = sharedText(above, row)
		}
		if !g.done || !front {
			size := 0
			for _, c := range row[:k] {
				size += strSize(c)
			}
			g.row(k, size, nrows-1-i)
		}
		above = row
	}
	size := d.i - at
	if !front {
		size -= g.gain // the bytes of the rows front-coded
	}
	if frontCodes(g.gain, nrows*ncols, size) != front {
		d.fail()
	}
	return t
}

// Kind names a control message: the tag byte its payload opens with.
type Kind byte

// The tags. They lie above 0x7f, so no JSON text opens with one: a
// protocol-6 peer's handshake, request, ack or fence is refused by its
// first byte. REPL_BATCH keeps protocol 6's tag and layout.
const (
	KindHello Kind = 0xf8 + iota
	KindHelloReply
	KindRequest
	KindReplHello
	KindReplHelloReply
	KindReplAck
	KindReplFence
	KindReplBatch
)

// MsgKind returns the kind a control message's payload names, zero for
// an empty payload. It reads the first byte only: the kind it returns
// is the tag Decode checks, not a promise that the rest decodes.
func MsgKind(p []byte) Kind {
	if len(p) == 0 {
		return 0
	}
	return Kind(p[0])
}

// Msg is a control message: any message but the Response. Its payload
// is its tag, then its fields, as its walk method lists them to a
// walker; walk is so both its encoder and its decoder (the frame table
// is in DESIGN.md §11). The walker travels by value, in and back out.
type Msg interface{ walk(walker) walker }

// Append appends m's payload to dst.
func Append(dst []byte, m Msg) []byte {
	return m.walk(walker{buf: dst}).buf
}

// Decode decodes a payload into the control message m, replacing its
// contents. Like DecodeResponse it accepts exactly what Append writes:
// m's tag, minimal varints, bools of 0 or 1, no trailing byte, and
// every count checked against the bytes left before anything is sized
// by it. A refused payload leaves m zero.
//
// The payload is copied once, into one string, and every string field is
// a substring of it, so m does not retain p and the caller may reuse it.
// The walker and its decoder travel by value, so decoding a Request
// allocates that copy alone.
func Decode(p []byte, m Msg) error {
	d := m.walk(walker{d: decoder{s: string(p), ok: true}, decoding: true}).d
	if d.ok && d.i != len(d.s) {
		d.fail()
	}
	if !d.ok {
		// A decoder with nothing to read yields every field's zero value.
		m.walk(walker{decoding: true})
		return fmt.Errorf("wire: malformed %T frame at byte %d", m, d.bad)
	}
	return nil
}

// walker carries a message's fields through the codec: when decoding
// it reads them from d into place, otherwise it appends them to buf.
type walker struct {
	buf      []byte
	d        decoder
	decoding bool
}

// fields walks vs in order and returns the walker after them. A Kind
// is the tag, written or checked; a pointer is a field, by its type:
//
//	*uint64               uvarint
//	*int, *int64          zigzag varint, refused outside the type
//	*string               str: uvarint length, then the bytes
//	*[]string             uvarint count, then each str
//	*bool                 byte 0 or 1
//	**Error               bool: present, then its fields (Error.body)
//	*[]engine.EpochEntry  uvarint count, then each epoch and start LSN
//	                      as uvarints
//
// An empty list decodes as nil.
func (w walker) fields(vs ...any) walker {
	for _, v := range vs {
		if w.decoding {
			w.field(v)
			continue
		}
		switch v := v.(type) {
		case Kind:
			w.buf = append(w.buf, byte(v))
		case *uint64:
			w.buf = binary.AppendUvarint(w.buf, *v)
		case *int:
			w.buf = binary.AppendVarint(w.buf, int64(*v))
		case *int64:
			w.buf = binary.AppendVarint(w.buf, *v)
		case *string:
			w.buf = appendStr(w.buf, *v)
		case *[]string:
			w.buf = appendStrs(w.buf, *v)
		case *bool:
			w.buf = append(w.buf, bit(*v, 1))
		case **Error:
			if w.buf = append(w.buf, bit(*v != nil, 1)); *v != nil {
				w = (*v).body(w)
			}
		case *[]engine.EpochEntry:
			w.buf = binary.AppendUvarint(w.buf, uint64(len(*v)))
			for _, e := range *v {
				w.buf = binary.AppendUvarint(binary.AppendUvarint(w.buf, e.Epoch), e.StartLSN)
			}
		}
	}
	return w
}

// field reads one of walker.fields' values into place.
func (w *walker) field(v any) {
	d := &w.d
	switch v := v.(type) {
	case Kind:
		if Kind(d.byte()) != v {
			d.fail()
		}
	case *uint64:
		*v = d.uvarint()
	case *int:
		x := d.varint()
		if *v = int(x); int64(*v) != x {
			d.fail()
		}
	case *int64:
		*v = d.varint()
	case *string:
		*v = d.str()
	case *[]string:
		*v = d.strs()
	case *bool:
		b := d.byte()
		if *v = b == 1; b > 1 {
			d.fail()
		}
	case **Error:
		var present bool
		w.field(&present)
		if *v = nil; present {
			*v = new(Error)
			*w = (*v).body(*w)
		}
	case *[]engine.EpochEntry:
		*v = nil
		if n := d.count(2); n > 0 {
			*v = make([]engine.EpochEntry, n)
			for i := range *v {
				(*v)[i] = engine.EpochEntry{Epoch: d.uvarint(), StartLSN: d.uvarint()}
			}
		}
	}
}
