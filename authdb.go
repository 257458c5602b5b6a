// Package authdb is a relational database engine with view-based access
// authorization by algebraic manipulation of view definitions, after
// Motro, "An Access Authorization Model for Relational Databases Based on
// Algebraic Manipulation of View Definitions" (ICDE 1989).
//
// Permissions are conjunctive views. Users query the actual database, not
// the views; the system runs each query both on the relations and on
// meta-relations holding the view definitions, obtaining an answer and a
// mask. The mask withholds unauthorized values and the user receives
// inferred permit statements describing exactly the portions delivered.
//
// Quick start:
//
//	db := authdb.Open()
//	admin := db.Admin()
//	admin.MustExec(`relation EMPLOYEE (NAME, TITLE, SALARY) key (NAME)`)
//	admin.MustExec(`insert into EMPLOYEE values (Jones, manager, 26000)`)
//	admin.MustExec(`view SAE (EMPLOYEE.NAME, EMPLOYEE.SALARY)`)
//	admin.MustExec(`permit SAE to Brown`)
//	res, err := db.Session("Brown").Exec(
//	    `retrieve (EMPLOYEE.NAME, EMPLOYEE.TITLE, EMPLOYEE.SALARY)`)
//	// res.Table has TITLE masked; res.Permits == ["permit (NAME, SALARY)"]
package authdb

import (
	"context"
	"fmt"
	"strings"
	"time"

	"authdb/internal/core"
	"authdb/internal/engine"
	"authdb/internal/guard"
	"authdb/internal/metrics"
	"authdb/internal/relation"
	"authdb/internal/value"
	"authdb/internal/wire"
)

// ErrCanceled reports that a statement's context was canceled or its
// deadline (or the session's Timeout limit) passed before execution
// finished. Test with errors.Is.
var ErrCanceled = guard.ErrCanceled

// ErrBudgetExceeded reports that a statement hit one of the session's
// resource limits (intermediate rows, result rows). Test with errors.Is.
var ErrBudgetExceeded = guard.ErrBudgetExceeded

// Limits bounds one statement's execution; see Session.SetLimits. Zero
// fields mean "no limit" for that dimension.
type Limits struct {
	// MaxIntermediateRows caps the tuples materialized across all
	// operators (products, joins, selections, meta-products) while
	// answering one statement.
	MaxIntermediateRows int64
	// MaxResultRows caps the delivered answer's cardinality.
	MaxResultRows int64
	// Timeout bounds wall-clock execution of one statement; it composes
	// with (never extends) any deadline on the caller's context.
	Timeout time.Duration
}

// DefaultLimits is the budget sessions start with: generous enough for
// ordinary workloads, small enough that a runaway self-product fails
// fast instead of exhausting memory.
func DefaultLimits() Limits { return Limits(guard.DefaultLimits()) }

// Unlimited disables every per-statement bound.
func Unlimited() Limits { return Limits{} }

func (l Limits) internal() guard.Limits { return guard.Limits(l) }

// Options selects the paper's §6(3) extension and the mask closure; see
// DESIGN.md. The §4.2 refinements are always on (core.Options keeps them
// switchable for the ablation), and queries always run on the indexed
// executor with mask-predicate pushdown, which change no delivered cell.
// DefaultOptions enables the closure; start from it, since a zero
// MaskClosure turns the closure off.
type Options struct {
	// ExtendedMasks enables the paper's §6(3) extension: masks may be
	// "expressed with additional attributes", so a view's conditions on
	// columns the query did not request still admit the permitted rows
	// (they are checked against the pre-projection answer) instead of
	// being lost at projection time.
	ExtendedMasks bool
	// MaskClosure keeps mask plans and delivered relations resident per
	// (participating view definitions, query), so principals holding the
	// same views share them, validated against the scanned relation
	// revisions, and refreshed incrementally under insert-only churn. Answers are byte-identical either way;
	// steady-state retrieves skip both pipelines entirely, and off, both
	// pipelines run on every retrieve.
	MaskClosure bool
	// Storage is accepted only as "" or "paged", which mean the same
	// statement-script directory; OpenDir rejects any other value. The
	// field stays while the benchmark sets it; it goes with ROADMAP
	// item 2A (j).
	Storage string
	// CachePages is ignored: a durable directory has no buffer cache.
	// The field stays while the benchmark sets it; it goes with ROADMAP
	// item 2A (j).
	CachePages int
}

// DefaultOptions enables the materialized mask closure.
func DefaultOptions() Options {
	return Options{MaskClosure: true}
}

func (o Options) internal() core.Options {
	// core.DefaultOptions turns every §4.2 refinement on.
	opt := core.DefaultOptions()
	opt.ExtendedMasks = o.ExtendedMasks
	return opt
}

// DB is a database instance with authorization state.
type DB struct {
	eng *engine.Engine
}

// Open creates an empty database. With no arguments it uses
// DefaultOptions; at most one Options value may be given.
func Open(opts ...Options) *DB {
	o := DefaultOptions()
	if len(opts) > 0 {
		o = opts[0]
	}
	eng := engine.New(o.internal())
	eng.SetMaskClosureEnabled(o.MaskClosure)
	return &DB{eng: eng}
}

// Certification is the §1 generalization of the model applied to data
// quality: the full answer plus statements describing the portions whose
// tagged property (e.g. "validated") is guaranteed.
type Certification struct {
	// Table is the full answer — certification never withholds data.
	Table *Table
	// Statements describe the certified portions ("certified (…) where …");
	// empty when everything or nothing is certified.
	Statements []string
	// Full reports the entire answer carries the property.
	Full bool
}

// Certify answers query in full and annotates it with the portions
// possessing the given quality. Tag views with the quality through a
// permit statement, e.g. `permit PSA to validated`.
func (db *DB) Certify(quality, query string) (*Certification, error) {
	c, err := db.eng.Certify(quality, query)
	if err != nil {
		return nil, err
	}
	out := &Certification{Table: tableOf(c.Answer), Full: c.Full}
	for _, s := range c.Statements {
		out.Statements = append(out.Statements, s.String())
	}
	return out, nil
}

// Save writes the database's complete state into a directory as three
// statement scripts: schema.authdb (relations), data.authdb (one insert
// per tuple, so 5 stays an integer, "5" a string and "" an empty
// string) and views.authdb (views and permits). Load restores it. Each
// file is written atomically, but Save is an export — for a database
// that survives crashes mid-mutation, use OpenDir. A directory OpenDir
// made (it holds CURRENT) is refused.
func (db *DB) Save(dir string) error { return db.eng.Save(dir) }

// OpenDir opens (creating if necessary) a durable database directory:
// every mutating statement is journaled to a checksummed write-ahead log
// before the call returns, and opening recovers the last committed
// snapshot plus the log's valid prefix — a crash mid-write loses at most
// the statement being written, never committed ones. The committed
// snapshot is the Save layout's statement scripts, so a directory
// written by Save opens as it is; one whose tuples are in the CSV files
// or the page store of earlier builds is refused with an error naming
// the upgrade path. Close the DB to release the log.
func OpenDir(dir string, opts ...Options) (*DB, error) {
	o := DefaultOptions()
	if len(opts) > 0 {
		o = opts[0]
	}
	if o.Storage != "" && o.Storage != "paged" {
		return nil, fmt.Errorf("unknown storage %q: durable directories accept only \"\" and \"paged\"", o.Storage)
	}
	eng, err := engine.OpenDurable(dir, o.internal())
	if err != nil {
		return nil, err
	}
	eng.SetMaskClosureEnabled(o.MaskClosure)
	return &DB{eng: eng}, nil
}

// Close releases the durable directory's log handle (a no-op for
// in-memory databases). The state stays readable; further mutations on
// a durable database fail.
func (db *DB) Close() error { return db.eng.Close() }

// Checkpoint folds the write-ahead log into a fresh snapshot, bounding
// the next open's recovery time. Only durable databases checkpoint.
func (db *DB) Checkpoint() error { return db.eng.Checkpoint() }

// Load restores a database saved with Save, replaying its three
// scripts; a directory without data.authdb (the CSV layout of earlier
// builds) is refused with an error naming the upgrade path, and a
// durable directory (it holds CURRENT) with one naming OpenDir. With no
// Options argument it uses DefaultOptions.
func Load(dir string, opts ...Options) (*DB, error) {
	o := DefaultOptions()
	if len(opts) > 0 {
		o = opts[0]
	}
	eng, err := engine.Load(dir, o.internal())
	if err != nil {
		return nil, err
	}
	eng.SetMaskClosureEnabled(o.MaskClosure)
	return &DB{eng: eng}, nil
}

// Admin opens an administrator session: it may define relations, load
// data, define views, grant and revoke permits, and reads unmasked.
func (db *DB) Admin() *Session {
	return &Session{s: db.eng.NewSession("admin", true)}
}

// Session opens a session for a (non-administrator) user; retrievals are
// masked by the user's permitted views and updates are checked against
// them.
func (db *DB) Session(user string) *Session {
	return &Session{s: db.eng.NewSession(user, false)}
}

// SessionFor opens a session for user with the given authority; the
// network server uses it so administrator connections keep their own
// principal name.
func (db *DB) SessionFor(user string, admin bool) *Session {
	return &Session{s: db.eng.NewSession(user, admin)}
}

// Metrics exposes the process's operational metrics registry (requests
// by kind, execution latency, masked cells, guard trips, mask-cache and
// WAL activity); the network server registers its connection gauges on
// the same registry and serves it at /metrics.
func (db *DB) Metrics() *metrics.Registry {
	return db.eng.Metrics()
}

// Engine exposes the underlying engine for in-process subsystems (the
// network server's replication hub, the replica applier). Not part of
// the stable embedding surface.
func (db *DB) Engine() *engine.Engine { return db.eng }

// SetGroupCommit has no effect. Group commit is the only journaling
// path: concurrent writers always share one fsync, and a single writer
// pays one per statement. The method remains only because the
// benchmark harness (bench/churn.go) still calls it; it goes when the
// harness stops.
func (db *DB) SetGroupCommit(bool) {}

// Session executes statements on behalf of one principal.
type Session struct {
	s *engine.Session
}

// User returns the session's principal.
func (s *Session) User() string { return s.s.User() }

// SetLimits replaces the session's per-statement resource limits
// (sessions start with DefaultLimits). It returns the session for
// chaining. Not safe concurrently with executions on the same session.
func (s *Session) SetLimits(l Limits) *Session {
	s.s.SetLimits(l.internal())
	return s
}

// Cell is one delivered value: a string, an integer, or null (withheld).
type Cell struct {
	v value.Value
}

// IsNull reports whether the value was withheld (or genuinely null).
func (c Cell) IsNull() bool { return c.v.IsNull() }

// Int returns the integer payload and whether the cell holds an integer.
func (c Cell) Int() (int64, bool) { return c.v.AsInt(), c.v.Kind() == value.KindInt }

// Text returns the string payload and whether the cell holds a string.
func (c Cell) Text() (string, bool) { return c.v.AsString(), c.v.Kind() == value.KindString }

// String renders the cell; withheld cells render as "-".
func (c Cell) String() string { return c.v.String() }

// Table is a delivered relation.
type Table struct {
	// Columns holds display names (bare attribute names, numbered on
	// collision).
	Columns []string
	// Rows holds the tuples in canonical order. The rows share one
	// backing array, each with cap == len, so appending to one row
	// cannot overwrite the next.
	Rows [][]Cell
}

// String renders the table in the paper's figure style.
func (t *Table) String() string {
	var b strings.Builder
	relation.RenderTable(&b, "", t.Columns, t.cellText(), false)
	return b.String()
}

// cellText returns the rows as cell text, withheld cells as "-": the
// form the wire carries and the renderer prints. The rows are carved from
// one slab of strings, each with cap == len.
func (t *Table) cellText() [][]string {
	n := 0
	for _, r := range t.Rows {
		n += len(r)
	}
	rows := make([][]string, len(t.Rows))
	cells := make([]string, n)
	for i, r := range t.Rows {
		row := cells[:len(r):len(r)]
		cells = cells[len(r):]
		for j, c := range r {
			row[j] = c.String()
		}
		rows[i] = row
	}
	return rows
}

// tableOf converts a delivered relation in canonical order, its rows
// carved from one slab of cells. A masked answer is canonical when the
// closure stores it, so a hit converts without sorting.
func tableOf(r *relation.Relation) *Table {
	if r == nil {
		return nil
	}
	t := &Table{Columns: core.DisplayNames(r.Attrs)}
	tuples := r.Sorted()
	if len(tuples) == 0 {
		return t
	}
	t.Rows = make([][]Cell, len(tuples))
	cells := make([]Cell, len(tuples)*r.Arity())
	for i, tp := range tuples {
		row := cells[:len(tp):len(tp)]
		cells = cells[len(tp):]
		for j, v := range tp {
			row[j] = Cell{v: v}
		}
		t.Rows[i] = row
	}
	return t
}

// Result is the outcome of one statement.
type Result struct {
	// Text carries acknowledgements and show output.
	Text string
	// Table is the delivered relation of a retrieve, masked for user
	// sessions.
	Table *Table
	// Permits are the inferred permit statements accompanying a
	// partially delivered answer (empty on full grants and denials).
	Permits []string
	// FullyAuthorized reports the entire answer was delivered; Denied
	// reports none of it was.
	FullyAuthorized bool
	// Denied reports that no portion of the answer was permitted.
	Denied bool
}

// Render renders the result exactly as the REPL prints it: the text,
// then the table followed by its authorization footer (the outcome line
// or the inferred permit statements). Network clients render the reply
// they receive with the same function, so every front end shows
// identical output.
func (r *Result) Render() string {
	return r.Wire(0).Render()
}

// Wire converts the result to the reply the network server sends for
// request id, stringifying each cell once. Like DB.Engine, it serves
// in-process subsystems and is not part of the stable embedding surface.
func (r *Result) Wire(id uint64) wire.Response {
	resp := wire.Response{
		ID:              id,
		Text:            r.Text,
		Permits:         r.Permits,
		FullyAuthorized: r.FullyAuthorized,
		Denied:          r.Denied,
	}
	if r.Table != nil {
		resp.Table = &wire.Table{Columns: r.Table.Columns, Rows: r.Table.cellText()}
	}
	return resp
}

func resultOf(r *engine.Result) *Result {
	out := &Result{Text: r.Text, Table: tableOf(r.Relation)}
	out.Permits, out.FullyAuthorized, out.Denied = outcome(r)
	return out
}

// outcome is what a result reports beside its table: the inferred
// permit statements and the outcome flags.
func outcome(r *engine.Result) (permits []string, full, denied bool) {
	for _, p := range r.Permits {
		permits = append(permits, p.String())
	}
	if r.Decision != nil {
		return permits, r.Decision.FullyAuthorized, r.Decision.Denied
	}
	// Administrator retrieves bypass the authorizer entirely, so no
	// decision accompanies them; the whole answer was delivered.
	return permits, r.Relation != nil, false
}

// Exec parses and executes one statement (relation, insert, delete, view,
// permit, revoke, retrieve, show, drop view).
func (s *Session) Exec(stmt string) (*Result, error) {
	return s.ExecContext(context.Background(), stmt)
}

// ExecContext is Exec under a context: cancellation and deadline are
// honored at tuple-batch granularity and surface as ErrCanceled; the
// session's Limits surface as ErrBudgetExceeded.
func (s *Session) ExecContext(ctx context.Context, stmt string) (*Result, error) {
	r, err := s.s.ExecContext(ctx, stmt)
	if err != nil {
		return nil, err
	}
	return resultOf(r), nil
}

// Dispatch executes one line of input: a statement, or a meta-command
// shared by every front end (`\stats`, administrator only, which renders
// the process metrics). The REPL and the network server both route user
// input through Dispatch so they expose one statement surface.
func (s *Session) Dispatch(ctx context.Context, input string) (*Result, error) {
	r, err := s.s.Dispatch(ctx, input)
	if err != nil {
		return nil, err
	}
	return resultOf(r), nil
}

// Reply executes one line of input as Dispatch does and returns the
// reply the network server sends for request id. No Table of Cells and
// no cell text is built: a delivered relation the closure keeps goes out
// as its entry's encoded section (replyTable), any other one to the
// frame writer as its tuples (wire.Table.Tuples). Like Result.Wire, it
// serves in-process subsystems and is not part of the stable embedding
// surface.
func (s *Session) Reply(ctx context.Context, id uint64, input string) (wire.Response, error) {
	r, err := s.s.Dispatch(ctx, input)
	if err != nil {
		return wire.Response{}, err
	}
	resp := wire.Response{ID: id, Text: r.Text}
	resp.Permits, resp.FullyAuthorized, resp.Denied = outcome(r)
	if rel := r.Relation; rel != nil {
		resp.Table = replyTable(rel, r.Reply)
	}
	return resp, nil
}

// replyTable is the table of a reply delivering rel, whose encoded
// section sec holds when the closure keeps rel (nil otherwise). The
// first reply to read a holder encodes the table once, keeps the bytes
// in a buffer of their exact size and sends them; every later reply
// sends the kept bytes without encoding.
func replyTable(rel *relation.Relation, sec *core.ReplySection) *wire.Table {
	if b := sec.Load(); b != nil {
		return &wire.Table{Section: b}
	}
	t := &wire.Table{Columns: core.DisplayNames(rel.Attrs), Tuples: rel.Sorted()}
	if sec == nil {
		return t
	}
	b, err := wire.AppendTableSection(nil, t)
	if err != nil {
		return t // the frame writer reports the shape
	}
	return &wire.Table{Section: sec.Keep(append(make([]byte, 0, len(b)), b...))}
}

// MustExec is Exec for setup code; it panics on error.
func (s *Session) MustExec(stmt string) *Result {
	r, err := s.Exec(stmt)
	if err != nil {
		panic(fmt.Errorf("authdb: %s: %w", firstLine(stmt), err))
	}
	return r
}

// ExecScript executes a semicolon-separated script, stopping at the first
// error.
func (s *Session) ExecScript(script string) ([]*Result, error) {
	rs, err := s.s.ExecScript(script)
	out := make([]*Result, 0, len(rs))
	for _, r := range rs {
		out = append(out, resultOf(r))
	}
	return out, err
}

// MustExecScript is ExecScript for setup code; it panics on error.
func (s *Session) MustExecScript(script string) []*Result {
	out, err := s.ExecScript(script)
	if err != nil {
		panic(fmt.Errorf("authdb: %w", err))
	}
	return out
}

func firstLine(s string) string {
	s = strings.TrimSpace(s)
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i] + " …"
	}
	return s
}
