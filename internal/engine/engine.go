// Package engine implements the database front-end sketched in the
// paper's §6: a catalog of relation schemes and instances, the
// authorization store, and statement execution. Administrators define
// relations, data, views, and permits; users submit retrieve statements
// and receive a derived relation "whose structure corresponds to the
// request but whose tuples include only permitted values, and a set of
// inferred permit statements describing the portion delivered". The
// meta-relations stay completely transparent.
//
// The engine also carries the §6 extension to update permissions: a
// non-administrator may insert into or delete from a base relation only
// within a permitted view that covers the relation entirely; a delete
// removes the matched tuples such views cover and leaves the rest.
package engine

import (
	"context"
	"fmt"
	"os"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"authdb/internal/algebra"
	"authdb/internal/core"
	"authdb/internal/cview"
	"authdb/internal/guard"
	"authdb/internal/metrics"
	"authdb/internal/parser"
	"authdb/internal/relation"
	"authdb/internal/value"
	"authdb/internal/wal"
)

// Engine is a thread-safe database instance with view-based authorization.
//
// Concurrency model (MVCC, DESIGN.md §14): the database state lives in
// immutable versions behind the atomic head pointer. Readers pin the
// head once per statement and never take e.mu; writers serialize on
// e.mu, mutate the writer-side state (vrels/wsch/wstore) copy-on-write,
// and publish the successor version with one pointer swap.
type Engine struct {
	// mu serializes writers (statements, checkpoints). Retrievals do not
	// take it in any mode — they read the pinned head version.
	mu sync.RWMutex
	// head is the current database version; see version.go.
	head atomic.Pointer[dbVersion]
	// Writer state, guarded by e.mu: the versioned relations whose heads
	// the next publish will capture, indexed by the schema's ordinals, and
	// the current schema and authorization store (replaced copy-on-write
	// by definition changes, shared with published versions otherwise).
	wsch   *relation.DBSchema
	vrels  []*relation.Versioned
	wstore *core.Store
	verSeq uint64

	opt core.Options
	// closures holds the materialized mask closure, the engine's one
	// retrieve cache: resident mask plans and delivered relations keyed
	// on the participating view definitions and the query, validated
	// lazily at lookup time against the pinned relation revisions, so
	// the commit path never touches it. The pointer is atomic so
	// lock-free readers can pick the closure up alongside their pinned
	// version (nil = disabled); see core.Closure for the coherence
	// argument.
	closures atomic.Pointer[core.Closure]
	// dur is the crash-safe persistence attachment (nil for in-memory
	// engines); see durable.go.
	dur *durable
	// dirLock holds the exclusive flock on the durable directory so a
	// second live engine cannot rotate generations underneath this one;
	// see dirlock.go. Released in Close.
	dirLock *os.File
	// met collects the engine's operational metrics (requests by kind,
	// execution latency, masked cells, guard trips, WAL appends); the
	// network server shares it and adds its own series. See observe.go.
	met     *metrics.Registry
	execMet execMetrics

	// lsn is the log sequence number: the count of mutating statements
	// applied (and staged for the WAL) over the engine's entire history,
	// surviving checkpoints and restarts via the snapshot's LSN file.
	// durableLSN trails it by the commits not yet fsynced; snapGen
	// mirrors the committed snapshot generation. See commit.go.
	lsn        atomic.Uint64
	durableLSN atomic.Uint64
	snapGen    atomic.Uint64

	// Group commit (commit.go): records staged under e.mu and awaiting
	// one shared fsync; writing is set while a waiter writes them and
	// closed when it is done. The WAL handle is written under walMu.
	commitMu  sync.Mutex
	commitQ   []commit
	writing   chan struct{}
	brokenErr error // set at the first journaling failure; guarded by commitMu

	walMu sync.Mutex
	walH  *wal.Log
}

// New creates an empty engine with the given authorization options and
// a materialized mask closure (see SetMaskClosureEnabled).
func New(opt core.Options) *Engine {
	sch := relation.NewDBSchema()
	e := &Engine{
		wsch: sch,
		opt:  opt,
		met:  metrics.NewRegistry(),
	}
	e.execMet = newExecMetrics(e.met)
	e.wstore = core.NewStore(sch)
	e.closures.Store(core.NewClosure(0))
	e.publishLocked() // version 1: the empty database
	e.registerMetrics()
	return e
}

// MaskCacheStats returns zeros: the closure entry keeps the mask plan
// across data churn, so there is no plan cache to report (see
// MaskClosureStats and its PlanHits). The method remains only because
// the benchmark harness still reads it; it goes with ROADMAP item 2 (j).
func (e *Engine) MaskCacheStats() (hits, misses uint64, size int) { return 0, 0, 0 }

// SetMaskCacheEnabled has no effect; see MaskCacheStats. It goes with
// ROADMAP item 2 (j).
func (e *Engine) SetMaskCacheEnabled(bool) {}

// MaskClosureStats reports the materialized mask closure's counters
// (all zero when disabled). Lock-free pickup, like the readers.
func (e *Engine) MaskClosureStats() core.ClosureStats {
	return e.closures.Load().Stats()
}

// SetMaskClosureEnabled enables or disables the materialized mask
// closure; the benchmark harness disables it to measure the
// per-retrieve baseline. Disabling discards the resident entries.
func (e *Engine) SetMaskClosureEnabled(on bool) {
	if on {
		if e.closures.Load() == nil {
			e.closures.Store(core.NewClosure(0))
		}
	} else {
		e.closures.Store(nil)
	}
}

// Store exposes the authorization store of the current version (admin
// surface). The returned store is a read-only snapshot.
func (e *Engine) Store() *core.Store { return e.head.Load().store }

// Schema exposes the database scheme of the current version. The
// returned scheme is a read-only snapshot.
func (e *Engine) Schema() *relation.DBSchema { return e.head.Load().sch }

// Options returns the engine's authorization options.
func (e *Engine) Options() core.Options { return e.opt }

// Relation returns a defensive snapshot of a base relation (admin
// surface).
func (e *Engine) Relation(name string) (*relation.Relation, error) {
	r, err := e.head.Load().source(name)
	if err != nil {
		return nil, err
	}
	return r.Clone(), nil
}

// Result is what a session's statement execution hands back.
type Result struct {
	// Text carries human-readable output for statements that produce no
	// relation (DDL acknowledgements, show output).
	Text string
	// Relation is the delivered (possibly masked) relation of a
	// retrieve, nil otherwise.
	Relation *relation.Relation
	// Reply holds Relation's encoded reply section when Relation is a
	// closure entry's delivered relation, shared with every reader of the
	// entry; nil for any other relation (an administrator's answer, an
	// aggregate's, one computed with the closure off).
	Reply *core.ReplySection
	// Permits accompanies a partially delivered answer.
	Permits []core.PermitStatement
	// Decision exposes the full authorization outcome of a retrieve.
	Decision *core.Decision
	// AtLSN is the log position of the database version the statement
	// read: a retrieve's answer is computed against exactly the state
	// after statement AtLSN, however many commits landed while it ran.
	// Zero for statements that pin no version.
	AtLSN uint64
}

// Session executes statements on behalf of one user. Admin sessions
// bypass authorization; user sessions are masked and restricted. A
// session is not safe for concurrent use; open one session per
// goroutine (sessions are cheap, the engine underneath is shared and
// thread-safe).
type Session struct {
	eng    *Engine
	user   string
	admin  bool
	limits guard.Limits
	// asyncCommit makes mutating statements return as soon as they are
	// applied and staged for the WAL, without waiting for the shared
	// fsync; a bulk loader pairs it with Engine.WaitDurable to make a
	// whole batch durable with one sync.
	asyncCommit bool
	// pendingLSN is the LSN of the statement being executed, set by
	// logStmt and waited for by ExecStmtContext after the engine lock
	// is released.
	pendingLSN uint64
	// pinned is the snapshot a `\begin snapshot` session reads across
	// statements (nil = every statement pins the current head). The
	// session's own successful mutations re-pin to the new head so a
	// snapshot session always reads its writes.
	pinned *dbVersion
	// mine is the user's part of ofStore, the store last read; see own.
	ofStore, mine *core.Store
}

// NewSession opens a session for user; admin sessions may define schema,
// views, and permits, and read everything. Sessions start with
// guard.DefaultLimits; see SetLimits.
func (e *Engine) NewSession(user string, admin bool) *Session {
	return &Session{eng: e, user: user, admin: admin, limits: guard.DefaultLimits()}
}

// own returns the session user's part of st (core.Store.Of), which every
// read of the user's takes its meta side from, rebuilt only when a
// definition change has published another store.
func (s *Session) own(st *core.Store) *core.Store {
	if st != s.ofStore {
		s.ofStore, s.mine = st, st.Of(s.user)
	}
	return s.mine
}

// User returns the session's user name.
func (s *Session) User() string { return s.user }

// SetLimits replaces the session's per-statement resource limits. Zero
// fields are unlimited.
func (s *Session) SetLimits(l guard.Limits) { s.limits = l }

// SetAsyncCommit makes mutating statements return once applied and
// staged, without waiting for WAL durability. An async statement
// becomes durable at the next Engine.WaitDurable, synchronous commit,
// checkpoint or Close, whichever comes first; pair the session with
// WaitDurable to make a batch durable with one sync.
func (s *Session) SetAsyncCommit(on bool) { s.asyncCommit = on }

// Limits returns the session's per-statement resource limits.
func (s *Session) Limits() guard.Limits { return s.limits }

// Exec parses and executes one statement.
func (s *Session) Exec(stmt string) (*Result, error) {
	return s.ExecContext(context.Background(), stmt)
}

// ExecContext parses and executes one statement under ctx: cancellation
// and deadline are honored at tuple-batch granularity and surface as
// guard.ErrCanceled.
func (s *Session) ExecContext(ctx context.Context, stmt string) (*Result, error) {
	p, err := parser.Parse(stmt)
	if err != nil {
		return nil, err
	}
	return s.ExecStmtContext(ctx, p)
}

// ExecScript executes a semicolon-separated script, stopping at the first
// error and returning the results so far.
func (s *Session) ExecScript(script string) ([]*Result, error) {
	return s.ExecScriptContext(context.Background(), script)
}

// ExecScriptContext is ExecScript under ctx; execution errors carry the
// source line of the failing statement.
func (s *Session) ExecScriptContext(ctx context.Context, script string) ([]*Result, error) {
	stmts, err := parser.ParseProgramPos(script)
	if err != nil {
		return nil, err
	}
	var out []*Result
	for _, sp := range stmts {
		r, err := s.ExecStmtContext(ctx, sp.Stmt)
		if err != nil {
			return out, fmt.Errorf("line %d: %w", sp.Line, err)
		}
		out = append(out, r)
	}
	return out, nil
}

// ExecStmtContext executes a parsed statement under ctx and the
// session's limits. A panic anywhere in the execution machinery is
// recovered and returned as an error (wrapping ErrInternal): one
// poisoned statement must not take down a process serving other
// sessions. Every execution is recorded in the engine's metrics.
func (s *Session) ExecStmtContext(ctx context.Context, p parser.Stmt) (res *Result, err error) {
	start := time.Now()
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, fmt.Errorf("%w executing statement: %v", ErrInternal, r)
		}
		s.eng.observeExec(stmtKind(p), time.Since(start), res, err)
	}()
	if ctx != nil && ctx.Err() != nil {
		return nil, fmt.Errorf("%w: %v", guard.ErrCanceled, ctx.Err())
	}
	// Every change is journaled as statement text (the WAL, a
	// snapshot's data.authdb): refuse one that has none before
	// it changes anything.
	if err := parser.CheckLiterals(p); err != nil {
		return nil, err
	}
	res, err = s.execStmt(ctx, p)
	// The handler released the engine lock; wait here for the staged WAL
	// record to become durable (group commit: many sessions share one
	// fsync). Async-commit sessions skip the wait and sync in batches.
	if lsn := s.pendingLSN; lsn != 0 {
		s.pendingLSN = 0
		if err == nil && !s.asyncCommit {
			if cerr := s.eng.WaitDurable(lsn); cerr != nil {
				res, err = nil, cerr
			}
		}
	}
	// A snapshot session reads its own writes: a successful mutation
	// re-pins to the head the statement published (or a later one — the
	// write is included either way).
	if err == nil && s.pinned != nil && Mutating(p) {
		s.pinned = s.eng.headVersion()
	}
	return res, err
}

// execStmt routes one parsed statement to its handler.
func (s *Session) execStmt(ctx context.Context, p parser.Stmt) (*Result, error) {
	switch p := p.(type) {
	case parser.CreateRelation:
		return s.createRelation(p)
	case parser.Insert:
		return s.insert(p)
	case parser.Delete:
		return s.delete(p)
	case parser.ViewStmt:
		return s.define(p, "view", func(ns *core.Store) (string, error) {
			return "defined view " + p.Def.Name, ns.DefineView(p.Def)
		})
	case parser.DropView:
		return s.define(p, "drop view", func(ns *core.Store) (string, error) {
			if !ns.DropView(p.Name) {
				return "", fmt.Errorf("unknown view %s", p.Name)
			}
			return "dropped view " + p.Name, nil
		})
	case parser.Permit:
		return s.define(p, "permit", func(ns *core.Store) (string, error) {
			return fmt.Sprintf("permitted %s to %s", p.View, p.User), ns.Permit(p.View, p.User)
		})
	case parser.Revoke:
		return s.define(p, "revoke", func(ns *core.Store) (string, error) {
			if !ns.Revoke(p.View, p.User) {
				return "", fmt.Errorf("no permit of %s to %s", p.View, p.User)
			}
			return fmt.Sprintf("revoked %s from %s", p.View, p.User), nil
		})
	case parser.Retrieve:
		if len(p.Aggs) > 0 {
			return s.retrieveAgg(ctx, p)
		}
		return s.RetrieveContext(ctx, p.Def)
	case parser.Explain:
		return s.explain(ctx, p.Def)
	case parser.Show:
		return s.show(p)
	default:
		return nil, fmt.Errorf("unsupported statement %T", p)
	}
}

func (s *Session) requireAdmin(what string) error {
	if !s.admin {
		return fmt.Errorf("%w: %s requires an administrator session", ErrNotAuthorized, what)
	}
	return nil
}

// write is the one critical section of every mutating statement: under
// the writer lock, and only while the durable log is healthy, apply
// changes the writer state and returns the result text and the
// statement that repeats the change when replayed as an administrator
// (recovery applies the journal that way). That statement is
// journaled (logStmt) and the change then published for readers; apply
// returns no statement when nothing changed (a duplicate insert, a delete
// removing nothing) to do neither. Publishing follows a journaling
// failure too: the writer state has already moved, and readers must see
// what the writer sees.
func (s *Session) write(apply func() (text string, logged parser.Stmt, err error)) (*Result, error) {
	s.eng.mu.Lock()
	defer s.eng.mu.Unlock()
	if err := s.eng.durCheck(); err != nil {
		return nil, err
	}
	text, logged, err := apply()
	if err != nil {
		return nil, err
	}
	if logged != nil {
		err = s.logStmt(logged)
		s.eng.publishLocked()
		if err != nil {
			return nil, err
		}
	}
	return &Result{Text: text}, nil
}

// define runs an administrator's view, drop view, permit or revoke:
// change edits a clone of the authorization store, which replaces the
// writer's store only on success, so pinned readers keep a stable
// meta-database and a failed definition leaves no trace.
func (s *Session) define(p parser.Stmt, what string, change func(*core.Store) (string, error)) (*Result, error) {
	if err := s.requireAdmin(what); err != nil {
		return nil, err
	}
	return s.write(func() (string, parser.Stmt, error) {
		ns := s.eng.wstore.Clone(s.eng.wsch)
		text, err := change(ns)
		if err != nil {
			return "", nil, err
		}
		s.eng.wstore = ns
		return text, p, nil
	})
}

func (s *Session) createRelation(p parser.CreateRelation) (*Result, error) {
	if err := s.requireAdmin("relation"); err != nil {
		return nil, err
	}
	rs, err := relation.NewSchema(p.Name, p.Attrs, p.Key...)
	if err != nil {
		return nil, err
	}
	return s.write(func() (string, parser.Stmt, error) {
		// Copy-on-write: extend a clone of the scheme and re-bind the store
		// to it, so versions pinned before this statement keep the scheme
		// (and store) without the new relation.
		nsch := s.eng.wsch.Clone()
		if err := nsch.Add(rs); err != nil {
			return "", nil, err
		}
		s.eng.wsch = nsch
		s.eng.vrels = append(s.eng.vrels, relation.NewVersioned(rs.Attrs))
		s.eng.wstore = s.eng.wstore.Clone(nsch)
		return "defined relation " + rs.String(), p, nil
	})
}

// Retrieve answers a query definition under the session's authority.
// Admin sessions receive the unmasked answer.
func (s *Session) Retrieve(def *cview.Def) (*Result, error) {
	return s.RetrieveContext(context.Background(), def)
}

// RetrieveContext is Retrieve under ctx and the session's limits: a
// runaway query fails with guard.ErrBudgetExceeded, a canceled or timed
// out one with guard.ErrCanceled, and the engine keeps serving other
// sessions.
//
// The statement pins the head version once and takes no engine lock:
// however long the evaluation runs, and however many commits land
// meanwhile, the answer — and the mask it was filtered through — is a
// pure function of that one version.
func (s *Session) RetrieveContext(ctx context.Context, def *cview.Def) (*Result, error) {
	g := guard.New(ctx, s.limits)
	v := s.readVersion()
	if s.admin {
		an, err := cview.Analyze(def, v.sch)
		if err != nil {
			return nil, err
		}
		ans, err := algebra.EvalPSJ(an.PSJ, v.source, g, algebra.ExecOptions{}, nil)
		if err != nil {
			return nil, err
		}
		if err := g.Result(ans.Len()); err != nil {
			return nil, err
		}
		return &Result{Relation: ans, AtLSN: v.lsn}, nil
	}
	auth := core.NewAuthorizer(s.own(v.store), v.source, s.eng.opt)
	auth.Guard = g
	auth.Closure = s.eng.closures.Load()
	d, err := auth.Retrieve(s.user, def)
	if err != nil {
		return nil, err
	}
	if err := g.Result(d.Masked.Len()); err != nil {
		return nil, err
	}
	return &Result{Relation: d.Masked, Reply: d.Reply, Permits: d.Permits, Decision: d, AtLSN: v.lsn}, nil
}

// Certify runs the integrity instance of the machinery (§1's
// generalization): views tagged with the quality pseudo-principal define
// the certified portions; the full answer is returned with certification
// statements, nothing masked. Admin surface.
func (e *Engine) Certify(quality, query string) (*core.Certification, error) {
	p, err := parser.Parse(query)
	if err != nil {
		return nil, err
	}
	r, ok := p.(parser.Retrieve)
	if !ok || len(r.Aggs) > 0 {
		return nil, fmt.Errorf("certify expects a plain retrieve statement")
	}
	v := e.headVersion()
	auth := core.NewAuthorizer(v.store, v.source, e.opt)
	return auth.Certify(quality, r.Def)
}

// explain reports the dual pipeline of §5 for a query: the instantiated
// meta-relations, each product/selection/projection phase, the final mask,
// and the outcome, under the session user's permissions. Only an admin
// session also sees the actual side's access paths: the path chosen and
// the rows it read follow from the relations' contents, hidden rows
// included (estimates, distinct counts, scan lengths), so a user's text
// depends on nothing but the user's views and the delivered relation.
func (s *Session) explain(ctx context.Context, def *cview.Def) (*Result, error) {
	g := guard.New(ctx, s.limits)
	v := s.readVersion()
	auth := core.NewAuthorizer(s.own(v.store), v.source, s.eng.opt)
	auth.Guard = g
	var paths algebra.Trace
	tr := &paths
	if !s.admin {
		tr = nil
	}
	d, err := auth.Explain(s.user, def, tr)
	if err != nil {
		return nil, err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "plan: %s\n", d.PSJ)
	fmt.Fprintf(&b, "instantiated views: %s\n\n", strings.Join(d.Views, ", "))
	d.RenderPhases(&b)
	switch {
	case d.FullyAuthorized:
		fmt.Fprintln(&b, "outcome: the entire answer is delivered")
	case d.Denied:
		fmt.Fprintln(&b, "outcome: nothing is delivered")
	default:
		fmt.Fprintf(&b, "outcome: partial (%d row(s) delivered: %d cell(s) revealed, %d withheld)\n",
			d.Stats.Rows, d.Stats.RevealedCells, d.Stats.Cells-d.Stats.RevealedCells)
		for _, p := range d.Permits {
			fmt.Fprintln(&b, p.String())
		}
	}
	if lines := paths.Lines(); len(lines) > 0 {
		fmt.Fprintln(&b, "\naccess paths:")
		for _, l := range lines {
			fmt.Fprintln(&b, "  "+l)
		}
	}
	// Explain itself always runs the unfused plan (the rendered phases
	// describe the full answer); report what retrieval would do.
	if len(d.Pushdown) == 0 || d.FullyAuthorized {
		fmt.Fprintln(&b, "mask pushdown: none")
	} else {
		fmt.Fprintf(&b, "mask pushdown: %s (applied on retrieve)\n", atomsString(d.Pushdown))
	}
	// The phases above are §4.1's order in full. Retrieval reaches the same
	// mask through the planned meta side; report the work it does instead.
	planned, err := auth.MaskPlanFor(s.user, d.PSJ)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(&b, "meta side: retrieval plans it, materializing %d meta-tuples against the %d of the phases above\n",
		planned.MetaTuples, d.MetaTuples)
	return &Result{Text: strings.TrimRight(b.String(), "\n"), Decision: d, AtLSN: v.lsn}, nil
}

// atomsString renders pushdown atoms as a conjunction.
func atomsString(atoms []algebra.Atom) string {
	parts := make([]string, len(atoms))
	for i, a := range atoms {
		parts[i] = a.String()
	}
	return strings.Join(parts, " and ")
}

func (s *Session) insert(p parser.Insert) (*Result, error) {
	return s.write(func() (string, parser.Stmt, error) {
		vr, err := s.eng.versioned(p.Rel)
		if err != nil {
			return "", nil, err
		}
		t := relation.Tuple(p.Values)
		if len(t) != vr.Arity() {
			return "", nil, fmt.Errorf("relation %s expects %d values, got %d", p.Rel, vr.Arity(), len(t))
		}
		if !s.admin {
			cov, err := s.covered(p.Rel, relation.NewDistinct(vr.Head().Attrs, []relation.Tuple{t}))
			if err != nil {
				return "", nil, err
			}
			if cov.Len() == 0 {
				return "", nil, fmt.Errorf("%w: user %s may not modify %s: no permitted view covers the tuple", ErrNotAuthorized, s.user, p.Rel)
			}
		}
		added, err := vr.Insert(t)
		if err != nil {
			return "", nil, err
		}
		if !added {
			return "duplicate tuple ignored", nil, nil
		}
		return "inserted 1 tuple into " + p.Rel, p, nil
	})
}

func (s *Session) delete(p parser.Delete) (*Result, error) {
	return s.write(func() (string, parser.Stmt, error) {
		vr, err := s.eng.versioned(p.Rel)
		if err != nil {
			return "", nil, err
		}
		pred, err := deletePredicate(s.eng.wsch, p)
		if err != nil {
			return "", nil, err
		}
		var logged parser.Stmt = p
		if !s.admin {
			// A user deletes through the view: of the matched tuples, only
			// the covered ones go, and the count is theirs. Refusing when
			// some matched tuple is uncovered would reveal that a hidden
			// tuple matches. Replayed as an administrator, p would remove
			// the uncovered ones too, so the covered ones are journaled by
			// value instead.
			matched := vr.Head().Select(pred)
			cov, err := s.covered(p.Rel, matched)
			if err != nil {
				return "", nil, err
			}
			if cov.Len() < matched.Len() {
				logged = byValue(p.Rel, cov.Relation())
			}
			pred = cov.Contains
		}
		n := vr.Delete(pred)
		if n == 0 {
			logged = nil
		}
		return fmt.Sprintf("deleted %d tuple(s) from %s", n, p.Rel), logged, nil
	})
}

// deletePredicate compiles the where clause of a delete, a disjunction
// of conjunctions, against the base relation's bare attributes.
func deletePredicate(sch *relation.DBSchema, p parser.Delete) (func(relation.Tuple) bool, error) {
	rs := sch.Lookup(p.Rel)
	if rs == nil {
		return nil, fmt.Errorf("unknown relation %s", p.Rel)
	}
	var preds []func(relation.Tuple) bool
	for _, branch := range append([][]cview.Cond{p.Where}, p.Or...) {
		var atoms []algebra.Atom
		for _, c := range branch {
			if relation.BaseOfAlias(c.L.Alias) != p.Rel {
				return nil, fmt.Errorf("delete from %s cannot reference %s", p.Rel, c.L.Alias)
			}
			a := algebra.Atom{L: c.L.Attr, Op: c.Op}
			if c.R.IsCol {
				if relation.BaseOfAlias(c.R.Col.Alias) != p.Rel {
					return nil, fmt.Errorf("delete from %s cannot reference %s", p.Rel, c.R.Col.Alias)
				}
				a.R = algebra.AttrOp(c.R.Col.Attr)
			} else {
				a.R = algebra.ConstOp(c.R.Const)
			}
			atoms = append(atoms, a)
		}
		pred, err := algebra.CompilePred(rs.Attrs, atoms)
		if err != nil {
			return nil, err
		}
		preds = append(preds, pred)
	}
	return func(t relation.Tuple) bool {
		for _, pred := range preds {
			if pred(t) {
				return true
			}
		}
		return false
	}, nil
}

// byValue is the delete of exactly the tuples of r from rel: one branch
// of attribute equalities per tuple.
func byValue(rel string, r *relation.Relation) parser.Delete {
	d := parser.Delete{Rel: rel}
	for i, t := range r.Tuples() {
		branch := make([]cview.Cond, len(t))
		for j, v := range t {
			branch[j] = cview.Cond{L: cview.ColRef{Alias: rel, Attr: r.Attrs[j]}, Op: value.EQ, R: cview.ConstTerm(v)}
		}
		if i == 0 {
			d.Where = branch
		} else {
			d.Or = append(d.Or, branch)
		}
	}
	return d
}

// covered implements the §6 update-permission extension set at a time:
// it returns the tuples of cand, candidates for insertion into or
// deletion from rel, that the user's update authority covers. A tuple is
// covered when some permitted view branch has an occurrence of rel with
// every cell starred, and the branch's query, with that occurrence
// reading cand and every other occurrence reading the writer's current
// relations, projects the tuple on that occurrence. Each such occurrence
// is evaluated once, until every candidate is covered. Runs inside the
// writer's critical section, against the writer state.
func (s *Session) covered(rel string, cand *relation.Relation) (*relation.Set, error) {
	// The covering occurrence reads "", a name no relation can take.
	src := func(name string) (*relation.Relation, error) {
		if name == "" {
			return cand, nil
		}
		vr, err := s.eng.versioned(name)
		if err != nil {
			return nil, err
		}
		return vr.Head(), nil
	}
	out := relation.NewSet(cand.Attrs, cand.Len())
	store := s.own(s.eng.wstore)
	for _, vn := range store.ViewNames() {
		for _, v := range store.Branches(vn) {
			for i, st := range v.Tuples {
				if out.Len() == cand.Len() {
					return &out, nil
				}
				if st.Rel != rel || !allStarred(st) {
					continue
				}
				q := *v.PSJ
				q.Scans = slices.Clone(q.Scans)
				q.Scans[i].Rel = ""
				q.Cols = relation.QualifyAttrs(q.Scans[i].Alias, cand.Attrs)
				ans, err := algebra.EvalPSJ(&q, src, nil, algebra.ExecOptions{}, nil)
				if err != nil {
					return nil, err
				}
				for _, t := range ans.Tuples() {
					out.Add(t)
				}
			}
		}
	}
	return &out, nil
}

// allStarred reports whether a meta-tuple stars every attribute.
func allStarred(st core.StoredTuple) bool {
	for _, c := range st.Cells {
		if !c.Star {
			return false
		}
	}
	return true
}

// show renders a part of the schema or the meta-database. A user reads
// only the part its own permits name (Store.Of): relation schemes are
// public, views and PERMISSION rows are not. `show rights USER` is the
// administrator's `show meta` over that same part for USER.
func (s *Session) show(p parser.Show) (*Result, error) {
	v := s.readVersion()
	st := v.store
	if !s.admin {
		st = s.own(st)
	}
	var b strings.Builder
	switch p.What {
	case "relations":
		for _, n := range v.sch.Names() {
			fmt.Fprintln(&b, v.sch.Lookup(n).String())
		}
	case "views":
		for _, n := range st.ViewNames() {
			fmt.Fprintln(&b, st.ViewDef(n).String())
			fmt.Fprintln(&b)
		}
	case "view":
		def := st.ViewDef(p.Arg)
		if def == nil {
			return nil, fmt.Errorf("unknown view %s", p.Arg)
		}
		fmt.Fprintln(&b, def.String())
		for _, br := range st.Branches(p.Arg) {
			fmt.Fprintln(&b, st.Calculus(br))
		}
	case "permissions":
		st.RenderPermission(&b)
	case "meta", "rights":
		if err := s.requireAdmin("show " + p.What); err != nil {
			return nil, err
		}
		if p.What == "rights" {
			if p.Arg == "" {
				return nil, fmt.Errorf("usage: show rights USER")
			}
			if st = st.Of(p.Arg); len(st.ViewNames()) == 0 {
				fmt.Fprintf(&b, "user %s holds no permits", p.Arg)
				break
			}
		}
		names := v.sch.Names()
		sort.Strings(names)
		for _, n := range names {
			st.RenderMeta(&b, n)
			fmt.Fprintln(&b)
		}
		st.RenderComparison(&b)
		fmt.Fprintln(&b)
		st.RenderPermission(&b)
	default:
		return nil, fmt.Errorf("show %s: unknown target (relations, views, view NAME, permissions, rights USER, meta)", p.What)
	}
	return &Result{Text: strings.TrimRight(b.String(), "\n"), AtLSN: v.lsn}, nil
}
