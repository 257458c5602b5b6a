// Observability and the shared statement-dispatch surface. The engine
// owns a metrics registry; every statement execution is recorded here
// (requests by kind, latency, masked cells, guard trips — WAL appends
// are recorded by the durable layer), and Session.Dispatch is the one
// entry point the REPL and the network server both route input through,
// so the statement surface (including the `\stats` admin command) stays
// identical everywhere.
package engine

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"authdb/internal/guard"
	"authdb/internal/metrics"
	"authdb/internal/parser"
	"authdb/internal/value"
)

// ErrNotAuthorized reports that the session's principal lacks the
// authority for a statement: an administrator-only statement from a user
// session, or an update outside every permitted view. Test with
// errors.Is; the wire protocol maps it to a stable code.
var ErrNotAuthorized = errors.New("not authorized")

// ErrInternal reports a panic recovered at the session boundary; the
// statement failed but the engine keeps serving. Test with errors.Is.
var ErrInternal = errors.New("internal error")

// Metrics exposes the engine's metrics registry; the network server
// registers its own series (connections, protocol errors) on the same
// registry so one scrape shows the whole process.
func (e *Engine) Metrics() *metrics.Registry { return e.met }

// registerMetrics installs the callback series whose values other
// subsystems already track.
func (e *Engine) registerMetrics() {
	// Closure effectiveness: hits serve materialized results without
	// running either pipeline; refreshes are the subset that replayed an
	// appended window first; plan hits are the misses that reused the
	// entry's plan and ran the actual side alone, the closure's only
	// invalidations (revisions moved beyond repair): a definition change
	// moves keys and invalidates nothing. The gauges report what the
	// entries hold: delivered rows, and the bytes of the reply sections
	// built from them.
	e.met.CounterFunc("authdb_mask_closure_hits_total", func() float64 {
		return float64(e.MaskClosureStats().Hits)
	})
	e.met.CounterFunc("authdb_mask_closure_misses_total", func() float64 {
		return float64(e.MaskClosureStats().Misses)
	})
	e.met.CounterFunc("authdb_mask_closure_plan_hits_total", func() float64 {
		return float64(e.MaskClosureStats().PlanHits)
	})
	e.met.CounterFunc("authdb_mask_closure_refreshes_total", func() float64 {
		return float64(e.MaskClosureStats().Refreshes)
	})
	e.met.GaugeFunc("authdb_mask_closure_entries", func() float64 {
		return float64(e.MaskClosureStats().Entries)
	})
	e.met.GaugeFunc("authdb_mask_closure_resident_rows", func() float64 {
		return float64(e.MaskClosureStats().ResidentRows)
	})
	e.met.GaugeFunc("authdb_mask_closure_reply_bytes", func() float64 {
		return float64(e.MaskClosureStats().ReplyBytes)
	})
	// The process-wide string intern table behind every string cell
	// (internal/value): it only grows, so these say what the process has
	// ever parsed. Its size depends on every principal's data, so like
	// every series here it is the operator's alone (\stats is
	// administrator-only, /metrics listens on the operator's address).
	e.met.GaugeFunc("authdb_value_strings", func() float64 {
		n, _ := value.Interned()
		return float64(n)
	})
	e.met.GaugeFunc("authdb_value_string_bytes", func() float64 {
		_, b := value.Interned()
		return float64(b)
	})
	// The log's position: applied, durable, and the snapshot generation.
	e.met.GaugeFunc("authdb_wal_lsn", func() float64 {
		return float64(e.lsn.Load())
	})
	e.met.GaugeFunc("authdb_wal_durable_lsn", func() float64 {
		return float64(e.durableLSN.Load())
	})
	e.met.GaugeFunc("authdb_snapshot_generation", func() float64 {
		return float64(e.snapGen.Load())
	})
	e.met.GaugeFunc("authdb_db_version", func() float64 {
		seq, _ := e.DBVersion()
		return float64(seq)
	})
}

// stmtKind names a statement for the per-kind request counters.
func stmtKind(p parser.Stmt) string {
	switch p := p.(type) {
	case parser.CreateRelation:
		return "relation"
	case parser.Insert:
		return "insert"
	case parser.Delete:
		return "delete"
	case parser.ViewStmt:
		return "view"
	case parser.DropView:
		return "drop_view"
	case parser.Permit:
		return "permit"
	case parser.Revoke:
		return "revoke"
	case parser.Retrieve:
		if len(p.Aggs) > 0 {
			return "retrieve_agg"
		}
		return "retrieve"
	case parser.Explain:
		return "explain"
	case parser.Show:
		return "show"
	default:
		return "other"
	}
}

// execMetrics holds the series observeExec updates, resolved once per
// kind or outcome instead of looked up on every statement. Each
// registers on first use, so the exposition lists exactly the kinds and
// outcomes seen.
type execMetrics struct {
	requests                        *metrics.Vec[metrics.Counter]
	latency                         *metrics.Vec[metrics.Histogram]
	delivered, withheld, metaTuples func() *metrics.Counter
	canceled, budget, errors        func() *metrics.Counter
}

func newExecMetrics(r *metrics.Registry) execMetrics {
	return execMetrics{
		requests:   r.CounterVec("authdb_requests_total", "kind"),
		latency:    r.HistogramVec("authdb_exec_seconds", "kind"),
		delivered:  r.LazyCounter("authdb_cells_delivered_total"),
		withheld:   r.LazyCounter("authdb_cells_withheld_total"),
		metaTuples: r.LazyCounter("authdb_meta_tuples_total"),
		canceled:   r.LazyCounter("authdb_guard_canceled_total"),
		budget:     r.LazyCounter("authdb_guard_budget_total"),
		errors:     r.LazyCounter("authdb_exec_errors_total"),
	}
}

// observeExec records one statement execution: the request count and
// latency by kind, the revealed and withheld cells of the delivered rows
// (MaskStats never counts a row withheld entirely) and the meta-tuples a
// recomputed mask plan materialized on authorized retrievals (zero when the
// closure answered or supplied the plan), and guard cancellation/budget
// trips on failures.
func (e *Engine) observeExec(kind string, d time.Duration, res *Result, err error) {
	m := &e.execMet
	m.requests.With(kind).Inc()
	m.latency.With(kind).Observe(d.Seconds())
	switch {
	case err == nil:
		if res != nil && res.Decision != nil {
			st := res.Decision.Stats
			m.delivered().Add(int64(st.RevealedCells))
			m.withheld().Add(int64(st.Cells - st.RevealedCells))
			m.metaTuples().Add(int64(res.Decision.MetaTuples))
		}
	case errors.Is(err, guard.ErrCanceled):
		m.canceled().Inc()
	case errors.Is(err, guard.ErrBudgetExceeded):
		m.budget().Inc()
	default:
		m.errors().Inc()
	}
}

// Dispatch executes one line of input: a shared meta-command (`\stats`,
// administrator only; `\begin snapshot` / `\end`, any session) or a
// statement. The REPL and the network server both route user input
// through Dispatch so every front end exposes the same surface.
func (s *Session) Dispatch(ctx context.Context, input string) (*Result, error) {
	trimmed := strings.TrimSpace(input)
	if strings.HasPrefix(trimmed, `\`) {
		switch strings.TrimSpace(strings.TrimSuffix(trimmed, ";")) {
		case `\stats`:
			if err := s.requireAdmin(`\stats`); err != nil {
				return nil, err
			}
			return &Result{Text: strings.TrimRight(s.eng.met.Text(), "\n")}, nil
		case `\begin snapshot`, `\begin`:
			if s.pinned != nil {
				return nil, fmt.Errorf(`snapshot block already open (\end to close)`)
			}
			s.pinned = s.eng.headVersion()
			return &Result{Text: fmt.Sprintf("snapshot pinned at lsn %d", s.pinned.lsn)}, nil
		case `\end`:
			if s.pinned == nil {
				return nil, fmt.Errorf(`no snapshot block open (\begin snapshot to open one)`)
			}
			s.pinned = nil
			return &Result{Text: "snapshot released"}, nil
		default:
			return nil, fmt.Errorf(`unknown command %s (statements, \stats, \begin snapshot, \end)`, trimmed)
		}
	}
	return s.ExecContext(ctx, input)
}
