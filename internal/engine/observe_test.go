package engine_test

import (
	"context"
	"errors"
	"strconv"
	"strings"
	"testing"
	"time"

	"authdb/internal/core"
	"authdb/internal/engine"
	"authdb/internal/guard"
	"authdb/internal/workload"
)

func TestDispatchStats(t *testing.T) {
	e := paperEngine(t)
	admin := e.NewSession("admin", true)
	user := e.NewSession("Brown", false)
	ctx := context.Background()

	if _, err := user.Dispatch(ctx, workload.Example1Query); err != nil {
		t.Fatal(err)
	}
	res, err := admin.Dispatch(ctx, `\stats`)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`authdb_requests_total{kind="retrieve"}`,
		`authdb_exec_seconds_count{kind="retrieve"}`,
		"authdb_cells_delivered_total",
		"authdb_meta_tuples_total",
		"authdb_mask_closure_plan_hits_total",
	} {
		if !strings.Contains(res.Text, want) {
			t.Fatalf("\\stats output missing %q:\n%s", want, res.Text)
		}
	}
	// Only kinds and outcomes that occurred have series.
	for _, absent := range []string{`kind="explain"`, "authdb_guard_canceled_total", "authdb_exec_errors_total"} {
		if strings.Contains(res.Text, absent) {
			t.Fatalf("\\stats output lists unused %q:\n%s", absent, res.Text)
		}
	}

	// \stats is an administrator command; the shared dispatch enforces it.
	if _, err := user.Dispatch(ctx, `\stats`); !errors.Is(err, engine.ErrNotAuthorized) {
		t.Fatalf("user \\stats error = %v, want ErrNotAuthorized", err)
	}
	if _, err := admin.Dispatch(ctx, `\bogus`); err == nil {
		t.Fatal("unknown backslash command accepted")
	}
	// Plain statements flow through to Exec.
	if res, err := admin.Dispatch(ctx, `show relations;`); err != nil || !strings.Contains(res.Text, "EMPLOYEE") {
		t.Fatalf("dispatch of statement = %v, %v", res, err)
	}
}

func TestExecMetricsCounters(t *testing.T) {
	e := paperEngine(t)
	klein := e.NewSession("Klein", false)

	if _, err := klein.Exec(workload.Example2Query); err != nil {
		t.Fatal(err)
	}
	met := e.Metrics()
	if got := met.Counter("authdb_requests_total", "kind", "retrieve").Value(); got < 1 {
		t.Fatalf("retrieve counter = %d, want >= 1", got)
	}
	delivered := met.Counter("authdb_cells_delivered_total").Value()
	withheld := met.Counter("authdb_cells_withheld_total").Value()
	// Example 2 delivers Klein's engineers' names with SALARY withheld:
	// cells of both kinds in delivered rows.
	if delivered == 0 || withheld == 0 {
		t.Fatalf("cells delivered=%d withheld=%d, want both > 0", delivered, withheld)
	}

	// A recomputed mask plan counts the meta-tuples it materialized; the
	// same request again is answered by the closure and counts none.
	meta := met.Counter("authdb_meta_tuples_total").Value()
	if meta == 0 {
		t.Fatal("meta-tuple counter did not move on a cold authorization")
	}
	if _, err := klein.Exec(workload.Example2Query); err != nil {
		t.Fatal(err)
	}
	if got := met.Counter("authdb_meta_tuples_total").Value(); got != meta {
		t.Fatalf("meta-tuple counter moved from %d to %d on a cached authorization", meta, got)
	}

	// A budget trip increments the guard counter.
	tight := e.NewSession("Brown", false)
	l := guard.DefaultLimits()
	l.MaxIntermediateRows = 1
	tight.SetLimits(l)
	if _, err := tight.Exec(workload.Example3Query); !errors.Is(err, guard.ErrBudgetExceeded) {
		t.Fatalf("tight budget error = %v", err)
	}
	if got := met.Counter("authdb_guard_budget_total").Value(); got != 1 {
		t.Fatalf("budget counter = %d, want 1", got)
	}

	// A canceled context increments the cancel counter.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	fresh := e.NewSession("Brown", false)
	if _, err := fresh.ExecContext(ctx, workload.Example1Query); !errors.Is(err, guard.ErrCanceled) {
		t.Fatalf("canceled error = %v", err)
	}
	if got := met.Counter("authdb_guard_canceled_total").Value(); got != 1 {
		t.Fatalf("cancel counter = %d, want 1", got)
	}

}

// TestStatsIgnoreHiddenRows is a pair of states Brown's permitted views
// cannot tell apart: the paper's database with and without PROJECT's
// (sv-72, Apex) row, which no view of Brown's covers. Example 1 must
// report the same Decision.Stats and move authdb_cells_withheld_total by
// the same amount in both.
func TestStatsIgnoreHiddenRows(t *testing.T) {
	type reading struct {
		stats    core.MaskStats
		withheld int64
	}
	read := func(keepRow bool) reading {
		t.Helper()
		e := engine.New(core.DefaultOptions())
		admin := e.NewSession("admin", true)
		if _, err := admin.ExecScript(workload.PaperScript); err != nil {
			t.Fatal(err)
		}
		if !keepRow {
			if _, err := admin.Exec(`delete from PROJECT where PROJECT.NUMBER = sv-72`); err != nil {
				t.Fatal(err)
			}
		}
		withheld := e.Metrics().Counter("authdb_cells_withheld_total")
		before := withheld.Value()
		res, err := e.NewSession("Brown", false).Exec(workload.Example1Query)
		if err != nil {
			t.Fatal(err)
		}
		return reading{res.Decision.Stats, withheld.Value() - before}
	}
	if with, without := read(true), read(false); with != without {
		t.Fatalf("Example 1 reads %+v with the hidden row, %+v without", with, without)
	}
}

// TestValueGauges: the intern table's gauges count a string the first
// time any statement parses it, and like every series they reach only
// an administrator: their size depends on data no user's views cover.
func TestValueGauges(t *testing.T) {
	e := paperEngine(t)
	admin := e.NewSession("admin", true)
	ctx := context.Background()
	gauges := func() (n, bytes float64) {
		t.Helper()
		res, err := admin.Dispatch(ctx, `\stats`)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(res.Text, "\n") {
			name, v, _ := strings.Cut(line, " ")
			f, _ := strconv.ParseFloat(v, 64)
			switch name {
			case "authdb_value_strings":
				n = f
			case "authdb_value_string_bytes":
				bytes = f
			}
		}
		if n == 0 || bytes == 0 {
			t.Fatalf("\\stats lacks the value gauges:\n%s", res.Text)
		}
		return n, bytes
	}
	n0, b0 := gauges()
	fresh := "gauge-" + strconv.FormatInt(time.Now().UnixNano(), 36)
	if _, err := admin.Exec(`insert into PROJECT values (` + fresh + `, Acme, 1)`); err != nil {
		t.Fatal(err)
	}
	if n1, b1 := gauges(); n1 != n0+1 || b1 != b0+float64(len(fresh)) {
		t.Errorf("after interning %q the gauges read %v strings, %v bytes; before %v, %v", fresh, n1, b1, n0, b0)
	}
	if _, err := e.NewSession("Brown", false).Dispatch(ctx, `\stats`); !errors.Is(err, engine.ErrNotAuthorized) {
		t.Fatalf("user \\stats error = %v, want ErrNotAuthorized", err)
	}
}
