package engine

import (
	"errors"
	"testing"
	"time"

	"authdb/internal/core"
	"authdb/internal/guard"
	"authdb/internal/workload"
)

// TestObserveExecAllocsNothing checks that recording a statement of a
// kind already seen resolves its series without a registry lookup: no
// label rendering, no allocation, on every outcome.
func TestObserveExecAllocsNothing(t *testing.T) {
	e := New(core.DefaultOptions())
	if _, err := e.NewSession("admin", true).ExecScript(workload.PaperScript); err != nil {
		t.Fatal(err)
	}
	res, err := e.NewSession("Brown", false).Exec(workload.Example1Query)
	if err != nil || res.Decision == nil {
		t.Fatalf("authorized retrieve: %v, %v", res, err)
	}
	for _, c := range []struct {
		res *Result
		err error
	}{
		{res, nil},
		{nil, guard.ErrCanceled},
		{nil, guard.ErrBudgetExceeded},
		{nil, errors.New("unknown view")},
	} {
		observe := func() { e.observeExec("retrieve", time.Millisecond, c.res, c.err) }
		observe() // first use of the outcome's series registers it
		if n := testing.AllocsPerRun(100, observe); n != 0 {
			t.Errorf("observeExec(err=%v) allocates %.1f times per call", c.err, n)
		}
	}
}
