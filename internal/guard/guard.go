// Package guard bounds query execution: a Guard carries a
// context.Context and a Limits budget down through the relational
// evaluators and the meta-relation operators, so a hostile or runaway
// request (an unbounded cartesian product, a query against a huge
// instance) is cut off at tuple-batch granularity instead of taking the
// engine down.
//
// A nil *Guard is valid everywhere and means "unlimited, uncancelable":
// every method is nil-safe, so an unguarded evaluation runs the same
// operator loops as a guarded one and accounts nothing.
package guard

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"
)

// ErrCanceled reports that the request's context was canceled or its
// deadline passed before execution finished.
var ErrCanceled = errors.New("query canceled")

// ErrBudgetExceeded reports that execution hit a resource limit
// (intermediate rows, result rows).
var ErrBudgetExceeded = errors.New("query budget exceeded")

// Limits bounds one statement's execution. Zero fields mean "no limit"
// for that dimension; the zero Limits value is fully unlimited.
type Limits struct {
	// MaxIntermediateRows caps the total number of tuples materialized
	// across all operators (products, joins, selections, meta-products)
	// while answering one statement.
	MaxIntermediateRows int64
	// MaxResultRows caps the number of tuples in the delivered answer.
	MaxResultRows int64
	// Timeout bounds wall-clock execution of one statement; it composes
	// with (never extends) any deadline already on the caller's context.
	Timeout time.Duration
}

// DefaultLimits is the budget sessions start with: generous enough for
// every workload in the repository, small enough that a self-product of
// a large relation fails fast instead of exhausting memory.
func DefaultLimits() Limits {
	return Limits{
		MaxIntermediateRows: 1_000_000,
		MaxResultRows:       500_000,
		Timeout:             30 * time.Second,
	}
}

// Unlimited returns a Limits with every bound disabled.
func Unlimited() Limits { return Limits{} }

// batchSize is how many produced rows may pass between context checks;
// cancellation is therefore honored within one batch of tuples.
const batchSize = 1024

// Guard enforces a Limits budget under a context. A guard belongs to a
// single statement execution (it is not shared across statements). It is
// safe for concurrent use: the produced-row counter and the batch check
// counter are atomic, so the budget trigger point depends only on the
// total rows accounted, not on which goroutine accounted them.
type Guard struct {
	ctx      context.Context
	cancel   context.CancelFunc
	limits   Limits
	produced atomic.Int64
	sinceCk  atomic.Int64
}

// New builds a guard for one statement execution. Close must be called
// when the statement finishes to release the timeout timer, if any.
func New(ctx context.Context, limits Limits) *Guard {
	if ctx == nil {
		ctx = context.Background()
	}
	g := &Guard{limits: limits}
	if limits.Timeout > 0 {
		g.ctx, g.cancel = context.WithTimeout(ctx, limits.Timeout)
	} else {
		g.ctx = ctx
	}
	return g
}

// Close releases the guard's timeout timer. Safe on nil guards.
func (g *Guard) Close() {
	if g == nil || g.cancel == nil {
		return
	}
	g.cancel()
}

// Context returns the guarded context (background for a nil guard).
func (g *Guard) Context() context.Context {
	if g == nil {
		return context.Background()
	}
	return g.ctx
}

// ctxErr maps a context failure to the package's typed error.
func (g *Guard) ctxErr() error {
	err := g.ctx.Err()
	if err == nil {
		return nil
	}
	return fmt.Errorf("%w: %v", ErrCanceled, err)
}

// Check verifies cancellation only; call it on loop iterations that do
// not produce rows. Safe on nil guards.
func (g *Guard) Check() error {
	if g == nil {
		return nil
	}
	return g.ctxErr()
}

// Add records n produced intermediate rows, failing with
// ErrBudgetExceeded once the budget is exhausted and with ErrCanceled
// when the context dies. The context is consulted at batch granularity
// so per-row cost stays a counter increment.
func (g *Guard) Add(n int) error {
	if g == nil {
		return nil
	}
	total := g.produced.Add(int64(n))
	if max := g.limits.MaxIntermediateRows; max > 0 && total > max {
		return fmt.Errorf("%w: intermediate rows %d exceed limit %d", ErrBudgetExceeded, total, max)
	}
	// Subtracting the batch (rather than storing zero) keeps the counter
	// exact under concurrent adds: rows accounted by another caller
	// between our Add and the reset are not dropped.
	if g.sinceCk.Add(int64(n)) >= batchSize {
		g.sinceCk.Add(-batchSize)
		return g.ctxErr()
	}
	return nil
}

// Produced reports the intermediate rows accounted so far.
func (g *Guard) Produced() int64 {
	if g == nil {
		return 0
	}
	return g.produced.Load()
}

// Result verifies the delivered answer's cardinality against
// MaxResultRows. Safe on nil guards.
func (g *Guard) Result(n int) error {
	if g == nil {
		return nil
	}
	if max := g.limits.MaxResultRows; max > 0 && int64(n) > max {
		return fmt.Errorf("%w: result rows %d exceed limit %d", ErrBudgetExceeded, n, max)
	}
	return nil
}
