// Package guard bounds query execution: a Guard carries a context, a
// deadline and a Limits budget down through the relational evaluators
// and the meta-relation operators, so a hostile or runaway request (an
// unbounded cartesian product, a query against a huge instance) is cut
// off at tuple-batch granularity instead of taking the engine down.
//
// A nil *Guard is valid everywhere and means "unlimited, uncancelable":
// every method is nil-safe, so an unguarded evaluation runs the same
// operator loops as a guarded one and accounts nothing.
package guard

import (
	"context"
	"errors"
	"fmt"
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
// single statement execution, which one goroutine evaluates, so its
// counters are plain fields.
type Guard struct {
	ctx context.Context
	// deadline is when Limits.Timeout runs out, zero for none. The clock
	// is read once per batch, so a statement starts no timer.
	deadline time.Time
	limits   Limits
	produced int64
	sinceCk  int64
}

// New builds a guard for one statement execution.
func New(ctx context.Context, limits Limits) *Guard {
	if ctx == nil {
		ctx = context.Background()
	}
	// One unit short of a batch: the first Add or Check reads the clock.
	g := &Guard{ctx: ctx, limits: limits, sinceCk: batchSize - 1}
	if limits.Timeout > 0 {
		g.deadline = time.Now().Add(limits.Timeout)
	}
	return g
}

// Close has no effect: a guard holds no timer. It remains only because
// the benchmark harness still calls it.
func (g *Guard) Close() {}

// ctxErr maps a context failure, or — when clock is set — the deadline
// passing, to the package's typed error.
func (g *Guard) ctxErr(clock bool) error {
	err := g.ctx.Err()
	if err == nil && clock && !g.deadline.IsZero() && !time.Now().Before(g.deadline) {
		err = context.DeadlineExceeded
	}
	if err == nil {
		return nil
	}
	return fmt.Errorf("%w: %v", ErrCanceled, err)
}

// Check verifies cancellation only; call it on loop iterations that do
// not produce rows. It consults the context on every call and the clock
// once per batch, each call counting as one row toward it. Safe on nil
// guards.
func (g *Guard) Check() error {
	if g == nil {
		return nil
	}
	return g.ctxErr(g.tick(1))
}

// Add records n produced intermediate rows, failing with
// ErrBudgetExceeded once the budget is exhausted and with ErrCanceled
// when the context dies or the deadline passes. Both are consulted at
// batch granularity so per-row cost stays a counter increment.
func (g *Guard) Add(n int) error {
	if g == nil {
		return nil
	}
	g.produced += int64(n)
	if max := g.limits.MaxIntermediateRows; max > 0 && g.produced > max {
		return fmt.Errorf("%w: intermediate rows %d exceed limit %d", ErrBudgetExceeded, g.produced, max)
	}
	if g.tick(n) {
		return g.ctxErr(true)
	}
	return nil
}

// tick counts n rows toward the current batch and reports whether it
// filled, carrying any excess into the next batch.
func (g *Guard) tick(n int) bool {
	g.sinceCk += int64(n)
	if g.sinceCk >= batchSize {
		g.sinceCk -= batchSize
		return true
	}
	return false
}

// Produced reports the intermediate rows accounted so far.
func (g *Guard) Produced() int64 {
	if g == nil {
		return 0
	}
	return g.produced
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
