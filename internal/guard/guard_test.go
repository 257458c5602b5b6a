package guard

import (
	"context"
	"errors"
	"testing"
	"time"
)

func TestNilGuardIsUnlimited(t *testing.T) {
	var g *Guard
	if err := g.Add(1 << 30); err != nil {
		t.Fatal(err)
	}
	if err := g.Check(); err != nil {
		t.Fatal(err)
	}
	if err := g.Result(1 << 30); err != nil {
		t.Fatal(err)
	}
}

func TestBudgetExceeded(t *testing.T) {
	g := New(context.Background(), Limits{MaxIntermediateRows: 10})
	if err := g.Add(10); err != nil {
		t.Fatalf("within budget: %v", err)
	}
	err := g.Add(1)
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("got %v, want ErrBudgetExceeded", err)
	}
}

func TestResultLimit(t *testing.T) {
	g := New(context.Background(), Limits{MaxResultRows: 5})
	if err := g.Result(5); err != nil {
		t.Fatal(err)
	}
	if err := g.Result(6); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("got %v, want ErrBudgetExceeded", err)
	}
}

func TestCanceledContextSurfacesWithinOneBatch(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	g := New(ctx, Unlimited())
	var err error
	// Cancellation must surface after at most one batch of single-row adds.
	for i := 0; i < batchSize+1; i++ {
		if err = g.Add(1); err != nil {
			break
		}
	}
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("got %v, want ErrCanceled", err)
	}
	if err := g.Check(); !errors.Is(err, ErrCanceled) {
		t.Fatalf("Check got %v, want ErrCanceled", err)
	}
}

func TestTimeout(t *testing.T) {
	g := New(context.Background(), Limits{Timeout: time.Nanosecond})
	time.Sleep(time.Millisecond)
	err := g.Check()
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("got %v, want ErrCanceled", err)
	}
	if got, want := err.Error(), "query canceled: context deadline exceeded"; got != want {
		t.Fatalf("error %q, want %q", got, want)
	}
	// A deadline already on the caller's context still counts.
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	time.Sleep(time.Millisecond)
	if err := New(ctx, DefaultLimits()).Check(); !errors.Is(err, ErrCanceled) {
		t.Fatalf("caller's deadline: got %v, want ErrCanceled", err)
	}
	if err := New(context.Background(), DefaultLimits()).Check(); err != nil {
		t.Fatalf("within the timeout: %v", err)
	}
	// A deadline passing after the first check surfaces within one
	// batch of checks.
	g = New(context.Background(), Limits{Timeout: 20 * time.Millisecond})
	if err := g.Check(); err != nil {
		t.Fatalf("before the deadline: %v", err)
	}
	time.Sleep(30 * time.Millisecond)
	err = nil
	for i := 0; i < batchSize && err == nil; i++ {
		err = g.Check()
	}
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("deadline passed %d checks ago: got %v, want ErrCanceled", batchSize, err)
	}
}

// TestNewAllocatesOnlyTheGuard: a statement's guard starts no timer, so
// building one under a timeout allocates the guard alone.
func TestNewAllocatesOnlyTheGuard(t *testing.T) {
	var g *Guard
	allocs := testing.AllocsPerRun(100, func() { g = New(context.Background(), DefaultLimits()) })
	if allocs > 1 {
		t.Fatalf("New allocated %.0f objects, want at most 1", allocs)
	}
	if err := g.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestDefaultLimitsAreFinite(t *testing.T) {
	l := DefaultLimits()
	if l.MaxIntermediateRows <= 0 || l.MaxResultRows <= 0 || l.Timeout <= 0 {
		t.Fatalf("default limits must be finite: %+v", l)
	}
}
