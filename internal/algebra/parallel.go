package algebra

import (
	"fmt"
	"sync"

	"authdb/internal/guard"
	"authdb/internal/relation"
)

// Parallel execution of the guarded operators. Each operator partitions
// its outer (or only) input into contiguous chunks, one bounded worker
// per chunk, and merges the per-chunk outputs in chunk order — so the
// result relation is tuple-for-tuple identical to serial evaluation.
// Every worker accounts its rows against the shared guard, whose
// counters are atomic; the budget therefore trips iff it would trip
// serially (the accounted totals are the same), which the differential
// test suite asserts over randomized plans.
const (
	// parallelMinWork is the minimum number of output rows a product
	// must be about to materialize before fan-out pays for itself.
	parallelMinWork = 2048
	// parallelMinRows is the minimum input size for fanning out a
	// selection or a hash-join probe.
	parallelMinRows = 1024
)

// runChunks splits [0,n) into at most par contiguous chunks and runs fn
// on each concurrently. The first error in chunk order is returned; a
// panicking worker is contained and surfaces as an error rather than
// crashing the process (the session-boundary recover only covers the
// statement goroutine).
func runChunks(n, par int, fn func(chunk, lo, hi int) error) error {
	if par > n {
		par = n
	}
	errs := make([]error, par)
	var wg sync.WaitGroup
	for ci := 0; ci < par; ci++ {
		lo, hi := ci*n/par, (ci+1)*n/par
		wg.Add(1)
		go func(ci, lo, hi int) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					errs[ci] = fmt.Errorf("internal error in parallel evaluator: %v", p)
				}
			}()
			errs[ci] = fn(ci, lo, hi)
		}(ci, lo, hi)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// mergeChunks appends the per-chunk row buffers, in chunk order, into a
// fresh relation. Rows are unique by construction (products, joins, and
// selections of proper sets), so the no-dedup Append path applies.
func mergeChunks(attrs []string, parts [][]relation.Tuple) *relation.Relation {
	out := relation.New(attrs)
	for _, rows := range parts {
		for _, row := range rows {
			out.Append(row)
		}
	}
	return out
}

// parallelProduct partitions the outer side of a cartesian product.
func parallelProduct(l, r *relation.Relation, g *guard.Guard, par int) (*relation.Relation, error) {
	lt, rt := l.Tuples(), r.Tuples()
	parts := make([][]relation.Tuple, min(par, len(lt)))
	err := runChunks(len(lt), par, func(ci, lo, hi int) error {
		rows := make([]relation.Tuple, 0, (hi-lo)*len(rt))
		for _, a := range lt[lo:hi] {
			for _, b := range rt {
				if err := g.Add(1); err != nil {
					return err
				}
				row := make(relation.Tuple, 0, len(a)+len(b))
				rows = append(rows, append(append(row, a...), b...))
			}
		}
		parts[ci] = rows
		return nil
	})
	if err != nil {
		return nil, err
	}
	attrs := append(append([]string(nil), l.Attrs...), r.Attrs...)
	return mergeChunks(attrs, parts), nil
}

// parallelSelect partitions the input of a selection.
func parallelSelect(in *relation.Relation, pred func(relation.Tuple) bool, g *guard.Guard, par int) (*relation.Relation, error) {
	ts := in.Tuples()
	parts := make([][]relation.Tuple, min(par, len(ts)))
	err := runChunks(len(ts), par, func(ci, lo, hi int) error {
		var rows []relation.Tuple
		for _, t := range ts[lo:hi] {
			if err := g.Add(1); err != nil {
				return err
			}
			if pred(t) {
				rows = append(rows, t)
			}
		}
		parts[ci] = rows
		return nil
	})
	if err != nil {
		return nil, err
	}
	return mergeChunks(in.Attrs, parts), nil
}

// parallelIndexProbe partitions the probe side of an index nested-loop
// join, checking candidates exactly as indexJoin does. The inner
// relation's index cache is mutex-protected, and the first chunk's first
// probe may build it; after that every worker reads the same shared
// entry.
func parallelIndexProbe(l, r *relation.Relation, li, ri []int, keep func(relation.Tuple) bool,
	g *guard.Guard, par int) (*relation.Relation, int, error) {
	lt := l.Tuples()
	parts := make([][]relation.Tuple, min(par, len(lt)))
	probed := make([]int, len(parts))
	err := runChunks(len(lt), par, func(ci, lo, hi int) error {
		var rows []relation.Tuple
		for _, t := range lt[lo:hi] {
			if err := g.Check(); err != nil {
				return err
			}
			run := r.LookupEq(ri[0], t[li[0]])
			probed[ci] += len(run)
			for _, u := range run {
				if err := g.Add(1); err != nil {
					return err
				}
				if !restEqsMatch(t, u, li, ri) || !keep(u) {
					continue
				}
				row := make(relation.Tuple, 0, len(t)+len(u))
				rows = append(rows, append(append(row, t...), u...))
			}
		}
		parts[ci] = rows
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	total := 0
	for _, n := range probed {
		total += n
	}
	attrs := append(append([]string(nil), l.Attrs...), r.Attrs...)
	return mergeChunks(attrs, parts), total, nil
}

// parallelProbe partitions the probe side of a hash join over an
// already-built (read-only) hash table.
func parallelProbe(l, r *relation.Relation, li []int, build map[string][]relation.Tuple,
	key func(relation.Tuple, []int) string, g *guard.Guard, par int) (*relation.Relation, error) {
	lt := l.Tuples()
	parts := make([][]relation.Tuple, min(par, len(lt)))
	err := runChunks(len(lt), par, func(ci, lo, hi int) error {
		var rows []relation.Tuple
		for _, t := range lt[lo:hi] {
			if err := g.Check(); err != nil {
				return err
			}
			for _, u := range build[key(t, li)] {
				if err := g.Add(1); err != nil {
					return err
				}
				row := make(relation.Tuple, 0, len(t)+len(u))
				rows = append(rows, append(append(row, t...), u...))
			}
		}
		parts[ci] = rows
		return nil
	})
	if err != nil {
		return nil, err
	}
	attrs := append(append([]string(nil), l.Attrs...), r.Attrs...)
	return mergeChunks(attrs, parts), nil
}
