package engine

import (
	"context"
	"fmt"

	"authdb/internal/parser"
	"authdb/internal/relation"
	"authdb/internal/value"
)

// retrieveAgg answers an aggregate request: the plain definition runs
// under the session's ordinary authorization first, and the aggregates
// fold the *delivered* relation — every derived number is a function of
// data the user is entitled to see, so no separate aggregate
// authorization is needed (aggregate views, the other half of the §6
// remark, are out of scope; see DESIGN.md).
//
// Grouping: the non-aggregated output columns form the group key. Rows
// whose group key contains a withheld value are dropped; withheld values
// inside a group are skipped by the fold (count counts non-null values),
// and a group whose fold saw no values yields null.
func (s *Session) retrieveAgg(ctx context.Context, p parser.Retrieve) (*Result, error) {
	base, err := s.RetrieveContext(ctx, p.Def)
	if err != nil {
		return nil, err
	}
	in := base.Relation

	aggAt := make(map[int]string, len(p.Aggs))
	for _, a := range p.Aggs {
		if a.Index < 0 || a.Index >= in.Arity() {
			return nil, fmt.Errorf("aggregate index %d out of range", a.Index)
		}
		aggAt[a.Index] = a.Func
	}
	var groupIdx, foldIdx []int
	for i := 0; i < in.Arity(); i++ {
		if _, ok := aggAt[i]; ok {
			foldIdx = append(foldIdx, i)
		} else {
			groupIdx = append(groupIdx, i)
		}
	}

	// keys holds each group's key at the group's position; accs[g] folds
	// group g, one accumulator per aggregated column.
	keys := relation.NewSet(make([]string, len(groupIdx)), 0)
	var accs [][]aggAccum
	key := make(relation.Tuple, len(groupIdx))
rows:
	for _, t := range in.Tuples() {
		for j, gi := range groupIdx {
			if t[gi].IsNull() {
				continue rows
			}
			key[j] = t[gi]
		}
		g := keys.Find(key)
		if g < 0 {
			g = keys.Len()
			keys.Add(key.Clone())
			acc := make([]aggAccum, len(foldIdx))
			for k, fi := range foldIdx {
				acc[k].fn = aggAt[fi]
			}
			accs = append(accs, acc)
		}
		for k, fi := range foldIdx {
			accs[g][k].add(t[fi])
		}
	}

	attrs := make([]string, in.Arity())
	for i, a := range in.Attrs {
		if fn, ok := aggAt[i]; ok {
			_, bare := relation.SplitQualified(a)
			attrs[i] = fn + "(" + bare + ")"
		} else {
			attrs[i] = a
		}
	}
	// Each group's key is its own, so the rows are distinct.
	rows := make([]relation.Tuple, 0, keys.Len())
	for g, key := range keys.Relation().Tuples() {
		row := make(relation.Tuple, in.Arity())
		for j, gi := range groupIdx {
			row[gi] = key[j]
		}
		for k, fi := range foldIdx {
			row[fi] = accs[g][k].result()
		}
		rows = append(rows, row)
	}
	out := relation.NewDistinct(attrs, rows)
	// The base Decision comes along for its outcome, but not its reply
	// section: that encodes the base relation, not out.
	return &Result{Relation: out, Permits: base.Permits, Decision: base.Decision, AtLSN: base.AtLSN}, nil
}

// aggAccum folds one aggregate over a group, skipping withheld values.
type aggAccum struct {
	fn    string
	n     int64
	sum   int64
	min   value.Value
	max   value.Value
	first bool
}

func (a *aggAccum) add(v value.Value) {
	if v.IsNull() {
		return
	}
	a.n++
	if v.Kind() == value.KindInt {
		a.sum += v.AsInt()
	}
	if !a.first {
		a.min, a.max, a.first = v, v, true
		return
	}
	if v.Less(a.min) {
		a.min = v
	}
	if a.max.Less(v) {
		a.max = v
	}
}

func (a *aggAccum) result() value.Value {
	if a.n == 0 {
		return value.Null()
	}
	switch a.fn {
	case "count":
		return value.Int(a.n)
	case "sum":
		return value.Int(a.sum)
	case "avg":
		// Integer average, truncated toward zero (the value model has no
		// floating point domain).
		return value.Int(a.sum / a.n)
	case "min":
		return a.min
	case "max":
		return a.max
	default:
		return value.Null()
	}
}
