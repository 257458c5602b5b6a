package core

import (
	"math/rand"
	"testing"

	"authdb/internal/interval"
	"authdb/internal/relation"
	"authdb/internal/value"
)

// referenceApply is the pre-compilation Apply: star counts recounted
// inside the row loop, best = first tuple achieving the maximum count
// among matchers, zero-star tuples never selected; the stats count the
// rows the output accepts. The compiled path must reproduce it exactly,
// tie-breaks included.
func referenceApply(m *Mask, ans *relation.Relation) (*relation.Relation, MaskStats) {
	var stats MaskStats
	out := relation.New(ans.Attrs)
	width := ans.Arity()
	for _, t := range ans.Tuples() {
		var best *MetaTuple
		bestCount := 0
		for _, mt := range m.Tuples {
			if !mt.Matches(t) {
				continue
			}
			count := 0
			for _, c := range mt.Cells {
				if c.Star {
					count++
				}
			}
			if count > bestCount {
				best, bestCount = mt, count
			}
		}
		revealed := make([]bool, width)
		any := false
		if best != nil {
			for k, c := range best.Cells {
				if c.Star {
					revealed[k] = true
					any = true
				}
			}
		}
		if !any {
			continue
		}
		row := make(relation.Tuple, width)
		cells := 0
		for k := range row {
			if revealed[k] {
				row[k] = t[k]
				cells++
			} else {
				row[k] = value.Null()
			}
		}
		if ok, _ := out.Insert(row); !ok {
			continue
		}
		stats.Rows++
		stats.Cells += width
		stats.RevealedCells += cells
	}
	return out, stats
}

// TestApplyMatchesReference fuzzes randomized masks — overlapping
// intervals, duplicated star counts to force ties, zero-star tuples —
// against randomized answers and demands the compiled first-match-wins
// path agree with the reference row by row, including which mask tuple
// delivered each row.
func TestApplyMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	attrs := []string{"R.A", "R.B", "R.C"}
	for iter := 0; iter < 500; iter++ {
		m := &Mask{Attrs: attrs}
		nt := 1 + rng.Intn(6)
		for i := 0; i < nt; i++ {
			mt := &MetaTuple{Cells: make([]Cell, len(attrs))}
			for k := range mt.Cells {
				// Bias toward repeats so equal star counts (ties) are common.
				mt.Cells[k].Star = rng.Intn(2) == 0
				switch rng.Intn(3) {
				case 0:
					mt.Cells[k].Cons = interval.Full()
				case 1:
					mt.Cells[k].Cons = interval.FromCmp(value.GE, value.Int(int64(rng.Intn(4))))
				case 2:
					mt.Cells[k].Cons = interval.FromCmp(value.LE, value.Int(int64(rng.Intn(4))))
				}
			}
			m.Tuples = append(m.Tuples, mt)
		}
		ans := relation.New(attrs)
		for r := 0; r < 12; r++ {
			ans.Insert(relation.Tuple{ //nolint:errcheck
				value.Int(int64(rng.Intn(5))), value.Int(int64(rng.Intn(5))), value.Int(int64(rng.Intn(5))),
			})
		}

		wantOut, wantStats := referenceApply(m, ans)
		gotOut, gotStats := m.Apply(ans)
		if !gotOut.Equal(wantOut) {
			t.Fatalf("iter %d: outputs differ:\n%s\nvs\n%s", iter, gotOut, wantOut)
		}
		if gotStats != wantStats {
			t.Fatalf("iter %d: stats %+v, want %+v", iter, gotStats, wantStats)
		}
		// The per-row pick (which Apply and the closure refresh share)
		// must agree with an independent best-match computation and
		// never choose a zero-star or non-matching tuple.
		ex := m.compiled()
		for pos, tp := range ans.Tuples() {
			bi := m.bestIndex(ex, tp)
			if bi < 0 {
				continue
			}
			mt := m.Tuples[bi]
			if !mt.Matches(tp) {
				t.Fatalf("iter %d row %d: picked non-matching tuple %d", iter, pos, bi)
			}
			stars := func(x *MetaTuple) int {
				n := 0
				for _, c := range x.Cells {
					if c.Star {
						n++
					}
				}
				return n
			}
			if stars(mt) == 0 {
				t.Fatalf("iter %d row %d: picked zero-star tuple", iter, pos)
			}
			for j, other := range m.Tuples {
				if !other.Matches(tp) {
					continue
				}
				if stars(other) > stars(mt) || (stars(other) == stars(mt) && j < bi) {
					t.Fatalf("iter %d row %d: picked tuple %d but %d is better", iter, pos, bi, j)
				}
			}
		}
	}
}
