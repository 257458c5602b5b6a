package core

import (
	"math/rand"
	"strings"
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

// randMask builds a mask of one to six tuples over attrs: random stars
// (often tying in count), full or one-sided interval constraints, and no
// variables.
func randMask(rng *rand.Rand, attrs []string) *Mask {
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
	return m
}

// collidingPairs are two payloads for adjacent cells that differ but
// that a key joining each cell's kind byte, printed value and a zero
// byte would encode alike.
var collidingPairs = [2][2]value.Value{
	{value.String("x\x00\x02y"), value.String("z")},
	{value.String("x"), value.String("y\x00\x02z")},
}

// randAnswer builds an answer over attrs from up to rows random tuples
// of small integers, some holding a colliding pair in two adjacent
// cells.
func randAnswer(rng *rand.Rand, attrs []string, rows int) *relation.Relation {
	ans := relation.New(attrs)
	for r := 0; r < rows; r++ {
		t := make(relation.Tuple, len(attrs))
		for k := range t {
			t[k] = value.Int(int64(rng.Intn(5)))
		}
		if rng.Intn(3) == 0 {
			copy(t[rng.Intn(len(t)-1):], collidingPairs[rng.Intn(2)][:])
		}
		ans.Insert(t) //nolint:errcheck
	}
	return ans
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
		m := randMask(rng, attrs)
		m.Out = []int{0, 1, 2}
		ans := randAnswer(rng, attrs, 12)

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

// FuzzMaskApply checks Apply on random masks, delivered-column lists and
// answers against a reference it shares no code with: referenceApply
// when Out is every column in order, and the separate §6(3) application
// ApplyExtended when Out permutes the columns, leaves some out or repeats
// one. The delivered rows, their order and the stats must agree. An
// ungrouped mask is also applied the way a closure refresh delivers an
// answer: Apply on a prefix, then applyInto over the rest, adopting into
// the prefix's accumulator; the rows and stats must be Apply's on the
// whole answer.
func FuzzMaskApply(f *testing.F) {
	for seed := int64(0); seed < 16; seed++ {
		f.Add(seed)
	}
	attrs := []string{"R.A", "R.B", "R.C", "R.D"}
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		m := randMask(rng, attrs)
		// A variable shared by two cells makes a tuple match only rows
		// agreeing on them.
		if mt := m.Tuples[0]; rng.Intn(2) == 0 {
			mt.Cells[rng.Intn(len(attrs))].Var = 1
			mt.Cells[rng.Intn(len(attrs))].Var = 1
		}
		switch rng.Intn(4) {
		case 0:
			m.Out = []int{0, 1, 2, 3}
		case 1:
			m.Out = rng.Perm(len(attrs))
		case 2:
			m.Out = rng.Perm(len(attrs))[:1+rng.Intn(len(attrs)-1)]
		default: // a column delivered twice, as retrieve (R.A, R.A) does
			m.Out = rng.Perm(len(attrs))[:1+rng.Intn(len(attrs))]
			m.Out = append(m.Out, m.Out[0])
		}
		ans := randAnswer(rng, attrs, rng.Intn(24))

		var want *relation.Relation
		var wantStats MaskStats
		if m.compiled().out == nil {
			want, wantStats = referenceApply(m, ans)
		} else {
			outAttrs := make([]string, len(m.Out))
			for j, k := range m.Out {
				outAttrs[j] = attrs[k]
			}
			want, wantStats = m.ApplyExtended(ans, m.Out, outAttrs)
		}
		got, gotStats := m.Apply(ans)
		if strings.Join(got.Attrs, ",") != strings.Join(want.Attrs, ",") {
			t.Fatalf("out %v: attributes %v, want %v", m.Out, got.Attrs, want.Attrs)
		}
		if got.Len() != want.Len() {
			t.Fatalf("out %v: %d rows, want %d:\n%s\nvs\n%s", m.Out, got.Len(), want.Len(), got, want)
		}
		for i, row := range got.Tuples() {
			if !row.Equal(want.Tuples()[i]) {
				t.Fatalf("out %v: row %d is %v, want %v", m.Out, i, row, want.Tuples()[i])
			}
		}
		if gotStats != wantStats {
			t.Fatalf("out %v: stats %+v, want %+v", m.Out, gotStats, wantStats)
		}

		if m.compiled().grouped {
			return
		}
		cut := rng.Intn(ans.Len() + 1)
		prefix := relation.New(attrs)
		for _, row := range ans.Tuples()[:cut] {
			prefix.Insert(row) //nolint:errcheck
		}
		pre, stats := m.Apply(prefix)
		vm := relation.VersionedOf(pre)
		m.applyInto(vm, ans.Suffix(cut).Tuples(), &stats)
		parts := vm.Head()
		if parts.Len() != got.Len() {
			t.Fatalf("out %v, cut %d: %d rows in two parts, want %d:\n%s\nvs\n%s", m.Out, cut, parts.Len(), got.Len(), parts, got)
		}
		for i, row := range parts.Tuples() {
			if !row.Equal(got.Tuples()[i]) {
				t.Fatalf("out %v, cut %d: row %d in two parts is %v, want %v", m.Out, cut, i, row, got.Tuples()[i])
			}
		}
		if stats != gotStats {
			t.Fatalf("out %v, cut %d: stats in two parts %+v, want %+v", m.Out, cut, stats, gotStats)
		}
	})
}
