package core

import (
	"fmt"
	"math/rand"
	"slices"
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
	out := relation.NewSet(ans.Attrs, 0)
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
		if !out.Add(row) {
			continue
		}
		stats.Rows++
		stats.Cells += width
		stats.RevealedCells += cells
	}
	return out.Relation(), stats
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
	ans := relation.NewSet(attrs, rows)
	for r := 0; r < rows; r++ {
		t := make(relation.Tuple, len(attrs))
		for k := range t {
			t[k] = value.Int(int64(rng.Intn(5)))
		}
		if rng.Intn(3) == 0 {
			copy(t[rng.Intn(len(t)-1):], collidingPairs[rng.Intn(2)][:])
		}
		ans.Add(t)
	}
	return ans.Relation()
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

// maskFuzzCase is one input of FuzzMaskApply: a mask, an answer over
// attrs, the answer as the executor streams it to a sink (stream) with
// the rows it announces (expect), and a cut splitting the answer into a
// prefix Apply masks and a window a closure refresh streams (window).
type maskFuzzCase struct {
	m              *Mask
	ans            *relation.Relation
	stream, window []relation.Tuple
	expect, cut    int
}

// fuzzAttrs are the answer columns of FuzzMaskApply's cases.
var fuzzAttrs = []string{"R.A", "R.B", "R.C", "R.D"}

// newMaskFuzzCase draws the case of seed.
func newMaskFuzzCase(seed int64) maskFuzzCase {
	rng := rand.New(rand.NewSource(seed))
	attrs := fuzzAttrs
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
	c := maskFuzzCase{m: m, ans: randAnswer(rng, attrs, rng.Intn(24))}
	c.stream = answerStream(rng, c.ans.Tuples(), rng.Intn(4) == 0)
	c.expect = rng.Intn(len(c.stream) + 1)
	c.cut = rng.Intn(c.ans.Len() + 1)
	c.window = answerStream(rng, c.ans.Suffix(c.cut).Tuples(), false)
	return c
}

// answerStream is rows as the executor streams them to a sink, whose
// projection deduplicates nothing on the way: each row in order, a third
// of them followed by a repeat of a row already streamed, and, with
// collapse, every row followed by the first, as when many rows project
// onto one.
func answerStream(rng *rand.Rand, rows []relation.Tuple, collapse bool) []relation.Tuple {
	var out []relation.Tuple
	for i, t := range rows {
		out = append(out, t)
		if collapse {
			out = append(out, rows[0])
		}
		if rng.Intn(3) == 0 {
			out = append(out, rows[rng.Intn(i+1)])
		}
	}
	return out
}

// deliver streams rows through the mask's sink, each in a buffer that is
// overwritten after the call, as the executor reuses its row.
func deliver(m *Mask, rows []relation.Tuple, expect int) *deliverer {
	dl := m.deliverer()
	dl.Open(fuzzAttrs, expect)
	buf := make(relation.Tuple, len(fuzzAttrs))
	for _, t := range rows {
		copy(buf, t)
		dl.Row(buf)
		for k := range buf {
			buf[k] = value.Int(-1)
		}
	}
	return dl
}

// sameRows fails unless got holds want's rows in canonical order, the
// order of every delivered relation.
func sameRows(t *testing.T, what string, got, want *relation.Relation) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("%s: %d rows, want %d:\n%s\nvs\n%s", what, got.Len(), want.Len(), got, want)
	}
	for i, row := range want.Sorted() {
		if !got.Tuples()[i].Equal(row) {
			t.Fatalf("%s: row %d is %v, want %v", what, i, got.Tuples()[i], row)
		}
	}
}

// Seeds of FuzzMaskApply drawing the shapes the sink must get right
// (TestMaskFuzzSeedShapes checks they still do): an answer of many rows
// whose stream collapses every other row onto its first, two answer
// rows that mask to one delivered row through different mask tuples,
// a window row that masks to a row the prefix delivers, which the merge
// must drop, and a group under a grouped mask two of whose rows' best
// tuples star as many delivered columns but reveal different ones, so
// the first to arrive must win.
const (
	seedCollapse     = 24
	seedTwoTuples    = 26
	seedWindowRepeat = 62
	seedGroupTie     = 79
)

// FuzzMaskApply checks Apply on random masks, delivered-column lists and
// answers against a reference it shares no code with: referenceApply
// when Out is every column in order, and the separate §6(3) application
// ApplyExtended when Out permutes the columns, leaves some out or repeats
// one. The delivered rows, in canonical order, and the stats must agree.
// The answer is also delivered as a cold read delivers it, streamed with
// repeats through the sink (deliverer), grouped masks included, whose
// relation must hold the same rows in the same order with the same
// stats. An ungrouped mask delivers it as a closure refresh does too:
// Apply on a prefix, then the rest streamed through the sink and merged
// into the prefix's delivered relation, which must stay as it was, while
// the merged rows and stats must be Apply's on the whole answer.
func FuzzMaskApply(f *testing.F) {
	for seed := int64(0); seed < 16; seed++ {
		f.Add(seed)
	}
	f.Add(int64(seedCollapse))
	f.Add(int64(seedTwoTuples))
	f.Add(int64(seedWindowRepeat))
	f.Add(int64(seedGroupTie))
	attrs := fuzzAttrs
	f.Fuzz(func(t *testing.T, seed int64) {
		c := newMaskFuzzCase(seed)
		m, ans := c.m, c.ans

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
		sameRows(t, fmt.Sprintf("out %v", m.Out), got, want)
		if gotStats != wantStats {
			t.Fatalf("out %v: stats %+v, want %+v", m.Out, gotStats, wantStats)
		}

		sunk, sunkStats := deliver(m, c.stream, c.expect).relation()
		if strings.Join(sunk.Attrs, ",") != strings.Join(got.Attrs, ",") {
			t.Fatalf("out %v: sink attributes %v, want %v", m.Out, sunk.Attrs, got.Attrs)
		}
		sameRows(t, fmt.Sprintf("out %v, sink", m.Out), sunk, want)
		if sunkStats != gotStats {
			t.Fatalf("out %v: sink stats %+v, want %+v", m.Out, sunkStats, gotStats)
		}

		if m.compiled().grouped {
			return // a window cannot revise a group: grouped entries never refresh
		}
		pre, stats := m.Apply(relation.NewDistinct(attrs, ans.Tuples()[:c.cut]))
		preRows := slices.Clone(pre.Tuples())
		merged, mergedStats := deliver(m, c.window, 0).merge(pre, stats)
		sameRows(t, fmt.Sprintf("out %v, cut %d, two parts", m.Out, c.cut), merged, want)
		if mergedStats != gotStats {
			t.Fatalf("out %v, cut %d: stats in two parts %+v, want %+v", m.Out, c.cut, mergedStats, gotStats)
		}
		if !slices.EqualFunc(pre.Tuples(), preRows, relation.Tuple.Equal) {
			t.Fatalf("out %v, cut %d: the merge changed the prefix's rows", m.Out, c.cut)
		}
	})
}

// TestMaskFuzzSeedShapes checks that FuzzMaskApply's named seeds still
// draw the shapes they are there for.
func TestMaskFuzzSeedShapes(t *testing.T) {
	c := newMaskFuzzCase(seedCollapse)
	first := 0
	for _, row := range c.stream {
		if c.ans.Len() > 0 && row.Equal(c.ans.Tuples()[0]) {
			first++
		}
	}
	ex := c.m.compiled()
	if ex.grouped || c.ans.Len() < 8 || first < c.ans.Len() || c.m.bestIndex(ex, c.ans.Tuples()[0]) < 0 {
		t.Errorf("seed %d: %d answer rows, the first streamed %d times, grouped %v; want an ungrouped mask over at least 8 rows collapsing onto the first, which it delivers",
			seedCollapse, c.ans.Len(), first, ex.grouped)
	}
	if !twoTuplesOneRow(newMaskFuzzCase(seedTwoTuples)) {
		t.Errorf("seed %d: no two answer rows mask to one delivered row through different tuples", seedTwoTuples)
	}
	if !windowRepeatsPrefix(newMaskFuzzCase(seedWindowRepeat)) {
		t.Errorf("seed %d: no window row masks to a row the prefix delivers", seedWindowRepeat)
	}
	if !groupTie(newMaskFuzzCase(seedGroupTie)) {
		t.Errorf("seed %d: no group holds two rows whose best tuples tie on stars and reveal different columns", seedGroupTie)
	}
}

// groupTie reports whether the case's mask is grouped and two answer
// rows sharing their delivered values have best tuples that star as many
// delivered columns but mask them to different rows.
func groupTie(c maskFuzzCase) bool {
	ex := c.m.compiled()
	if !ex.grouped {
		return false
	}
	rows := c.ans.Tuples()
	for i := range rows {
		a, ai := c.masked(rows[i])
		for j := i + 1; j < len(rows) && a != nil; j++ {
			same := true
			for _, k := range ex.out {
				same = same && rows[i][k].Equal(rows[j][k])
			}
			if b, bj := c.masked(rows[j]); same && b != nil && ex.stars[ai] == ex.stars[bj] && !a.Equal(b) {
				return true
			}
		}
	}
	return false
}

// masked returns the delivered row of answer row t under the case's
// mask and the tuple delivering it, or nil and -1 when none reveals it.
func (c maskFuzzCase) masked(t relation.Tuple) (relation.Tuple, int) {
	ex := c.m.compiled()
	bi := c.m.bestIndex(ex, t)
	if bi < 0 {
		return nil, bi
	}
	row := make(relation.Tuple, len(c.m.Out))
	maskRow(row, t, ex.reveal[bi], ex.out)
	return row, bi
}

// windowRepeatsPrefix reports whether the case's mask is ungrouped and a
// row of its window masks to a row that a row of its prefix masks to.
func windowRepeatsPrefix(c maskFuzzCase) bool {
	if c.m.compiled().grouped {
		return false
	}
	rows := c.ans.Tuples()
	for _, p := range rows[:c.cut] {
		a, _ := c.masked(p)
		for _, w := range rows[c.cut:] {
			if b, _ := c.masked(w); a != nil && b != nil && a.Equal(b) {
				return true
			}
		}
	}
	return false
}

// twoTuplesOneRow reports whether the case's mask is ungrouped and two of
// its answer rows mask to one delivered row through different tuples.
func twoTuplesOneRow(c maskFuzzCase) bool {
	if c.m.compiled().grouped {
		return false
	}
	rows := c.ans.Tuples()
	for i := range rows {
		a, ai := c.masked(rows[i])
		for j := i + 1; j < len(rows) && a != nil; j++ {
			if b, bj := c.masked(rows[j]); b != nil && ai != bj && a.Equal(b) {
				return true
			}
		}
	}
	return false
}
