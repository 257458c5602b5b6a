package core

import (
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"

	"authdb/internal/relation"
	"authdb/internal/value"
)

// PermitStatement is one inferred permit accompanying a delivered answer
// (§5): the attributes the user may see and the conditions under which.
// The certifier reuses the form with a different verb ("certified").
type PermitStatement struct {
	Attrs []string
	Conds []string
	// Verb replaces "permit" when set.
	Verb string
}

// String renders the statement, e.g.
// "permit (NUMBER, SPONSOR) where SPONSOR = Acme".
func (p PermitStatement) String() string {
	verb := p.Verb
	if verb == "" {
		verb = "permit"
	}
	s := verb + " (" + strings.Join(p.Attrs, ", ") + ")"
	if len(p.Conds) > 0 {
		s += " where " + strings.Join(p.Conds, " and ")
	}
	return s
}

// DisplayNames maps qualified answer attributes to the paper's display
// names: the bare attribute when unique, otherwise "ATTR:i" numbered by
// occurrence (§5, footnote 4).
func DisplayNames(attrs []string) []string {
	count := make(map[string]int, len(attrs))
	for _, a := range attrs {
		_, bare := relation.SplitQualified(a)
		count[bare]++
	}
	seen := make(map[string]int, len(attrs))
	out := make([]string, len(attrs))
	for i, a := range attrs {
		_, bare := relation.SplitQualified(a)
		if count[bare] == 1 {
			out[i] = bare
			continue
		}
		seen[bare]++
		out[i] = bare + ":" + strconv.Itoa(seen[bare])
	}
	return out
}

// Matches reports whether an answer tuple satisfies the meta-tuple's
// residual selection: every cell constraint holds, cells sharing a
// variable hold equal values, and every symbolic comparison evaluates
// true. A comparison whose variable has no cell cannot be verified and
// fails closed.
func (m *MetaTuple) Matches(t relation.Tuple) bool {
	for k, c := range m.Cells {
		if !c.Cons.Contains(t[k]) {
			return false
		}
	}
	varVal := make(map[VarID]value.Value)
	for k, c := range m.Cells {
		if c.Var == 0 {
			continue
		}
		if prev, ok := varVal[c.Var]; ok {
			if !prev.Equal(t[k]) {
				return false
			}
		} else {
			varVal[c.Var] = t[k]
		}
	}
	for _, c := range m.Cmps {
		x, xok := varVal[c.X]
		y, yok := varVal[c.Y]
		if !xok || !yok || !c.Op.Eval(x, y) {
			return false
		}
	}
	return true
}

// EvalOn evaluates the meta-tuple as the subview it defines over a
// relation with matching attributes: the selection of its constraints
// followed by the projection onto its starred attributes. This realises
// the paper's reading of a meta-tuple as "defining a subview of the
// corresponding relation" (§3) and backs the Proposition 1–3 property
// tests.
func (m *MetaTuple) EvalOn(r *relation.Relation) *relation.Relation {
	var idx []int
	for k, c := range m.Cells {
		if c.Star {
			idx = append(idx, k)
		}
	}
	return r.Select(m.Matches).Project(idx)
}

// Mask is the meta-answer A' interpreted as a mask over the answer A.
type Mask struct {
	Attrs  []string
	Tuples []*MetaTuple
	// Out lists the positions in Attrs of the delivered columns, in
	// delivery order: every column for a mask over the requested columns;
	// under §6(3), whose mask is written over the wide (pre-projection)
	// answer, the requested columns' positions in it.
	Out []int
	// exec caches the compiled application order (star counts, reveal
	// templates, tuples sorted most-revealing-first); built lazily on
	// first use, atomically so masks shared across concurrent readers
	// need no lock. Subsume resets it.
	exec atomic.Pointer[maskExec]
}

// maskExec is the compiled form of a mask for application: per-tuple
// star counts and reveal templates over the delivered columns, computed
// once instead of inside the row loop, and the tuple order to probe.
// Tuples are stably sorted by descending star count, so the first match
// *is* the best match — the original scan kept the first tuple achieving
// the maximum star count among matchers, which is exactly the first
// matcher in (count desc, original position asc) order. Tuples revealing
// no delivered column are excluded: they can never be selected
// (revealing nothing is the same as not matching).
type maskExec struct {
	// order lists indices into Mask.Tuples, descending star count,
	// original order within equal counts.
	order []int
	// stars counts the delivered columns each tuple stars; reveal marks
	// them by delivered column. Both are indexed by original tuple
	// position.
	stars  []int
	reveal [][]bool
	// delivered marks the mask's cells that Out delivers.
	delivered []bool
	// out is Mask.Out, nil when Out is every column in order: a row then
	// masks cell for cell.
	out []int
	// grouped reports that Out drops a column of the answer, so distinct
	// answer rows can share their delivered values.
	grouped bool
}

// compiled returns the mask's compiled form, building it on first use.
// A concurrent race builds identical values; the last store wins and
// every caller proceeds with a correct copy. It is small enough to
// inline, so the deliverer reads it per row instead of keeping a copy.
func (m *Mask) compiled() *maskExec {
	if e := m.exec.Load(); e != nil {
		return e
	}
	return m.compile()
}

// compile builds and stores the mask's compiled form.
func (m *Mask) compile() *maskExec {
	e := &maskExec{
		stars:     make([]int, len(m.Tuples)),
		reveal:    make([][]bool, len(m.Tuples)),
		delivered: make([]bool, len(m.Attrs)),
	}
	identity := len(m.Out) == len(m.Attrs)
	for j, k := range m.Out {
		e.delivered[k] = true
		identity = identity && j == k
	}
	if !identity {
		e.out = m.Out
	}
	for _, d := range e.delivered {
		e.grouped = e.grouped || !d
	}
	for i, mt := range m.Tuples {
		rv := make([]bool, len(m.Out))
		n := 0
		for j, k := range m.Out {
			if mt.Cells[k].Star {
				rv[j] = true
				n++
			}
		}
		e.stars[i] = n
		e.reveal[i] = rv
		if n > 0 {
			e.order = append(e.order, i)
		}
	}
	sort.SliceStable(e.order, func(a, b int) bool {
		return e.stars[e.order[a]] > e.stars[e.order[b]]
	})
	m.exec.Store(e)
	return e
}

// bestIndex returns the position in m.Tuples of the tuple that delivers
// answer row t — the matching tuple starring the most delivered columns,
// first occurrence on ties — or -1 when no revealing tuple matches.
func (m *Mask) bestIndex(ex *maskExec, t relation.Tuple) int {
	for _, i := range ex.order {
		if m.Tuples[i].Matches(t) {
			return i
		}
	}
	return -1
}

// NewMask wraps the final meta-relation. out lists the delivered
// columns' positions in mr (Mask.Out); nil delivers every column.
func NewMask(mr *MetaRel, out []int) *Mask {
	if out == nil {
		out = make([]int, len(mr.Attrs))
		for k := range out {
			out[k] = k
		}
	}
	return &Mask{Attrs: mr.Attrs, Tuples: mr.Tuples, Out: out}
}

// MaskStats counts the delivered relation — the rows the user receives,
// never the rows withheld entirely — so it is the same whether the
// answer was pruned by pushdown or masked in full, and whether the
// closure served it or a refresh extended it.
type MaskStats struct {
	// Rows counts delivered rows; Cells is Rows times the arity.
	Rows, Cells int
	// RevealedCells counts the permitted values in delivered rows; the
	// other Cells - RevealedCells are withheld (null).
	RevealedCells int
}

// count adds one delivered row of width cells, revealed of them
// permitted.
func (s *MaskStats) count(revealed, width int) {
	s.Rows++
	s.Cells += width
	s.RevealedCells += revealed
}

// Apply masks the answer: each row is delivered through the single
// best-matching mask tuple (the one starring the most delivered
// columns), with every other value withheld (null). Rows no tuple
// matches are dropped, per §6: the user receives "a derived relation,
// whose structure corresponds to the request but whose tuples include
// only permitted values".
//
// One tuple per row is a soundness requirement, not a simplification:
// every delivered row is then a tuple of one inferred permitted subview.
// Unioning the starred sets of several matching mask tuples into one row
// would disclose the *correlation* between their columns — information
// derivable from no permitted view (the perturbation property test
// catches exactly this). When the correlation is legitimately available
// the §4.2 self-join refinement produces a single merged tuple that
// reveals the union by itself.
//
// Apply feeds the answer's rows to the deliverer, the one delivery step
// every read takes, and returns its relation: canonical, as every
// delivered relation is.
func (m *Mask) Apply(ans *relation.Relation) (*relation.Relation, MaskStats) {
	d := m.deliverer()
	d.Open(ans.Attrs, ans.Len())
	for _, t := range ans.Tuples() {
		d.Row(t)
	}
	return d.relation()
}

// deliverer is the algebra.Sink every delivery goes through: it masks
// each answer row, as the executor streams it, through its best tuple
// (bestIndex, maskRow) into one slab, and drops a row no tuple reveals.
// Neither the unmasked answer nor a membership set for it is built.
// Rows arrive with repeats, since the projection deduplicates nothing,
// and two answer rows can mask to one delivered row: relation and merge
// drop both kinds of duplicate, the first occurrence winning. A row
// equal to the last one kept is dropped at once; rows that each sort
// after the last kept need no sort at all.
//
// The answer carries the mask's columns; the delivered relation carries
// the ones Out lists, in its order. A grouped mask (§6(3) with a column
// left out) delivers each group of answer rows sharing their delivered
// values once, through the pre-image whose best tuple stars the most
// delivered columns, the first to arrive on ties: the delivered row is
// still the projection of a tuple of one inferred permitted subview.
type deliverer struct {
	m     *Mask
	attrs []string
	slab  relation.Slab
	// rows are the kept rows in arrival order. Under a grouped mask each
	// is a group's delivered values, unmasked until sorted masks it
	// through the group's best tuple.
	rows []maskedRow
	// groups holds, under a grouped mask, the groups' delivered values,
	// each at its group's position in rows.
	groups relation.Set
	// expect is the number of rows the executor expects to hand over.
	expect int
	// unsorted records that a kept row sorts before the one kept before
	// it: rows that come in canonical order, as an index run in key
	// order does, need no sort.
	unsorted bool
}

// maskedRow is a delivered row and the position in Mask.Tuples of the
// tuple that delivers it, -1 for a group no member's tuple reveals.
type maskedRow struct {
	t    relation.Tuple
	best int
}

// deliverer returns a sink for the mask.
func (m *Mask) deliverer() *deliverer {
	return &deliverer{m: m, slab: relation.NewSlab(len(m.Out))}
}

// Open takes the answer's attributes, of which the delivered relation
// carries the ones Out lists, in its order, and the rows expected, which
// size the slab.
func (d *deliverer) Open(attrs []string, rows int) {
	ex := d.m.compiled()
	d.attrs, d.expect = attrs, rows
	if ex.out != nil {
		d.attrs = make([]string, len(ex.out))
		for j, k := range ex.out {
			d.attrs[j] = attrs[k]
		}
	}
	if ex.grouped {
		d.groups = relation.NewSet(d.attrs, rows)
	}
}

// Row masks one answer row or, under a grouped mask, files it under its
// group.
func (d *deliverer) Row(t relation.Tuple) {
	ex := d.m.compiled()
	bi := d.m.bestIndex(ex, t)
	if ex.grouped {
		d.group(ex, t, bi)
		return
	}
	if bi < 0 {
		return
	}
	row := d.slab.Expecting(d.expect, len(d.rows))
	maskRow(row, t, ex.reveal[bi], ex.out)
	if n := len(d.rows); n > 0 {
		switch c := d.rows[n-1].t.Compare(row); {
		case c == 0:
			return
		case c > 0:
			d.unsorted = true
		}
	}
	d.keep(row, bi)
}

// group files answer row t, whose best tuple is bi, under the group of
// rows sharing its delivered values: a new group keeps t's values, and
// an old one takes bi when it stars more delivered columns than the
// group's best so far.
func (d *deliverer) group(ex *maskExec, t relation.Tuple, bi int) {
	key := d.slab.Expecting(d.expect, len(d.rows))
	for j, k := range ex.out {
		key[j] = t[k]
	}
	if gi := d.groups.Find(key); gi >= 0 {
		if g := &d.rows[gi]; bi >= 0 && (g.best < 0 || ex.stars[bi] > ex.stars[g.best]) {
			g.best = bi
		}
		return
	}
	d.groups.Add(key)
	d.keep(key, bi)
}

// keep commits row, the slab's last, delivered by tuple bi.
func (d *deliverer) keep(row relation.Tuple, bi int) {
	d.slab.Keep()
	if d.rows == nil {
		d.rows = make([]maskedRow, 0, max(min(d.expect, relation.MaxPresize), 1))
	}
	d.rows = append(d.rows, maskedRow{row, bi})
}

// sorted returns the delivered rows: under a grouped mask, each group's
// values masked through its best tuple, a group none reveals dropped;
// then sorted once, stably, each run of equal rows reduced to its first.
// That gives set semantics, the first occurrence winning, and canonical
// order.
func (d *deliverer) sorted(ex *maskExec) []maskedRow {
	rows := d.rows
	if ex.grouped {
		rows = rows[:0]
		for _, r := range d.rows {
			if r.best >= 0 {
				maskRow(r.t, r.t, ex.reveal[r.best], nil)
				rows = append(rows, r)
			}
		}
		d.unsorted = true
	}
	if !d.unsorted {
		return rows
	}
	slices.SortStableFunc(rows, func(a, b maskedRow) int { return a.t.Compare(b.t) })
	uniq := rows[:0]
	for _, r := range rows {
		if len(uniq) == 0 || !uniq[len(uniq)-1].t.Equal(r.t) {
			uniq = append(uniq, r)
		}
	}
	return uniq
}

// relation returns the delivered relation of a fresh decision and its
// stats.
func (d *deliverer) relation() (*relation.Relation, MaskStats) {
	return d.merge(nil, MaskStats{})
}

// merge returns base, a canonical delivered relation that stats count
// (nil for none), with the delivered rows merged in, in one linear pass,
// and its stats: a row equal to one of base is dropped, and the stats
// count only the rows taken. base is left as it is; when nothing is
// taken it is returned itself. When a row is dropped, the rows taken are
// copied into one array of exactly their cells, so no slab storage of a
// dropped row stays reachable. The relation is marked canonical.
func (d *deliverer) merge(base *relation.Relation, stats MaskStats) (*relation.Relation, MaskStats) {
	ex := d.m.compiled()
	rows := d.sorted(ex)
	var old []relation.Tuple
	if base != nil {
		old = base.Tuples()
	}
	taken := rows
	if len(old) > 0 {
		taken = rows[:0]
		i := 0
		for _, r := range rows {
			for i < len(old) && old[i].Compare(r.t) < 0 {
				i++
			}
			if i == len(old) || !old[i].Equal(r.t) {
				taken = append(taken, r)
			}
		}
	}
	if base != nil && len(taken) == 0 {
		return base, stats
	}
	width := len(d.m.Out)
	var cells []value.Value
	if len(taken) < len(d.rows) {
		cells = make([]value.Value, len(taken)*width)
	}
	tuples := make([]relation.Tuple, 0, len(old)+len(taken))
	i := 0
	for _, r := range taken {
		t := r.t
		if cells != nil {
			t, cells = cells[:width:width], cells[width:]
			copy(t, r.t)
		}
		for i < len(old) && old[i].Compare(t) < 0 {
			tuples = append(tuples, old[i])
			i++
		}
		tuples = append(tuples, t)
		stats.count(ex.stars[r.best], width)
	}
	tuples = append(tuples, old[i:]...)
	return relation.NewCanonical(d.attrs, tuples), stats
}

// maskRow fills row with the delivered cells of t that revealed marks
// and nulls elsewhere; out maps row positions to t's (Mask.Out), nil
// when they coincide.
func maskRow(row, t relation.Tuple, revealed []bool, out []int) {
	if out == nil {
		for k := range row {
			if revealed[k] {
				row[k] = t[k]
			} else {
				row[k] = value.Null()
			}
		}
		return
	}
	for j, k := range out {
		if revealed[j] {
			row[j] = t[k]
		} else {
			row[j] = value.Null()
		}
	}
}

// Permits renders one inferred permit statement per mask tuple that
// reveals a delivered column, after subsumption (when enabled by the
// caller) has removed redundant tuples: the delivered columns it stars,
// in cell order, under conditions that may mention any of the mask's
// columns. The caller leaves them out on a full grant (§5 Example 3),
// which the permits would only restate.
func (m *Mask) Permits() []PermitStatement {
	ex := m.compiled()
	names := DisplayNames(m.Attrs)
	var out []PermitStatement
	for i, mt := range m.Tuples {
		if ex.stars[i] > 0 {
			out = append(out, m.permitOf(mt, names, ex.delivered))
		}
	}
	return out
}

func (m *Mask) permitOf(mt *MetaTuple, names []string, delivered []bool) PermitStatement {
	var p PermitStatement
	for k, c := range mt.Cells {
		if c.Star && delivered[k] {
			p.Attrs = append(p.Attrs, names[k])
		}
	}
	// Variable groups: equalities between member attributes plus the
	// shared interval rendered on the first member.
	groups := make(map[VarID][]int)
	var order []VarID
	for k, c := range mt.Cells {
		if c.Var != 0 {
			if _, ok := groups[c.Var]; !ok {
				order = append(order, c.Var)
			}
			groups[c.Var] = append(groups[c.Var], k)
		}
	}
	seen := make(map[string]bool)
	add := func(cond string) {
		if !seen[cond] {
			seen[cond] = true
			p.Conds = append(p.Conds, cond)
		}
	}
	for _, v := range order {
		cells := groups[v]
		for _, k := range cells[1:] {
			add(names[cells[0]] + " = " + names[k])
		}
		for _, cond := range mt.Cells[cells[0]].Cons.Conds(names[cells[0]]) {
			add(cond)
		}
	}
	for k, c := range mt.Cells {
		if c.Var != 0 {
			continue
		}
		for _, cond := range c.Cons.Conds(names[k]) {
			add(cond)
		}
	}
	for _, c := range mt.Cmps {
		x, xok := groups[c.X]
		y, yok := groups[c.Y]
		if xok && yok {
			add(names[x[0]] + " " + c.Op.String() + " " + names[y[0]])
		}
	}
	return p
}

// grantsAll reports whether some mask tuple delivers the entire answer
// unconditionally: every cell blank, no comparison, and every delivered
// column starred. The answer is then delivered without permit
// statements (§5, Example 3).
func (m *Mask) grantsAll() bool {
	ex := m.compiled()
	for i, t := range m.Tuples {
		if len(t.Cmps) != 0 || ex.stars[i] != len(m.Out) {
			continue
		}
		blank := true
		for _, c := range t.Cells {
			blank = blank && c.IsBlank()
		}
		if blank {
			return true
		}
	}
	return false
}

// denies reports that no mask tuple reveals a delivered column, so
// nothing is delivered whatever the data.
func (m *Mask) denies() bool {
	return len(m.compiled().order) == 0
}

// Subsume removes mask tuples whose reveal is covered by another tuple:
// the survivor stars at least the same attributes and matches at least the
// same rows. Equal tuples keep their first occurrence.
func (m *Mask) Subsume() {
	kept := m.Tuples[:0]
	for i, t := range m.Tuples {
		dominated := false
		for j, u := range m.Tuples {
			if i == j {
				continue
			}
			if covers(u, t) {
				// Break ties on mutual coverage by position.
				if !covers(t, u) || j < i {
					dominated = true
					break
				}
			}
		}
		if !dominated {
			kept = append(kept, t)
		}
	}
	m.Tuples = kept
	// The compiled form indexes into Tuples; discard any built against
	// the pre-subsumption list. (Plans subsume before publication, so in
	// practice nothing has compiled yet.)
	m.exec.Store(nil)
}

// covers reports whether mask tuple a reveals at least as much as b on
// every possible answer tuple: a stars a superset of b's attributes, a's
// constraints are implied by b's, a requires no variable equality beyond
// b's, and a has no symbolic comparisons unless b carries the same ones.
func covers(a, b *MetaTuple) bool {
	for k := range a.Cells {
		if b.Cells[k].Star && !a.Cells[k].Star {
			return false
		}
		if !b.Cells[k].Cons.Implies(a.Cells[k].Cons) {
			return false
		}
	}
	// Every pair of cells a equates must be equated by b.
	for k := range a.Cells {
		if a.Cells[k].Var == 0 {
			continue
		}
		for l := k + 1; l < len(a.Cells); l++ {
			if a.Cells[l].Var == a.Cells[k].Var {
				if b.Cells[k].Var == 0 || b.Cells[k].Var != b.Cells[l].Var {
					return false
				}
			}
		}
	}
	// Symbolic comparisons on a must appear on b verbatim after mapping
	// through cell positions; require exact structural presence.
	for _, c := range a.Cmps {
		ka := firstCellOf(a, c.X)
		la := firstCellOf(a, c.Y)
		if ka < 0 || la < 0 {
			return false
		}
		found := false
		for _, d := range b.Cmps {
			if d.Op == c.Op && firstCellOf(b, d.X) == ka && firstCellOf(b, d.Y) == la {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

func firstCellOf(m *MetaTuple, v VarID) int {
	for k, c := range m.Cells {
		if c.Var == v {
			return k
		}
	}
	return -1
}
