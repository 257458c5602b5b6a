package algebra

import (
	"fmt"

	"authdb/internal/guard"
	"authdb/internal/relation"
	"authdb/internal/value"
)

// indexJoinMinInner is the smallest inner side for which a join probes
// the base relation directly, checking the scan's own atoms per
// candidate: below it materializing the scan first costs as little.
const indexJoinMinInner = 64

// Sink takes the rows of a streamed answer (Stream): Open once, with
// the answer's attributes and the number of rows the executor expects
// to hand over, then Row for each projected row, in the order EvalPSJ
// returns them. The expectation sizes the sink's storage: after a lone
// scan it is the number of rows the access path reads, an upper bound;
// after a join, one row per outer row, or the product's size. The row
// is valid only during the call and must not be modified, since the
// executor reuses its storage, and a row may repeat: the projection
// deduplicates nothing on the way.
type Sink interface {
	Open(attrs []string, rows int)
	Row(t relation.Tuple)
}

// EvalPSJ evaluates a PSJ query into a relation: Stream, with a sink
// that carves the projected rows from one slab and keeps each distinct
// row once, in first-occurrence order. opt has no effect.
func EvalPSJ(p *PSJ, src Source, g *guard.Guard, opt ExecOptions, tr *Trace) (*relation.Relation, error) {
	var c collector
	if err := Stream(p, src, g, tr, &c); err != nil {
		return nil, err
	}
	return c.set.Relation(), nil
}

// Stream evaluates a PSJ query choosing an access path per scan and a
// strategy per join step, recording its decisions in tr (nil disables),
// and hands the answer's rows to sink.
//
// Per scan: an equality-with-constant atom is served from the relation's
// lazily built secondary hash index; otherwise comparison-with-constant
// atoms on one attribute fold into a single ordered-index range lookup;
// otherwise the scan is full, with the local predicate evaluated per row.
// Joins run greedily left-deep, ordered by cardinality estimates over
// the base relations. A step connected by equalities is an index
// nested-loop join: it probes either a base relation's persistent hash
// index, checking the scan's own atoms per candidate, or — the trace's
// "hash join" — the value-keyed index of the materialized scan. A step
// no equality connects is a guarded cartesian product.
//
// A scan is lazy: only the start of the join is materialized up front.
// A later scan that is joined in by an equality from an outer at most a
// quarter of its estimate is never materialized at all — the index join
// reads just the candidates its probes return — and any other is
// materialized when it is joined in.
//
// Each step feeds its rows through the global atoms that became
// resolvable with it. A step before the last materializes the rows that
// pass, carved from one slab. The last step — the last join, or a lone
// scan's access path — feeds them on through the atoms still
// outstanding and the projection to sink, so the answer is never built
// here. The guard is charged one unit per probed or scanned candidate,
// per row entering each selection and per projected row, as when every
// step was materialized, so a budget trips on the same plans with the
// same error.
func Stream(p *PSJ, src Source, g *guard.Guard, tr *Trace, sink Sink) error {
	if len(p.Scans) == 0 {
		return fmt.Errorf("empty query")
	}
	// Each scan starts as the shared base rename, so index lookups on it
	// hit the base relation's persistent per-revision cache.
	parts := make([]*scanPart, len(p.Scans))
	for i, s := range p.Scans {
		base, err := src(s.Rel)
		if err != nil {
			return err
		}
		base = base.Rename(relation.QualifyAttrs(s.Alias, base.Attrs))
		parts[i] = &scanPart{base: base, rel: base, est: base.Len(),
			tr: ScanTrace{Alias: s.Alias, Rel: s.Rel, Path: PathFullScan, In: base.Len(), Out: base.Len()}}
	}
	var global []Atom
	for _, a := range p.Preds {
		if i, ok := atomScan(a, parts); ok {
			parts[i].local = append(parts[i].local, a)
		} else {
			global = append(global, a)
		}
	}
	for _, sp := range parts {
		if len(sp.local) > 0 {
			sp.rel, sp.est = nil, estimate(sp.base, sp.local)
		}
	}

	// Greedy left-deep join: the start is the part with the smallest
	// estimate and each step picks the connected part with the lowest
	// estimated output.
	start := 0
	for i := 1; i < len(parts); i++ {
		if parts[i].est < parts[start].est {
			start = i
		}
	}
	remainingEq, remainingOther := splitEq(global)
	var err error
	if len(parts) == 1 {
		err = scanOnly(p, parts[0], remainingEq, remainingOther, g, sink)
	} else {
		err = joinAll(p, parts, start, remainingEq, remainingOther, g, tr, sink)
	}
	if err != nil {
		return err
	}
	for _, sp := range parts {
		tr.scan(sp.tr)
	}
	return nil
}

// scanOnly streams a plan of one scan: its access path is the last step.
func scanOnly(p *PSJ, sp *scanPart, remainingEq, remainingOther []Atom, g *guard.Guard, sink Sink) error {
	ap, err := sp.scan()
	if err != nil {
		return err
	}
	pl, perr := lastPipe(sp.base.Attrs, len(ap.run), &remainingEq, &remainingOther, p.Cols, g, sink)
	if err := sp.read(ap, g, pl.push); err != nil {
		return err
	}
	return perr
}

// joinAll runs the join steps from parts[start], materialized, until
// the last, which streams to sink through lastPipe.
func joinAll(p *PSJ, parts []*scanPart, start int, remainingEq, remainingOther []Atom, g *guard.Guard, tr *Trace, sink Sink) error {
	if err := parts[start].materialize(g); err != nil {
		return err
	}
	cur := parts[start].rel
	used := make([]bool, len(parts))
	used[start] = true
	for joined := 1; joined < len(parts); joined++ {
		next, eqs := pickNext(cur, parts, used, remainingEq)
		sp := parts[next]
		remainingEq = removeAtoms(remainingEq, eqs)
		used[next] = true
		attrs := append(append([]string(nil), cur.Attrs...), sp.base.Attrs...)
		rows := cur.Len()
		if len(eqs) == 0 {
			rows *= sp.est
		}
		var pl *pipe
		var perr error
		var b distinctRows
		last := joined == len(parts)-1
		if last {
			pl, perr = lastPipe(attrs, rows, &remainingEq, &remainingOther, p.Cols, g, sink)
		} else {
			b.open(attrs, rows)
			pl = &pipe{g: g, sels: resolvable(attrs, &remainingEq, &remainingOther), emit: b.add}
		}
		kind, err := sp.join(cur, eqs, g, pl.push)
		if err != nil {
			return err
		}
		tr.join(JoinTrace{Kind: kind, With: p.Scans[next].Alias, On: atomStrings(eqs), Out: pl.rows})
		if perr != nil {
			return perr
		}
		if !last {
			cur = b.relation()
		}
	}
	return nil
}

// pipe carries a step's rows on from its source: through sels, each
// charging the guard one unit per row entering it, to emit. rows counts
// the rows the source produced.
type pipe struct {
	g    *guard.Guard
	sels []func(relation.Tuple) bool
	emit func(relation.Tuple) error
	rows int
}

func (pl *pipe) push(t relation.Tuple) error {
	pl.rows++
	for _, sel := range pl.sels {
		if err := pl.g.Add(1); err != nil {
			return err
		}
		if !sel(t) {
			return nil
		}
	}
	return pl.emit(t)
}

// resolvable returns the selections of the atoms of each list that attrs
// resolve, one per list that has any, and leaves the others outstanding
// in the list. A list's ready atoms that fail to compile together (an
// ambiguous name) stay outstanding, after the rest.
func resolvable(attrs []string, lists ...*[]Atom) []func(relation.Tuple) bool {
	var sels []func(relation.Tuple) bool
	for _, list := range lists {
		var ready, notReady []Atom
		for _, a := range *list {
			if hasAttr(attrs, a.L) && (!a.R.IsAttr || hasAttr(attrs, a.R.Attr)) {
				ready = append(ready, a)
			} else {
				notReady = append(notReady, a)
			}
		}
		if len(ready) > 0 {
			if pred, err := CompilePred(attrs, ready); err == nil {
				sels = append(sels, pred)
			} else {
				notReady = append(notReady, ready...)
			}
		}
		*list = notReady
	}
	return sels
}

// lastPipe is the pipe of the last step, whose rows are over attrs and
// number about rows: the selections resolvable now, one more for every
// atom still outstanding, then the projection onto cols, charging one
// unit per row, to sink.
//
// When the outstanding atoms or the columns do not resolve, it returns
// the error beside a pipe that ends before them: the step still runs
// and charges what it did before the error was found.
func lastPipe(attrs []string, rows int, eq, other *[]Atom, cols []string, g *guard.Guard, sink Sink) (*pipe, error) {
	pl := &pipe{g: g, sels: resolvable(attrs, eq, other), emit: func(relation.Tuple) error { return nil }}
	if rest := append(append([]Atom(nil), *eq...), *other...); len(rest) > 0 {
		pred, err := CompilePred(attrs, rest)
		if err != nil {
			return pl, err
		}
		pl.sels = append(pl.sels, pred)
	}
	idx := make([]int, len(cols))
	for i, c := range cols {
		j, err := resolve(attrs, c)
		if err != nil {
			return pl, err
		}
		idx[i] = j
	}
	pl.emit = projection(attrs, idx, rows, g, sink)
	return pl, nil
}

// projection opens sink over the attributes at idx, expecting rows rows,
// and returns the function that charges one guard unit per row and
// hands the row's cells at idx to sink, in one reused row.
func projection(attrs []string, idx []int, rows int, g *guard.Guard, sink Sink) func(relation.Tuple) error {
	out := make([]string, len(idx))
	for i, j := range idx {
		out[i] = attrs[j]
	}
	sink.Open(out, rows)
	row := make(relation.Tuple, len(idx))
	return func(t relation.Tuple) error {
		if err := g.Add(1); err != nil {
			return err
		}
		for i, j := range idx {
			row[i] = t[j]
		}
		sink.Row(row)
		return nil
	}
}

// collector is the Sink EvalPSJ materializes an answer with: it keeps
// each distinct row once, in first-occurrence order, carving each from
// one slab sized by the rows expected, growing with the rows kept beyond
// them.
type collector struct {
	set  relation.Set
	slab relation.Slab
	rows int
}

// Open starts the set over attrs, with room for rows rows.
func (c *collector) Open(attrs []string, rows int) {
	c.set, c.slab, c.rows = relation.NewSet(attrs, rows), relation.NewSlab(len(attrs)), rows
}

// Row adopts a copy of t unless the set holds it.
func (c *collector) Row(t relation.Tuple) {
	row := c.slab.Expecting(c.rows, c.set.Len())
	copy(row, t)
	if c.set.Add(row) {
		c.slab.Keep()
	}
}

// distinctRows materializes rows the caller knows are distinct — pairs
// of rows of two sets, and selections of them — carving each from one
// slab as collector does, with no membership check.
type distinctRows struct {
	attrs  []string
	tuples []relation.Tuple
	slab   relation.Slab
	rows   int
}

// open starts the rows over attrs, with room for rows of them.
func (b *distinctRows) open(attrs []string, rows int) {
	*b = distinctRows{attrs: attrs, tuples: make([]relation.Tuple, 0, min(rows, relation.MaxPresize)),
		slab: relation.NewSlab(len(attrs)), rows: rows}
}

// add keeps a copy of t.
func (b *distinctRows) add(t relation.Tuple) error {
	row := b.slab.Expecting(b.rows, len(b.tuples))
	copy(row, t)
	b.slab.Keep()
	b.tuples = append(b.tuples, row)
	return nil
}

// relation returns the rows kept as a relation.
func (b *distinctRows) relation() *relation.Relation {
	return relation.NewDistinct(b.attrs, b.tuples)
}

// scanPart is one scan on its way into the join: the shared base rename,
// the atoms local to the scan, and the materialized part — the base
// itself when nothing is local, nil while a filtered scan is pending.
// est is the planner's size for the part (exact once materialized), and
// tr what the trace reports for the scan.
type scanPart struct {
	base, rel *relation.Relation
	local     []Atom
	est       int
	tr        ScanTrace
}

// scan returns how the part's rows are read: a materialized part's as
// they stand (no path), else through the access path accessPath
// chooses.
func (sp *scanPart) scan() (access, error) {
	if sp.rel != nil {
		return access{run: sp.rel.Tuples()}, nil
	}
	return accessPath(sp.base, sp.local)
}

// read feeds push the rows of ap that pass its residual atoms. Reading a
// materialized part is free; through an access path each row read
// charges the guard one unit, and the path goes in the scan's trace.
// The rows are the base's own tuples.
func (sp *scanPart) read(ap access, g *guard.Guard, push func(relation.Tuple) error) error {
	if ap.path == "" {
		for _, t := range ap.run {
			if err := push(t); err != nil {
				return err
			}
		}
		return nil
	}
	pred, err := CompilePred(sp.base.Attrs, ap.rest)
	if err != nil {
		return err
	}
	n := 0
	for _, t := range ap.run {
		if err := g.Add(1); err != nil {
			return err
		}
		if pred(t) {
			n++
			if err := push(t); err != nil {
				return err
			}
		}
	}
	sp.tr.Path, sp.tr.Atoms, sp.tr.Out = ap.path, ap.served, n
	return nil
}

// materialize filters a pending scan by its local atoms (scan, read); a
// materialized part is left alone.
func (sp *scanPart) materialize(g *guard.Guard) error {
	if sp.rel != nil {
		return nil
	}
	ap, err := sp.scan()
	if err != nil {
		return err
	}
	// Selections of a set are distinct: no membership check.
	var kept []relation.Tuple
	err = sp.read(ap, g, func(t relation.Tuple) error {
		kept = append(kept, t)
		return nil
	})
	if err != nil {
		return err
	}
	sp.rel, sp.est = relation.NewDistinct(sp.base.Attrs, kept), len(kept)
	return nil
}

// join feeds push the rows of one join step of cur with the part,
// choosing the method by eqs and the estimates, and returns its trace
// label.
func (sp *scanPart) join(cur *relation.Relation, eqs []Atom, g *guard.Guard, push func(relation.Tuple) error) (string, error) {
	switch {
	case len(eqs) > 0 && sp.est >= indexJoinMinInner && cur.Len()*4 <= sp.est:
		// A small outer probes the base relation's persistent index; the
		// scan's own atoms, if any, filter the candidates, so the scan
		// itself is never materialized.
		probed, err := indexJoin(cur, sp.base, eqs, sp.local, g, push)
		sp.tr.Path, sp.tr.Atoms, sp.tr.Out = PathIndexProbe, atomStrings(sp.local), probed
		return JoinIndex, err
	case len(eqs) > 0:
		if err := sp.materialize(g); err != nil {
			return JoinHash, err
		}
		_, err := indexJoin(cur, sp.rel, eqs, nil, g, push)
		return JoinHash, err
	default:
		if err := sp.materialize(g); err != nil {
			return JoinProduct, err
		}
		return JoinProduct, product(cur, sp.rel, g, push)
	}
}

// estimate sizes a pending scan without reading it: the run its hash-eq
// access path would read anyway (the same index lookup), else the whole
// base. No ordered index is built for an estimate.
func estimate(base *relation.Relation, atoms []Atom) int {
	if k := hashEqAtom(atoms); k >= 0 {
		if j, err := resolve(base.Attrs, atoms[k].L); err == nil {
			return len(base.LookupEq(j, atoms[k].R.Const))
		}
	}
	return base.Len()
}

// hashEqAtom returns the position of the atom the hash-eq path serves —
// the first equality with a constant — or -1.
func hashEqAtom(atoms []Atom) int {
	for k, a := range atoms {
		if a.Op == value.EQ && !a.R.IsAttr {
			return k
		}
	}
	return -1
}

// access is a scan's access path: the rows it reads, the atoms left to
// check on each, the path's trace label and the atoms it served.
type access struct {
	run    []relation.Tuple
	rest   []Atom
	path   string
	served []string
}

// accessPath chooses how to read the rows of part passing atoms: the
// first equality-with-constant atom is served from the secondary hash
// index; failing that, every <,≤,>,≥-with-constant atom on one attribute
// folds into a single ordered-index range lookup; and failing that the
// scan is full.
func accessPath(part *relation.Relation, atoms []Atom) (access, error) {
	if eqAt := hashEqAtom(atoms); eqAt >= 0 {
		eqIdx, err := resolve(part.Attrs, atoms[eqAt].L)
		if err != nil {
			return access{}, err
		}
		return access{
			run:    part.LookupEq(eqIdx, atoms[eqAt].R.Const),
			rest:   append(append([]Atom(nil), atoms[:eqAt]...), atoms[eqAt+1:]...),
			path:   PathHashEq,
			served: []string{atoms[eqAt].String()},
		}, nil
	}
	if ap, ok, err := rangePath(part, atoms); ok || err != nil {
		return ap, err
	}
	return access{run: part.Tuples(), rest: atoms, path: PathFullScan}, nil
}

// rangePath folds every <,≤,>,≥-with-constant atom on the attribute of
// the first such atom into one ordered-index range lookup; it reports
// false when no range atom exists.
func rangePath(part *relation.Relation, atoms []Atom) (access, bool, error) {
	isRange := func(op value.Cmp) bool {
		return op == value.LT || op == value.LE || op == value.GT || op == value.GE
	}
	at := -1
	for _, a := range atoms {
		if !a.R.IsAttr && isRange(a.Op) {
			j, err := resolve(part.Attrs, a.L)
			if err != nil {
				return access{}, false, err
			}
			at = j
			break
		}
	}
	if at < 0 {
		return access{}, false, nil
	}
	var lo, hi *relation.RangeEnd
	ap := access{path: PathIndexRange}
	for _, a := range atoms {
		use := false
		if !a.R.IsAttr && isRange(a.Op) {
			j, err := resolve(part.Attrs, a.L)
			if err != nil {
				return access{}, false, err
			}
			use = j == at
		}
		if !use {
			ap.rest = append(ap.rest, a)
			continue
		}
		ap.served = append(ap.served, a.String())
		v := a.R.Const
		switch a.Op {
		case value.GE:
			lo = tighterLo(lo, &relation.RangeEnd{V: v})
		case value.GT:
			lo = tighterLo(lo, &relation.RangeEnd{V: v, Open: true})
		case value.LE:
			hi = tighterHi(hi, &relation.RangeEnd{V: v})
		case value.LT:
			hi = tighterHi(hi, &relation.RangeEnd{V: v, Open: true})
		}
	}
	ap.run = part.LookupRange(at, lo, hi)
	return ap, true, nil
}

// tighterLo keeps the more restrictive lower bound (higher value; open
// beats closed at equal values).
func tighterLo(cur, cand *relation.RangeEnd) *relation.RangeEnd {
	if cur == nil {
		return cand
	}
	switch d := cand.V.Compare(cur.V); {
	case d > 0, d == 0 && cand.Open:
		return cand
	}
	return cur
}

// tighterHi keeps the more restrictive upper bound (lower value; open
// beats closed at equal values).
func tighterHi(cur, cand *relation.RangeEnd) *relation.RangeEnd {
	if cur == nil {
		return cand
	}
	switch d := cand.V.Compare(cur.V); {
	case d < 0, d == 0 && cand.Open:
		return cand
	}
	return cur
}

// atomScan reports which single scan an atom is local to, if any.
func atomScan(a Atom, parts []*scanPart) (int, bool) {
	li := findPart(parts, a.L)
	if li < 0 {
		return 0, false
	}
	if !a.R.IsAttr {
		return li, true
	}
	ri := findPart(parts, a.R.Attr)
	if ri == li {
		return li, true
	}
	return 0, false
}

func findPart(parts []*scanPart, attr string) int {
	for i, p := range parts {
		if hasAttr(p.base.Attrs, attr) {
			return i
		}
	}
	return -1
}

func hasAttr(attrs []string, a string) bool {
	for _, x := range attrs {
		if x == a {
			return true
		}
	}
	return false
}

func splitEq(atoms []Atom) (eq, other []Atom) {
	for _, a := range atoms {
		if a.Op == value.EQ && a.R.IsAttr {
			eq = append(eq, a)
		} else {
			other = append(other, a)
		}
	}
	return eq, other
}

// connAtoms returns the equality atoms relating cur to parts[i].
func connAtoms(cur, part *relation.Relation, eqs []Atom) []Atom {
	var conn []Atom
	for _, a := range eqs {
		l, r := a.L, a.R.Attr
		if (hasAttr(cur.Attrs, l) && hasAttr(part.Attrs, r)) ||
			(hasAttr(cur.Attrs, r) && hasAttr(part.Attrs, l)) {
			conn = append(conn, a)
		}
	}
	return conn
}

// pickNext chooses the next part by cardinality estimate: among the
// parts connected to cur by an equality, the one minimizing
// |cur|·est(part)/V(base, join key), with V the distinct-count statistic
// of the part's base relation — never of a filtered intermediate — and
// taken only when two or more parts compete; a part with no connecting
// equality (cartesian product) is a last resort, smallest first. Ties
// break on scan order, so the plan is deterministic.
func pickNext(cur *relation.Relation, parts []*scanPart, used []bool, eqs []Atom) (int, []Atom) {
	conns := make([][]Atom, len(parts))
	only, connected := -1, 0
	for i, sp := range parts {
		if !used[i] {
			if conns[i] = connAtoms(cur, sp.base, eqs); len(conns[i]) > 0 {
				only, connected = i, connected+1
			}
		}
	}
	if connected == 1 {
		return only, conns[only]
	}
	bestIdx := -1
	bestEst := 0.0
	for i, sp := range parts {
		if used[i] {
			continue
		}
		var est float64
		if len(conns[i]) > 0 {
			distinct := 1
			for _, a := range conns[i] {
				attr := a.R.Attr
				if hasAttr(sp.base.Attrs, a.L) {
					attr = a.L
				}
				if j, err := resolve(sp.base.Attrs, attr); err == nil {
					distinct = max(distinct, sp.base.DistinctCount(j))
				}
			}
			est = float64(cur.Len()) * float64(sp.est) / float64(distinct)
		} else {
			// No join key: a product. Rank it after every joinable part
			// by estimating the full cross size against the whole input.
			est = 1e18 + float64(cur.Len())*float64(sp.est)
		}
		if bestIdx < 0 || est < bestEst {
			bestIdx, bestEst = i, est
		}
	}
	return bestIdx, conns[bestIdx]
}

func removeAtoms(all, drop []Atom) []Atom {
	out := all[:0:0]
outer:
	for _, a := range all {
		for _, d := range drop {
			if a == d {
				continue outer
			}
		}
		out = append(out, a)
	}
	return out
}

// joinCols resolves the equality atoms of a join into column index pairs
// (li in l, ri in r), flipping atoms written in the other orientation.
func joinCols(l, r *relation.Relation, eqs []Atom) (li, ri []int) {
	li = make([]int, len(eqs))
	ri = make([]int, len(eqs))
	for k, a := range eqs {
		x, y := a.L, a.R.Attr
		if !hasAttr(l.Attrs, x) {
			x, y = y, x
		}
		li[k] = mustIndex(l.Attrs, x)
		ri[k] = mustIndex(r.Attrs, y)
	}
	return li, ri
}

// indexJoin is an index nested-loop join: for each row of l it probes r's
// persistent secondary hash index on the first equality's column and
// checks each candidate against the remaining equalities and against
// residual — atoms over r alone, so a filtered scan of r need never be
// materialized. The index is keyed by value.Value, so a probe hits only
// equal values of the same kind. When r is a base relation the index
// amortizes across every query that joins through it. Each joined row
// goes to push, in one reused row. Every probed candidate is accounted
// against the guard, and the count is returned.
func indexJoin(l, r *relation.Relation, eqs, residual []Atom, g *guard.Guard, push func(relation.Tuple) error) (int, error) {
	li, ri := joinCols(l, r, eqs)
	keep, err := CompilePred(r.Attrs, residual)
	if err != nil {
		return 0, err
	}
	row := make(relation.Tuple, len(l.Attrs)+len(r.Attrs))
	probed := 0
	for _, t := range l.Tuples() {
		if err := g.Check(); err != nil {
			return 0, err
		}
		run := r.LookupEq(ri[0], t[li[0]])
		probed += len(run)
		copy(row, t)
		for _, u := range run {
			if err := g.Add(1); err != nil {
				return 0, err
			}
			if !restEqsMatch(t, u, li, ri) || !keep(u) {
				continue
			}
			copy(row[len(t):], u)
			if err := push(row); err != nil {
				return 0, err
			}
		}
	}
	return probed, nil
}

// product feeds push every pair of a row of l and a row of r, in one
// reused row, accounting each against the guard.
func product(l, r *relation.Relation, g *guard.Guard, push func(relation.Tuple) error) error {
	row := make(relation.Tuple, len(l.Attrs)+len(r.Attrs))
	for _, a := range l.Tuples() {
		copy(row, a)
		for _, b := range r.Tuples() {
			if err := g.Add(1); err != nil {
				return err
			}
			copy(row[len(a):], b)
			if err := push(row); err != nil {
				return err
			}
		}
	}
	return nil
}

// restEqsMatch verifies the equality columns beyond the first (the one
// the index served) between a probe row and a candidate.
func restEqsMatch(t, u relation.Tuple, li, ri []int) bool {
	for k := 1; k < len(li); k++ {
		if t[li[k]].Compare(u[ri[k]]) != 0 {
			return false
		}
	}
	return true
}

func mustIndex(attrs []string, a string) int {
	for i, x := range attrs {
		if x == a {
			return i
		}
	}
	panic("algebra: attribute vanished: " + a)
}
