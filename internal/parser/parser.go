package parser

import (
	"fmt"
	"strconv"

	"authdb/internal/cview"
	"authdb/internal/value"
)

// Stmt is a parsed statement.
type Stmt interface{ isStmt() }

// CreateRelation declares a relation scheme with an optional key.
type CreateRelation struct {
	Name  string
	Attrs []string
	Key   []string
}

// Insert adds one tuple to a base relation.
type Insert struct {
	Rel    string
	Values []value.Value
}

// Delete removes the tuples of a base relation satisfying the conditions
// (all tuples when Where is empty). Or holds further conjunctions, each
// after "or"; a tuple satisfying any branch is removed.
type Delete struct {
	Rel   string
	Where []cview.Cond
	Or    [][]cview.Cond
}

// ViewStmt defines a named conjunctive view.
type ViewStmt struct{ Def *cview.Def }

// DropView removes a view definition (and its grants).
type DropView struct{ Name string }

// Permit grants a user access to a view.
type Permit struct {
	View string
	User string
}

// Revoke withdraws a permit.
type Revoke struct {
	View string
	User string
}

// AggSpec marks one output column of a retrieve as aggregated: the
// column at Index (in the plain Def's projection list) is folded by Func
// ("count", "sum", "avg", "min", "max") over each group formed by the
// remaining (plain) output columns.
type AggSpec struct {
	Index int
	Func  string
}

// Retrieve is a query. When Aggs is non-empty, the query is an aggregate
// request: the engine answers the plain definition under authorization
// first, then groups and folds the delivered relation — so aggregates
// are always computed from data the user is entitled to see.
type Retrieve struct {
	Def  *cview.Def
	Aggs []AggSpec
}

// Explain wraps a query: instead of the answer, the session reports the
// dual pipeline — the per-phase meta-relations, the final mask, and the
// authorization outcome.
type Explain struct{ Def *cview.Def }

// Show is a REPL introspection command: "show relations", "show views",
// "show view NAME", "show permissions", "show meta", "show rights USER".
type Show struct {
	What string
	Arg  string
}

func (CreateRelation) isStmt() {}
func (Insert) isStmt()         {}
func (Delete) isStmt()         {}
func (ViewStmt) isStmt()       {}
func (DropView) isStmt()       {}
func (Permit) isStmt()         {}
func (Revoke) isStmt()         {}
func (Retrieve) isStmt()       {}
func (Explain) isStmt()        {}
func (Show) isStmt()           {}

type parser struct {
	toks []token
	i    int
}

func (p *parser) peek() token { return p.toks[p.i] }

func (p *parser) next() token {
	t := p.toks[p.i]
	if t.kind != tokEOF {
		p.i++
	}
	return t
}

func (p *parser) expect(k tokKind, what string) (token, error) {
	t := p.next()
	if t.kind != k {
		return t, errf(t.pos, "expected %s, found %s", what, t)
	}
	return t, nil
}

func (p *parser) accept(k tokKind) bool {
	if p.peek().kind == k {
		p.i++
		return true
	}
	return false
}

func (p *parser) acceptKeyword(kw string) bool {
	if isKeyword(p.peek(), kw) {
		p.i++
		return true
	}
	return false
}

// Parse parses a single statement; trailing semicolons are tolerated.
func Parse(input string) (Stmt, error) {
	sps, err := ParseProgramPos(input)
	if err != nil {
		return nil, err
	}
	if len(sps) == 0 {
		return nil, fmt.Errorf("empty statement")
	}
	if len(sps) > 1 {
		return nil, fmt.Errorf("expected one statement, found %d", len(sps))
	}
	return sps[0].Stmt, nil
}

func (p *parser) statement() (Stmt, error) {
	t := p.peek()
	switch keyword(t) {
	case "relation":
		p.next()
		return p.createRelation()
	case "insert":
		p.next()
		return p.insert()
	case "delete":
		p.next()
		return p.delete()
	case "view":
		p.next()
		return p.view()
	case "drop":
		p.next()
		if !p.acceptKeyword("view") {
			return nil, errf(p.peek().pos, "expected 'view' after 'drop'")
		}
		name, err := p.expect(tokIdent, "view name")
		if err != nil {
			return nil, err
		}
		return DropView{Name: name.text}, nil
	case "permit":
		p.next()
		return p.permit()
	case "revoke":
		p.next()
		return p.revoke()
	case "retrieve":
		p.next()
		return p.retrieve()
	case "explain":
		p.next()
		if !p.acceptKeyword("retrieve") {
			return nil, errf(p.peek().pos, "expected 'retrieve' after 'explain'")
		}
		r, err := p.retrieve()
		if err != nil {
			return nil, err
		}
		return Explain{Def: r.(Retrieve).Def}, nil
	case "show":
		p.next()
		return p.show()
	default:
		return nil, errf(t.pos, "unknown statement starting with %s", t)
	}
}

func (p *parser) createRelation() (Stmt, error) {
	name, err := p.expect(tokIdent, "relation name")
	if err != nil {
		return nil, err
	}
	attrs, err := p.identList()
	if err != nil {
		return nil, err
	}
	s := CreateRelation{Name: name.text, Attrs: attrs}
	if p.acceptKeyword("key") {
		key, err := p.identList()
		if err != nil {
			return nil, err
		}
		s.Key = key
	}
	return s, nil
}

func (p *parser) identList() ([]string, error) {
	if _, err := p.expect(tokLParen, "'('"); err != nil {
		return nil, err
	}
	var out []string
	for {
		t, err := p.expect(tokIdent, "identifier")
		if err != nil {
			return nil, err
		}
		out = append(out, t.text)
		if p.accept(tokRParen) {
			return out, nil
		}
		if _, err := p.expect(tokComma, "',' or ')'"); err != nil {
			return nil, err
		}
	}
}

func (p *parser) insert() (Stmt, error) {
	if !p.acceptKeyword("into") {
		return nil, errf(p.peek().pos, "expected 'into' after 'insert'")
	}
	rel, err := p.expect(tokIdent, "relation name")
	if err != nil {
		return nil, err
	}
	if !p.acceptKeyword("values") {
		return nil, errf(p.peek().pos, "expected 'values'")
	}
	if _, err := p.expect(tokLParen, "'('"); err != nil {
		return nil, err
	}
	// The statement's tokens are all buffered: size the tuple once.
	n := 1
	for _, t := range p.toks[p.i:] {
		if t.kind == tokComma {
			n++
		} else if t.kind == tokRParen {
			break
		}
	}
	vals := make([]value.Value, 0, n)
	for {
		v, err := p.constant()
		if err != nil {
			return nil, err
		}
		vals = append(vals, v)
		if p.accept(tokRParen) {
			return Insert{Rel: rel.text, Values: vals}, nil
		}
		if _, err := p.expect(tokComma, "',' or ')'"); err != nil {
			return nil, err
		}
	}
}

func (p *parser) delete() (Stmt, error) {
	if !p.acceptKeyword("from") {
		return nil, errf(p.peek().pos, "expected 'from' after 'delete'")
	}
	rel, err := p.expect(tokIdent, "relation name")
	if err != nil {
		return nil, err
	}
	s := Delete{Rel: rel.text}
	for kw := "where"; p.acceptKeyword(kw); kw = "or" {
		conds, err := p.conds(rel.text)
		if err != nil {
			return nil, err
		}
		if s.Where == nil {
			s.Where = conds
		} else {
			s.Or = append(s.Or, conds)
		}
	}
	return s, nil
}

func (p *parser) view() (Stmt, error) {
	name, err := p.expect(tokIdent, "view name")
	if err != nil {
		return nil, err
	}
	def, err := p.defBody()
	if err != nil {
		return nil, err
	}
	def.Name = name.text
	// Views (not queries) may be disjunctive (§6): further conjunctive
	// branches follow after "or".
	for p.acceptKeyword("or") {
		branch, err := p.conds("")
		if err != nil {
			return nil, err
		}
		def.Or = append(def.Or, branch)
	}
	return ViewStmt{Def: def}, nil
}

func (p *parser) retrieve() (Stmt, error) {
	def, aggs, err := p.defBodyAgg()
	if err != nil {
		return nil, err
	}
	return Retrieve{Def: def, Aggs: aggs}, nil
}

// aggFuncs are the aggregate functions accepted in retrieve projections.
var aggFuncs = map[string]bool{"count": true, "sum": true, "avg": true, "min": true, "max": true}

// defBody parses "(col, ...) [where cond and cond ...]".
func (p *parser) defBody() (*cview.Def, error) {
	d, aggs, err := p.defBodyAgg()
	if err != nil {
		return nil, err
	}
	if len(aggs) > 0 {
		return nil, fmt.Errorf("aggregate functions are only allowed in retrieve statements")
	}
	return d, nil
}

// defBodyAgg parses "(col | agg(col), ...) [where cond and cond ...]".
func (p *parser) defBodyAgg() (*cview.Def, []AggSpec, error) {
	if _, err := p.expect(tokLParen, "'('"); err != nil {
		return nil, nil, err
	}
	d := &cview.Def{Cols: make([]cview.ColRef, 0, p.listLen())}
	var aggs []AggSpec
	for {
		// Lookahead for agg '(' col ')'.
		if t := p.peek(); t.kind == tokIdent && p.toks[p.i+1].kind == tokLParen && aggFuncs[keyword(t)] {
			fn := keyword(p.next())
			p.next() // '('
			c, err := p.colRef("")
			if err != nil {
				return nil, nil, err
			}
			if _, err := p.expect(tokRParen, "')'"); err != nil {
				return nil, nil, err
			}
			aggs = append(aggs, AggSpec{Index: len(d.Cols), Func: fn})
			d.Cols = append(d.Cols, c)
		} else {
			c, err := p.colRef("")
			if err != nil {
				return nil, nil, err
			}
			d.Cols = append(d.Cols, c)
		}
		if p.accept(tokRParen) {
			break
		}
		if _, err := p.expect(tokComma, "',' or ')'"); err != nil {
			return nil, nil, err
		}
	}
	if p.acceptKeyword("where") {
		conds, err := p.conds("")
		if err != nil {
			return nil, nil, err
		}
		d.Where = conds
	}
	return d, aggs, nil
}

// listLen counts the entries of the list whose first token is the
// lookahead, up to its closing parenthesis, so the list is sized once.
func (p *parser) listLen() int {
	n, depth := 1, 0
	for _, t := range p.toks[p.i:] {
		switch t.kind {
		case tokLParen:
			depth++
		case tokRParen:
			if depth == 0 {
				return n
			}
			depth--
		case tokComma:
			if depth == 0 {
				n++
			}
		}
	}
	return n
}

// conds parses a conjunction of conditions. rel is the relation a bare
// attribute name refers to (a delete addresses one relation), or "" where
// every column reference names its relation (views and retrieves).
func (p *parser) conds(rel string) ([]cview.Cond, error) {
	var out []cview.Cond
	for {
		c, err := p.cond(rel)
		if err != nil {
			return nil, err
		}
		out = append(out, c)
		if !p.acceptKeyword("and") {
			return out, nil
		}
	}
}

func (p *parser) cond(rel string) (cview.Cond, error) {
	l, err := p.colRef(rel)
	if err != nil {
		return cview.Cond{}, err
	}
	opTok, err := p.expect(tokCmp, "comparator")
	if err != nil {
		return cview.Cond{}, err
	}
	op, ok := value.ParseCmp(opTok.text)
	if !ok {
		return cview.Cond{}, errf(opTok.pos, "bad comparator %q", opTok.text)
	}
	r, err := p.term()
	if err != nil {
		return cview.Cond{}, err
	}
	return cview.Cond{L: l, Op: op, R: r}, nil
}

// colRef parses IDENT [":" NUMBER] "." IDENT. Where rel is not "", a
// bare IDENT is an attribute of rel.
func (p *parser) colRef(rel string) (cview.ColRef, error) {
	what := "relation name"
	if rel != "" {
		what = "attribute or relation name"
	}
	t, err := p.expect(tokIdent, what)
	if err != nil {
		return cview.ColRef{}, err
	}
	alias := t.text
	if p.accept(tokColon) {
		n, err := p.expect(tokNumber, "occurrence number")
		if err != nil {
			return cview.ColRef{}, err
		}
		alias += ":" + n.text
	}
	if rel == "" {
		if _, err := p.expect(tokDot, "'.'"); err != nil {
			return cview.ColRef{}, err
		}
	} else if !p.accept(tokDot) {
		return cview.ColRef{Alias: rel, Attr: t.text}, nil
	}
	attr, err := p.expect(tokIdent, "attribute name")
	if err != nil {
		return cview.ColRef{}, err
	}
	return cview.ColRef{Alias: alias, Attr: attr.text}, nil
}

// term parses the right-hand side of a condition: a column reference when
// the lookahead shapes like IDENT[:N].IDENT, otherwise a constant (so a
// bare identifier is a constant, in a delete too).
func (p *parser) term() (cview.Term, error) {
	t := p.peek()
	if t.kind == tokIdent {
		j := p.i + 1
		if p.toks[j].kind == tokColon && p.toks[j+1].kind == tokNumber {
			j += 2
		}
		if p.toks[j].kind == tokDot {
			c, err := p.colRef("")
			if err != nil {
				return cview.Term{}, err
			}
			return cview.Term{IsCol: true, Col: c}, nil
		}
	}
	v, err := p.constant()
	if err != nil {
		return cview.Term{}, err
	}
	return cview.ConstTerm(v), nil
}

func (p *parser) constant() (value.Value, error) {
	t := p.next()
	switch t.kind {
	case tokNumber:
		i, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return value.Value{}, errf(t.pos, "bad number %q", t.text)
		}
		return value.Int(i), nil
	case tokString:
		return value.String(t.text), nil
	case tokIdent:
		return value.String(t.text), nil
	default:
		return value.Value{}, errf(t.pos, "expected a constant, found %s", t)
	}
}

func (p *parser) permit() (Stmt, error) {
	view, err := p.expect(tokIdent, "view name")
	if err != nil {
		return nil, err
	}
	if !p.acceptKeyword("to") {
		return nil, errf(p.peek().pos, "expected 'to'")
	}
	user, err := p.expect(tokIdent, "user name")
	if err != nil {
		return nil, err
	}
	return Permit{View: view.text, User: user.text}, nil
}

func (p *parser) revoke() (Stmt, error) {
	view, err := p.expect(tokIdent, "view name")
	if err != nil {
		return nil, err
	}
	if !p.acceptKeyword("from") {
		return nil, errf(p.peek().pos, "expected 'from'")
	}
	user, err := p.expect(tokIdent, "user name")
	if err != nil {
		return nil, err
	}
	return Revoke{View: view.text, User: user.text}, nil
}

func (p *parser) show() (Stmt, error) {
	what, err := p.expect(tokIdent, "what to show")
	if err != nil {
		return nil, err
	}
	s := Show{What: keyword(what)}
	if p.peek().kind == tokIdent {
		s.Arg = p.next().text
	}
	return s, nil
}
