package parser

import (
	"fmt"
	"strings"

	"authdb/internal/cview"
	"authdb/internal/value"
)

// StmtPos pairs a parsed statement with the 1-based source line of its
// first token, so script errors can point at the offending statement.
type StmtPos struct {
	Stmt Stmt
	Line int
}

// ParseProgramPos parses a semicolon-separated sequence of statements,
// reporting each statement's source line. The whole script is parsed
// before anything is returned, so a script with an error anywhere yields
// no statements.
func ParseProgramPos(input string) ([]StmtPos, error) {
	// A token is about four bytes of input: a single statement gets a
	// buffer near its size, a script one that fits most statements.
	p := parser{toks: make([]token, 0, min(32, len(input)/4+2))}
	return p.program(input)
}

// program is ParseProgramPos over p, whose token buffer holds one
// statement at a time and is reused for the next.
func (p *parser) program(input string) ([]StmtPos, error) {
	lx := lexer{input: input}
	// Every statement but the last ends in ';', so this bounds the count
	// (from above, when ';' also appears in strings and comments).
	out := make([]StmtPos, 0, strings.Count(input, ";")+1)
	// Track the line incrementally: statement positions only move forward,
	// so counting newlines over each gap keeps the whole pass linear in the
	// script size (recounting from the start per statement is quadratic on
	// bulk-load scripts).
	line, off := 1, 0
	for {
		var err error
		if p.toks, err = lx.statement(p.toks[:0]); err != nil {
			return nil, resolvePos(err, input)
		}
		p.i = 0
		switch p.peek().kind {
		case tokSemi: // empty statement
			continue
		case tokEOF: // a terminator only follows ';', so this is the end
			return out, nil
		}
		if pos := p.peek().pos; pos > off {
			line += strings.Count(input[off:pos], "\n")
			off = pos
		}
		s, err := p.statement()
		if err != nil {
			return nil, resolvePos(lx.lexErrorOr(err), input)
		}
		out = append(out, StmtPos{Stmt: s, Line: line})
		if t := p.peek(); t.kind != tokEOF && t.kind != tokSemi {
			err := errf(t.pos, "expected ';' between statements, found %s", t)
			return nil, resolvePos(lx.lexErrorOr(err), input)
		}
	}
}

// Render serializes a mutating statement back to statement-language text
// that reparses to an equivalent statement; the engine's write-ahead log
// stores statements in this form. Only the journaled statement kinds
// (relation, insert, delete, view, drop view, permit, revoke) render;
// anything else — and any constant CheckLiterals refuses — is an error.
func Render(s Stmt) (string, error) {
	if err := CheckLiterals(s); err != nil {
		return "", err
	}
	switch s := s.(type) {
	case CreateRelation:
		var b strings.Builder
		b.WriteString("relation " + s.Name + " (" + strings.Join(s.Attrs, ", ") + ")")
		if len(s.Key) > 0 {
			b.WriteString(" key (" + strings.Join(s.Key, ", ") + ")")
		}
		return b.String(), nil
	case Insert:
		lits := make([]string, len(s.Values))
		for i, v := range s.Values {
			lits[i] = value.Literal(v)
		}
		return "insert into " + s.Rel + " values (" + strings.Join(lits, ", ") + ")", nil
	case Delete:
		var b strings.Builder
		b.WriteString("delete from " + s.Rel)
		sep := " where "
		for _, branch := range append([][]cview.Cond{s.Where}, s.Or...) {
			for _, c := range branch {
				b.WriteString(sep + c.String())
				sep = " and "
			}
			sep = " or "
		}
		return b.String(), nil
	case ViewStmt:
		return s.Def.String(), nil
	case DropView:
		return "drop view " + s.Name, nil
	case Permit:
		return "permit " + s.View + " to " + s.User, nil
	case Revoke:
		return "revoke " + s.View + " from " + s.User, nil
	default:
		return "", fmt.Errorf("statement %T has no canonical rendering", s)
	}
}

// CheckLiterals refuses a statement holding a constant without a literal
// form (value.Representable): the null value, or a string containing a
// double quote. The lexer produces neither, so only a statement built in
// code can hold one; the engine refuses it before applying it, because
// it could not be journaled.
func CheckLiterals(s Stmt) error {
	switch s := s.(type) {
	case Insert:
		for _, v := range s.Values {
			if !value.Representable(v) {
				return fmt.Errorf("insert into %s: value %s has no literal form", s.Rel, v)
			}
		}
	case Delete:
		if err := checkConds(append([][]cview.Cond{s.Where}, s.Or...)); err != nil {
			return fmt.Errorf("delete from %s: %w", s.Rel, err)
		}
	case ViewStmt:
		if err := checkConds(s.Def.Branches()); err != nil {
			return fmt.Errorf("view %s: %w", s.Def.Name, err)
		}
	}
	return nil
}

// checkConds refuses the first constant operand without a literal form.
func checkConds(branches [][]cview.Cond) error {
	for _, branch := range branches {
		for _, c := range branch {
			if !c.R.IsCol && !value.Representable(c.R.Const) {
				return fmt.Errorf("constant %s has no literal form", c.R.Const)
			}
		}
	}
	return nil
}
