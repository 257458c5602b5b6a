// Package parser implements the statement language of the paper's §6
// front-end: view definitions, permit statements, and retrieve statements
// in the concrete syntax of §2 and §5, together with the DDL/DML the
// front-end needs (relation, insert, delete, revoke, show, drop).
//
// Example statements:
//
//	relation EMPLOYEE (NAME, TITLE, SALARY) key (NAME);
//	insert into EMPLOYEE values (Jones, manager, 26000);
//	view ELP (EMPLOYEE.NAME, EMPLOYEE.TITLE, PROJECT.NUMBER, PROJECT.BUDGET)
//	  where EMPLOYEE.NAME = ASSIGNMENT.E_NAME
//	  and PROJECT.NUMBER = ASSIGNMENT.P_NO
//	  and PROJECT.BUDGET >= 250000;
//	permit ELP to KLEIN;
//	retrieve (EMPLOYEE.NAME, EMPLOYEE.TITLE)
//	  where EMPLOYEE.NAME = ASSIGNMENT.E_NAME
//	  and ASSIGNMENT.P_NO = PROJECT.NUMBER
//	  and PROJECT.SPONSOR = Acme;
package parser

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"
)

type tokKind uint8

const (
	tokEOF tokKind = iota
	tokIdent
	tokNumber
	tokString
	tokLParen
	tokRParen
	tokComma
	tokDot
	tokColon
	tokSemi
	tokCmp
	tokStar
)

type token struct {
	kind tokKind
	text string
	pos  int
}

func (t token) String() string {
	if t.kind == tokEOF {
		return "end of input"
	}
	return fmt.Sprintf("%q", t.text)
}

// lexer splits a script into tokens one statement at a time, resuming at
// the offset where the previous statement stopped, so a script is never
// held as one token slice. Identifiers may contain letters, digits, '_'
// and interior '-' (project numbers like bq-45 are bare identifiers);
// numbers are optionally signed decimals; strings are double-quoted.
type lexer struct {
	input string
	off   int
}

// statement appends to buf the tokens from the current offset up to and
// including the next ';', or up to the end of input, and then a tokEOF
// terminator, so the parser's lookahead never runs off the buffer. A
// terminator after ';' is never consumed: every statement rule stops at,
// or fails on, the ';' before it.
func (lx *lexer) statement(buf []token) ([]token, error) {
	for {
		t, err := lx.next()
		if err != nil {
			return buf, err
		}
		buf = append(buf, t)
		switch t.kind {
		case tokEOF:
			return buf, nil
		case tokSemi:
			return append(buf, token{tokEOF, "", lx.off}), nil
		}
	}
}

// lexErrorOr scans the rest of the input and returns its first lexical
// error, or err when there is none: a script is rejected for a lexical
// error anywhere in it before any syntax error, the order of a lexer
// that scans the whole script before the parser starts.
func (lx *lexer) lexErrorOr(err error) error {
	for {
		t, lerr := lx.next()
		if lerr != nil {
			return lerr
		}
		if t.kind == tokEOF {
			return err
		}
	}
}

// punctKinds maps each single-byte punctuation token to its kind;
// tokEOF marks every other byte.
var punctKinds = [256]tokKind{
	'(': tokLParen, ')': tokRParen, ',': tokComma, '.': tokDot,
	':': tokColon, ';': tokSemi, '*': tokStar,
}

// next scans one token, skipping whitespace and comments; at the end of
// input it returns tokEOF.
func (lx *lexer) next() (token, error) {
	input := lx.input
	n := len(input)
	i := lx.off
	for i < n {
		c := input[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
			continue
		case c == '-' && i+1 < n && input[i+1] == '-': // line comment
			for i < n && input[i] != '\n' {
				i++
			}
			continue
		}
		if k := punctKinds[c]; k != tokEOF {
			lx.off = i + 1
			return token{k, input[i : i+1], i}, nil
		}
		start := i
		var t token
		switch {
		case c == '=' || c == '<' || c == '>' || c == '!':
			i++
			if i < n && (input[i] == '=' || (c == '<' && input[i] == '>')) {
				i++
			}
			if input[start:i] == "!" {
				return token{}, errf(start, "stray '!'")
			}
			t = token{tokCmp, input[start:i], start}
		case c == '"':
			i++
			for i < n && input[i] != '"' {
				i++
			}
			if i >= n {
				return token{}, errf(start, "unterminated string")
			}
			i++
			t = token{tokString, input[start+1 : i-1], start}
		case c >= '0' && c <= '9', c == '-' && i+1 < n && input[i+1] >= '0' && input[i+1] <= '9':
			i++
			for i < n && input[i] >= '0' && input[i] <= '9' {
				i++
			}
			t = token{tokNumber, input[start:i], start}
		case c < 0x80 && isIdentStart(rune(c)):
			i++
			for i < n && isIdentPart(input, i) {
				i++
			}
			t = token{tokIdent, input[start:i], start}
		default:
			r, size := utf8.DecodeRuneInString(input[i:])
			switch {
			case r == '≠' || r == '≤' || r == '≥':
				i += size
				t = token{tokCmp, input[start:i], start}
			case isIdentStart(r):
				i += size
				for i < n {
					r2, s2 := utf8.DecodeRuneInString(input[i:])
					if r2 < 0x80 {
						if !isIdentPart(input, i) {
							break
						}
						i++
						continue
					}
					if !unicode.IsLetter(r2) {
						break
					}
					i += s2
				}
				t = token{tokIdent, input[start:i], start}
			default:
				return token{}, errf(i, "unexpected character %q", string(r))
			}
		}
		lx.off = i
		return t, nil
	}
	lx.off = n
	return token{tokEOF, "", n}, nil
}

func isIdentStart(c rune) bool {
	return unicode.IsLetter(c) || c == '_'
}

// isIdentPart allows interior hyphens only when followed by another
// identifier character, so "bq-45" lexes as one token while "A -5" does
// not glue.
func isIdentPart(input string, i int) bool {
	c := input[i]
	if c == '_' || c >= '0' && c <= '9' || unicode.IsLetter(rune(c)) {
		return true
	}
	if c == '-' && i+1 < len(input) {
		d := input[i+1]
		return d == '_' || d >= '0' && d <= '9' || unicode.IsLetter(rune(d))
	}
	return false
}

// keyword folds an identifier to lower case for keyword matching;
// identifiers used as names keep their spelling.
func keyword(t token) string {
	if t.kind != tokIdent {
		return ""
	}
	return strings.ToLower(t.text)
}

// isKeyword reports keyword(t) == kw without folding a copy when t is
// ASCII, as every keyword is: the parser asks it of most identifiers.
func isKeyword(t token, kw string) bool {
	for i := 0; i < len(t.text); i++ {
		if t.text[i] >= utf8.RuneSelf {
			return keyword(t) == kw
		}
	}
	return t.kind == tokIdent && strings.EqualFold(t.text, kw)
}
