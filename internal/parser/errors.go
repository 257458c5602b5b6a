package parser

import (
	"fmt"
	"strings"
)

// SyntaxError is a parse failure with position information. The lexer
// and parser produce it with the byte Offset of the offending token; the
// top-level entry points (Parse, ParseProgramPos) fill in
// the 1-based Line and Col from the source text, so callers — and the
// wire protocol's structured errors — can point users at the exact spot.
type SyntaxError struct {
	// Offset is the 0-based byte offset into the source.
	Offset int
	// Line and Col are 1-based; zero when the source text was not
	// available to resolve them.
	Line, Col int
	// Msg describes the failure without any position prefix.
	Msg string
}

// Error renders "line L:C: msg" when resolved, "pos N: msg" otherwise.
func (e *SyntaxError) Error() string {
	if e.Line > 0 {
		return fmt.Sprintf("line %d:%d: %s", e.Line, e.Col, e.Msg)
	}
	return fmt.Sprintf("pos %d: %s", e.Offset, e.Msg)
}

// errf builds a SyntaxError at the given byte offset.
func errf(pos int, format string, args ...any) error {
	return &SyntaxError{Offset: pos, Msg: fmt.Sprintf(format, args...)}
}

// resolvePos fills in Line and Col on a SyntaxError from the source
// text; other errors pass through unchanged.
func resolvePos(err error, input string) error {
	se, ok := err.(*SyntaxError)
	if !ok || se.Line > 0 {
		return err
	}
	off := se.Offset
	if off > len(input) {
		off = len(input)
	}
	se.Line = 1 + strings.Count(input[:off], "\n")
	if i := strings.LastIndexByte(input[:off], '\n'); i >= 0 {
		se.Col = off - i
	} else {
		se.Col = off + 1
	}
	return se
}
