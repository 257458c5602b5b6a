package parser

import (
	"errors"
	"strings"
	"testing"
)

func TestSyntaxErrorLineCol(t *testing.T) {
	cases := []struct {
		name, input    string
		line, col      int
		wantSubstrings []string
	}{
		{"first line", `retrieve !`, 1, 10, []string{"line 1:10"}},
		{"second line", "relation R (A, B);\npermit V Brown", 2, 10, []string{"line 2:10", "expected 'to'"}},
		{"lexer error", "relation R (A, B);\n\ninsert into R values (\"unterminated", 3, 23, []string{"line 3:23", "unterminated string"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseProgramPos(tc.input)
			if err == nil {
				t.Fatalf("expected a parse error")
			}
			var se *SyntaxError
			if !errors.As(err, &se) {
				t.Fatalf("error %T is not a *SyntaxError: %v", err, err)
			}
			if se.Line != tc.line || se.Col != tc.col {
				t.Fatalf("position = %d:%d, want %d:%d (%v)", se.Line, se.Col, tc.line, tc.col, err)
			}
			for _, sub := range tc.wantSubstrings {
				if !strings.Contains(err.Error(), sub) {
					t.Fatalf("error %q missing %q", err, sub)
				}
			}
		})
	}
}

func TestSyntaxErrorUnresolvedRendersOffset(t *testing.T) {
	e := &SyntaxError{Offset: 7, Msg: "boom"}
	if got := e.Error(); got != "pos 7: boom" {
		t.Fatalf("unresolved rendering = %q", got)
	}
}
