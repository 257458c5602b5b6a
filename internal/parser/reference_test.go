package parser

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// referenceProgramPos is the whole-script parse: lex the entire input
// into one token slice, then parse it. ParseProgramPos must agree with
// it on every input — statements, lines and errors.
func referenceProgramPos(input string) ([]StmtPos, error) {
	lx := lexer{input: input}
	var toks []token
	for {
		t, err := lx.next()
		if err != nil {
			return nil, resolvePos(err, input)
		}
		toks = append(toks, t)
		if t.kind == tokEOF {
			break
		}
	}
	p := &parser{toks: toks}
	var out []StmtPos
	line, off := 1, 0
	for {
		for p.accept(tokSemi) {
		}
		if p.peek().kind == tokEOF {
			return out, nil
		}
		if pos := p.peek().pos; pos > off {
			line += strings.Count(input[off:pos], "\n")
			off = pos
		}
		s, err := p.statement()
		if err != nil {
			return nil, resolvePos(err, input)
		}
		out = append(out, StmtPos{Stmt: s, Line: line})
		if p.peek().kind != tokEOF && !p.accept(tokSemi) {
			return nil, resolvePos(errf(p.peek().pos, "expected ';' between statements, found %s", p.peek()), input)
		}
	}
}

// ReferenceProgramPos exports the reference to the package's external
// tests, which compare the two on scripts from packages that import this
// one.
var ReferenceProgramPos = referenceProgramPos

func TestStreamingMatchesReferenceOnCorpus(t *testing.T) {
	inputs := append([]string{strings.Join(roundTripCorpus, ";\n")}, roundTripCorpus...)
	for _, in := range inputs {
		got, err := ParseProgramPos(in)
		want, werr := referenceProgramPos(in)
		if err != nil || werr != nil {
			t.Fatalf("%q: streaming error %v, reference %v", in, err, werr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%q: streaming parse %+v, reference %+v", in, got, want)
		}
	}
}

// TestSyntaxErrorsMatchParent pins the error text of the whole-script
// parser, byte for byte: each lexical and syntax error kind at the
// first, middle and last statement, and a lexical error reported ahead
// of an earlier syntax error.
func TestSyntaxErrorsMatchParent(t *testing.T) {
	good := []string{"relation R (A, B);", "insert into R values (1, x);", "view V (R.A) where R.B = x;"}
	kinds := []struct{ name, stmt, at, msg string }{
		{"unterminated", `insert into R values (1, "x);`, "26", "unterminated string"},
		{"stray", `retrieve (R.A) where R.A ! 1;`, "26", "stray '!'"},
		{"unexpected", `insert into R values (1, x@y);`, "27", `unexpected character "@"`},
		{"missing_semi", `relation S (B) relation T (C);`, "16", `expected ';' between statements, found "relation"`},
	}
	cases := map[string]string{
		"relation (A);\nrelation S (B);\ninsert into S values (@);":        `line 3:23: unexpected character "@"`,
		"relation (A);\nrelation S (B);\ninsert into S values (\"x);":      "line 3:23: unterminated string",
		"relation S (B) relation T (C);\nretrieve (S.B) where S.B ! 2;":    "line 2:26: stray '!'",
		"relation S (B);\nretrieve (S.B) where S.B ! 2;\nrelation (A);":    "line 2:26: stray '!'",
		"relation R (A);\n;;\nrelation":                                    "line 3:9: expected relation name, found end of input",
		"retrieve (R.A) where R.A ≥ 3 and":                                 "line 1:35: expected relation name, found end of input",
		"relation R (A) key (A) permit V to u;\nrelation S (B);":           `line 1:24: expected ';' between statements, found "permit"`,
		"relation R (A);\nview V (avg(R.A));\ninsert into R values (\"x);": "line 3:23: unterminated string",
		"relation R (A);\nview V (avg(R.A));\ninsert into R values (x);":   "aggregate functions are only allowed in retrieve statements",
	}
	for _, k := range kinds {
		for pos := range good {
			lines := append([]string(nil), good...)
			lines[pos] = k.stmt
			cases[strings.Join(lines, "\n")] = fmt.Sprintf("line %d:%s: %s", pos+1, k.at, k.msg)
		}
	}
	for in, want := range cases {
		for name, parse := range map[string]func(string) ([]StmtPos, error){
			"streaming": ParseProgramPos, "reference": referenceProgramPos,
		} {
			sps, err := parse(in)
			if err == nil || err.Error() != want || sps != nil {
				t.Errorf("%s %q: got %v (%d statements), want %q", name, in, err, len(sps), want)
			}
		}
	}
}

// TestProgramBuffersOneStatement bounds the streaming parse's token
// buffer on a 10⁴-statement script by its longest statement: a lexer
// that held the whole script would need about ten times the statement
// count.
func TestProgramBuffersOneStatement(t *testing.T) {
	var b strings.Builder
	b.WriteString("relation R (A, B, C) key (A);\n")
	for i := 0; i < 10000; i++ {
		switch i % 3 {
		case 0:
			fmt.Fprintf(&b, "insert into R values (%d, x%d, \"s;%d\");\n", i, i, i)
		case 1:
			fmt.Fprintf(&b, "-- comment; %d\npermit V%d to u%d;\n", i, i, i)
		default:
			fmt.Fprintf(&b, "view V%d (R.A, R.B) where R.A >= %d and R.C = R.B;;\n", i, i)
		}
	}
	script := b.String()
	longest := 0
	for lx := (lexer{input: script}); lx.off < len(script); {
		toks, err := lx.statement(nil)
		if err != nil {
			t.Fatal(err)
		}
		longest = max(longest, len(toks))
	}
	var p parser
	sps, err := p.program(script)
	if err != nil {
		t.Fatal(err)
	}
	if len(sps) != 10001 {
		t.Fatalf("parsed %d statements, want 10001", len(sps))
	}
	if cap(p.toks) >= 2*longest {
		t.Fatalf("token buffer grew to %d for a longest statement of %d tokens", cap(p.toks), longest)
	}
}
