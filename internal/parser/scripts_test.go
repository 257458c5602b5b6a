package parser_test

import (
	"reflect"
	"testing"

	"authdb/bench/fixture"
	"authdb/internal/parser"
	"authdb/internal/workload"
)

// TestStreamingMatchesReferenceOnScripts compares the streaming parse
// with the whole-script reference, statement for statement, on the
// paper's scripts and the benchmark's ACL load.
func TestStreamingMatchesReferenceOnScripts(t *testing.T) {
	scripts := map[string]string{
		"paper":         workload.PaperScript,
		"paper_fixture": fixture.PaperScript(fixture.PaperScale{}),
		"acl_seed1":     fixture.GenACL(1, fixture.DefaultACL()).Script,
	}
	for name, script := range scripts {
		got, err := parser.ParseProgramPos(script)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want, err := parser.ReferenceProgramPos(script)
		if err != nil {
			t.Fatalf("%s: reference: %v", name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: streaming and reference parses differ", name)
		}
	}
}
