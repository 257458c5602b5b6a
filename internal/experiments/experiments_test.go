package experiments_test

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"authdb/internal/experiments"
)

var update = flag.Bool("update", false, "rewrite the golden files")

// TestTablesGolden pins the complete output of the deterministic
// experiments — E6, E7, E8 and E11, in that order — against
// testdata/tables.golden. Run with -update after an intentional change.
func TestTablesGolden(t *testing.T) {
	var buf bytes.Buffer
	for _, run := range []func(io.Writer){experiments.SysR, experiments.Ingres, experiments.Ablation, experiments.Extended} {
		run(&buf)
	}
	path := filepath.Join("testdata", "tables.golden")
	if *update {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != string(want) {
		g, w := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(g) && i < len(w); i++ {
			if g[i] != w[i] {
				t.Fatalf("output diverged from %s at line %d (run with -update after intentional changes)\n got: %s\nwant: %s",
					path, i+1, g[i], w[i])
			}
		}
		t.Fatalf("output diverged from %s: %d lines, want %d", path, len(g), len(w))
	}
}

// TestSysRTable pins the deterministic content of E6: System R denies
// every base-relation query while the mask model answers within the
// permissions.
func TestSysRTable(t *testing.T) {
	var b bytes.Buffer
	experiments.SysR(&b)
	out := b.String()
	for _, want := range []string{
		"Q1 within ELP, on base relations (paper §1)   Klein    DENIED       full (2/2)",
		"Q2 Example 1 on base relation                 Brown    DENIED       partial (2/4)",
		"Q3 Example 2 on base relations                Klein    DENIED       partial (1/2)",
		"Q4 against the view ELP itself                Klein    answered",
		"Q5 all salaries on base relation              Brown    DENIED       full (6/6)",
		"System R:     0 answered,  40 denied",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("E6 output misses %q:\n%s", want, out)
		}
	}
	// The mask model must answer a nonzero share of the synthetic
	// workload.
	if regexp.MustCompile(`mask model:\s+0 full,\s+0 partial`).MatchString(out) {
		t.Fatalf("mask model answered nothing:\n%s", out)
	}
}

// TestIngresTable pins E7: the column asymmetry and the inexpressible
// multi-relation view.
func TestIngresTable(t *testing.T) {
	var b bytes.Buffer
	experiments.Ingres(&b)
	out := b.String()
	for _, want := range []string{
		"Q1 permitted columns (NAME, SALARY)      Brown    answered (3 rows)  full (6/6)",
		"Q2 one column too many (+TITLE)          Brown    DENIED             partial (6/9)",
		"Q3 rows reduced by qualification         Brown    answered (1 rows)  denied (0/6)",
		"Q4 multi-relation view needed (ELP)      Klein    DENIED             partial (1/2)",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("E7 output misses %q:\n%s", want, out)
		}
	}
}

// TestAblationTable pins E8: each refinement's effect on the paper's
// examples and the padding micro-demo.
func TestAblationTable(t *testing.T) {
	var b bytes.Buffer
	experiments.Ablation(&b)
	out := b.String()
	for _, want := range []string{
		"all refinements (default)    2/4          1/2          12/12",
		"no four-case selection       0/4          0/2          0/12",
		"no self-joins                2/4          1/2          6/12",
		"bare Definitions 1-3         0/4          0/2          0/12",
		"padding=true  -> partial (2/3 cells)",
		"padding=false -> denied (0/3 cells)",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("E8 output misses %q:\n%s", want, out)
		}
	}
}

// TestExtendedTable pins E11: the extension recovers the hidden-condition
// mask and never delivers less on the synthetic workload.
func TestExtendedTable(t *testing.T) {
	var b bytes.Buffer
	experiments.Extended(&b)
	out := b.String()
	if !strings.Contains(out, "PSA without requesting SPONSOR       Brown    denied (0/6)     partial (2/6)") {
		t.Fatalf("E11 headline row missing:\n%s", out)
	}
	m := regexp.MustCompile(`base (\d+) cells, extended (\d+) cells`).FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("E11 synthetic summary missing:\n%s", out)
	}
	if m[1] > m[2] && len(m[1]) >= len(m[2]) { // lexicographic guard is enough at equal widths
		t.Fatalf("extension delivered less: %s vs %s", m[2], m[1])
	}
}

// TestOverheadRuns smoke-tests E9 (timings vary; only the structure is
// asserted).
func TestOverheadRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("timing sweep")
	}
	var b bytes.Buffer
	experiments.Overhead(&b)
	out := b.String()
	if strings.Count(out, "rows=") != 9 {
		t.Fatalf("expected 9 sweep rows:\n%s", out)
	}
}
