package algebra

import (
	"fmt"
	"strings"
)

// ExecOptions is EvalPSJ's options argument.
type ExecOptions struct {
	// UseIndexes has no effect: EvalPSJ always chooses among the
	// secondary-index access paths and orders joins by its estimates.
	UseIndexes bool
}

// Access-path labels recorded per scan in a Trace.
const (
	PathFullScan   = "full scan"
	PathHashEq     = "hash eq"
	PathIndexRange = "index range"
	// PathIndexProbe is a scan an index join reached through the base
	// relation's hash index alone, checking the scan's atoms per candidate.
	PathIndexProbe = "index probe"
)

// Join-strategy labels recorded per join in a Trace. Both equi-joins
// probe a hash index: JoinHash the materialized scan's, JoinIndex the
// base relation's, checking the scan's atoms per candidate.
const (
	JoinHash    = "hash join"
	JoinIndex   = "index join"
	JoinProduct = "product"
)

// ScanTrace records how one scan of the plan was served.
type ScanTrace struct {
	Alias string
	Rel   string
	Path  string   // PathFullScan, PathHashEq, PathIndexRange, PathIndexProbe
	Atoms []string // atoms served by the access path (an index probe: all it checked)
	In    int      // base relation rows
	Out   int      // rows surviving the scan's local predicates; an index probe: rows its probes returned
}

// JoinTrace records one step of the greedy left-deep join.
type JoinTrace struct {
	Kind string // JoinHash, JoinIndex, JoinProduct
	With string // alias of the part joined in
	On   []string
	Out  int
}

// Trace collects the access-path decisions of one EvalPSJ run, for
// EXPLAIN output and tests: scans in scan order, joins in join order. A
// nil *Trace disables collection.
type Trace struct {
	Scans []ScanTrace
	Joins []JoinTrace
}

// Lines renders the trace, one decision per line.
func (t *Trace) Lines() []string {
	out := make([]string, 0, len(t.Scans)+len(t.Joins))
	for _, s := range t.Scans {
		name := s.Alias
		if s.Rel != s.Alias {
			name += " (" + s.Rel + ")"
		}
		atoms := ""
		if len(s.Atoms) > 0 {
			atoms = " [" + strings.Join(s.Atoms, " and ") + "]"
		}
		out = append(out, fmt.Sprintf("scan %s: %s%s — %d of %d rows", name, s.Path, atoms, s.Out, s.In))
	}
	for _, j := range t.Joins {
		on := ""
		if len(j.On) > 0 {
			on = " on " + strings.Join(j.On, " and ")
		}
		out = append(out, fmt.Sprintf("join %s: %s%s — %d rows", j.With, j.Kind, on, j.Out))
	}
	return out
}

func (t *Trace) scan(s ScanTrace) {
	if t != nil {
		t.Scans = append(t.Scans, s)
	}
}

func (t *Trace) join(j JoinTrace) {
	if t != nil {
		t.Joins = append(t.Joins, j)
	}
}

func atomStrings(atoms []Atom) []string {
	out := make([]string, len(atoms))
	for i, a := range atoms {
		out[i] = a.String()
	}
	return out
}
