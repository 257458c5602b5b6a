// Package report renders the paper's reproduced artifacts as text:
// Figure 1, the worked Examples 1–3 of §5 with their intermediate
// meta-relations, and the §4.2 four-case selection walkthrough. The
// paperrepro command prints these; the golden tests pin them.
package report

import (
	"fmt"
	"io"

	"authdb/internal/core"
	"authdb/internal/interval"
	"authdb/internal/value"
	"authdb/internal/workload"
)

func header(w io.Writer, title string) {
	fmt.Fprintf(w, "================ %s ================\n\n", title)
}

// Figure1 prints the example database extended with access permissions:
// each base relation with its meta-relation, then COMPARISON and
// PERMISSION.
func Figure1(w io.Writer) {
	header(w, "Figure 1: Database Extended with Access Permissions")
	f := workload.Paper()
	for _, rel := range []string{"EMPLOYEE", "PROJECT", "ASSIGNMENT"} {
		f.Rels[rel].Head().Render(w, rel)
		f.Store.RenderMeta(w, rel)
		fmt.Fprintln(w)
	}
	f.Store.RenderComparison(w)
	fmt.Fprintln(w)
	f.Store.RenderPermission(w)
	fmt.Fprintln(w)
}

// Example runs one §5 worked example, printing the request, the pruned
// per-scan meta-relations, the intermediate meta-relations after each
// phase, the final mask, the inferred permits, and the delivered answer.
// It returns an error instead of printing on failure.
func Example(w io.Writer, n int, user, query string) error {
	header(w, fmt.Sprintf("Example %d (user %s)", n, user))
	def := workload.MustQuery(query)
	fmt.Fprintln(w, def.String())
	fmt.Fprintln(w)

	f := workload.Paper()
	opt := core.DefaultOptions()
	// The paper instantiates each view once; extra fresh-variable copies
	// (useful for completeness on repeated-relation queries) only add
	// display noise here and never change these examples' outcomes —
	// TestExample1–3 run with the default options and agree.
	opt.ViewCopies = 1
	auth := core.NewAuthorizer(f.Store, f.Source, opt)
	d, err := auth.Explain(user, def, nil)
	if err != nil {
		return fmt.Errorf("example %d: %w", n, err)
	}

	d.RenderPhases(w)

	switch {
	case d.FullyAuthorized:
		fmt.Fprintln(w, "The entire answer is delivered without any accompanying permit statements.")
	case d.Denied:
		fmt.Fprintln(w, "No portion of the answer is permitted; nothing is delivered.")
	default:
		for _, p := range d.Permits {
			fmt.Fprintln(w, p.String())
		}
	}
	fmt.Fprintln(w)
	d.Masked.Render(w, "delivered answer:")
	fmt.Fprintln(w)
	return nil
}

// Cases walks the §4.2 selection refinement example: a view of the
// projects whose budgets are between $300,000 and $600,000, against four
// query selections.
func Cases(w io.Writer) {
	header(w, "§4.2 four-case selection walkthrough")
	fmt.Fprintf(w, "view predicate mu: BUDGET in %s\n\n", budgetMu)
	for _, q := range budgetCases {
		fmt.Fprintf(w, "%s\n  lambda: BUDGET in %s\n  -> %s\n\n", q.label, q.lam, caseOutcome(q.lam))
	}
}

// budgetMu is the walkthrough's view predicate, BUDGET in [300000,
// 600000], and budgetCases its four query predicates λ.
var (
	budgetMu = interval.Intersect(
		interval.FromCmp(value.GE, value.Int(300000)),
		interval.FromCmp(value.LE, value.Int(600000)),
	)
	budgetCases = []struct {
		label string
		lam   interval.Interval
	}{
		{"(1) budgets between 200,000 and 400,000", interval.Intersect(
			interval.FromCmp(value.GE, value.Int(200000)), interval.FromCmp(value.LE, value.Int(400000)))},
		{"(2) budgets between 200,000 and 700,000", interval.Intersect(
			interval.FromCmp(value.GE, value.Int(200000)), interval.FromCmp(value.LE, value.Int(700000)))},
		{"(3) budgets between 400,000 and 500,000", interval.Intersect(
			interval.FromCmp(value.GE, value.Int(400000)), interval.FromCmp(value.LE, value.Int(500000)))},
		{"(4) budgets under 300,000", interval.FromCmp(value.LT, value.Int(300000))},
	}
)

// caseOutcome is the walkthrough's verdict on a query predicate λ
// against budgetMu.
func caseOutcome(lam interval.Interval) string {
	inter := interval.Intersect(budgetMu, lam)
	switch {
	case inter.IsEmpty():
		return "contradictory: the meta-tuple is discarded"
	case lam.Implies(budgetMu):
		return "lambda implies mu: selected, field cleared (no restriction)"
	case budgetMu.Implies(lam):
		return "mu implies lambda: selected without modification"
	default:
		return fmt.Sprintf("conjoined: field modified to BUDGET in %s", inter)
	}
}

// All prints every artifact in order.
func All(w io.Writer) error {
	Figure1(w)
	if err := Example(w, 1, "Brown", workload.Example1Query); err != nil {
		return err
	}
	if err := Example(w, 2, "Klein", workload.Example2Query); err != nil {
		return err
	}
	if err := Example(w, 3, "Brown", workload.Example3Query); err != nil {
		return err
	}
	Cases(w)
	return nil
}
