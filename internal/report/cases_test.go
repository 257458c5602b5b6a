package report

import (
	"fmt"
	"testing"

	"authdb/internal/core"
	"authdb/internal/workload"
)

// TestCasesMatchMetaSelect runs each of the walkthrough's four λ through
// the system's §4.2 selection (FourCase on) on the meta-tuple of a view
// with BUDGET in [300000, 600000], and checks that the resulting cell is
// what the walkthrough prints: the tuple discarded, the field cleared,
// left unchanged, or conjoined with the intersection.
func TestCasesMatchMetaSelect(t *testing.T) {
	f := workload.NewFixture()
	f.MustExec(`
		relation PROJECT (NUMBER, BUDGET) key (NUMBER);
		view V (PROJECT.NUMBER, PROJECT.BUDGET) where PROJECT.BUDGET >= 300000 and PROJECT.BUDGET <= 600000;
		permit V to u;
	`)
	for _, c := range budgetCases {
		inst := f.Store.Of("u").Instantiate(map[string]int{"PROJECT": 1}, core.DefaultOptions())
		mr := inst.MetaRelFor("PROJECT", "PROJECT")
		if cons := mr.Tuples[0].Cells[1].Cons; !cons.Equal(budgetMu) {
			t.Fatalf("view's BUDGET cell = %s, want %s", cons, budgetMu)
		}
		out, err := core.MetaSelectConst(mr, "PROJECT.BUDGET", c.lam, inst, true)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := selected(out), caseOutcome(c.lam); got != want {
			t.Errorf("%s: MetaSelectConst gives %q, the walkthrough prints %q", c.label, got, want)
		}
	}
}

// selected describes a selection's output in the walkthrough's words.
func selected(out *core.MetaRel) string {
	if len(out.Tuples) == 0 {
		return "contradictory: the meta-tuple is discarded"
	}
	switch cell := out.Tuples[0].Cells[1]; {
	case cell.IsBlank():
		return "lambda implies mu: selected, field cleared (no restriction)"
	case cell.Cons.Equal(budgetMu):
		return "mu implies lambda: selected without modification"
	}
	return fmt.Sprintf("conjoined: field modified to BUDGET in %s", out.Tuples[0].Cells[1].Cons)
}
