// Package fixture builds the benchmark's two databases as statement
// scripts: the paper's running example scaled with synthetic rows, and
// a seeded organization / group / resource-ACL database expressed as
// Motro views. Scripts are deterministic, so a run's inputs are a pure
// function of its seed.
package fixture

import (
	"fmt"
	"math/rand"
	"strings"

	"authdb/internal/relation"
	"authdb/internal/value"
	"authdb/internal/workload"
)

// PaperScale sizes the synthetic rows added to the paper's Figure 1
// database.
type PaperScale struct {
	Employees, Projects, Assignments int
}

// DefaultPaper is the scale BENCH_serve.json was recorded at, kept so
// the new baseline continues that series. With 30 titles, 300
// employees make Example 3's self-join deliver 3003 rows.
func DefaultPaper() PaperScale {
	return PaperScale{Employees: 300, Projects: 600, Assignments: 1200}
}

// The title count sizes Example 3's self-join; the extra views (3 per
// index, 24 in all, permitted to both users) size the meta-relation
// products an uncached authorization pays for.
const (
	paperTitles     = 30
	paperExtraViews = 8
)

// The paper's §5 worked examples, the read statements of the three
// paper-fixture workloads.
const (
	Example1 = workload.Example1Query
	Example2 = workload.Example2Query
	Example3 = workload.Example3Query
)

// PaperScript is the paper's Figure 1 database, views and permits
// followed by the synthetic rows and the grant-heavy view set. It is a
// copy of cmd/authdb's benchFixtureScript; that file is left untouched.
func PaperScript(sc PaperScale) string {
	var b strings.Builder
	b.WriteString(workload.PaperScript)
	for i := 0; i < sc.Employees; i++ {
		fmt.Fprintf(&b, "insert into EMPLOYEE values (e%d, t%d, %d);\n",
			i, i%paperTitles, 20000+(i*37)%30000)
	}
	for i := 0; i < sc.Projects; i++ {
		sponsor := "Acme"
		if i%3 != 0 {
			sponsor = fmt.Sprintf("s%d", i%7)
		}
		fmt.Fprintf(&b, "insert into PROJECT values (p%d, %s, %d);\n",
			i, sponsor, (i*7919)%500000)
	}
	for i := 0; i < sc.Assignments; i++ {
		fmt.Fprintf(&b, "insert into ASSIGNMENT values (e%d, p%d);\n",
			(i*13)%sc.Employees, (i*31)%sc.Projects)
	}
	for k := 0; k < paperExtraViews; k++ {
		fmt.Fprintf(&b, "view BV%d (EMPLOYEE.NAME, EMPLOYEE.SALARY) where EMPLOYEE.SALARY >= %d;\n",
			k, 49000+k*80)
		fmt.Fprintf(&b, "view PV%d (PROJECT.NUMBER, PROJECT.BUDGET) where PROJECT.BUDGET >= %d;\n",
			k, 490000+k*800)
		fmt.Fprintf(&b, "view AV%d (ASSIGNMENT.E_NAME, ASSIGNMENT.P_NO, PROJECT.NUMBER) "+
			"where ASSIGNMENT.P_NO = PROJECT.NUMBER and PROJECT.BUDGET >= %d;\n",
			k, 480000+k*1000)
		for _, u := range []string{"Brown", "Klein"} {
			fmt.Fprintf(&b, "permit BV%d to %s;\npermit PV%d to %s;\npermit AV%d to %s;\n",
				k, u, k, u, k, u)
		}
	}
	return b.String()
}

// ChurnSponsor marks the rows churn_mixed inserts into PROJECT. Their
// budgets stay below both examples' thresholds, so the writes move
// PROJECT's revisions (and with them the closure, the indexes, the WAL
// and the page store) without changing what Examples 1 and 2 deliver:
// the read answers stay checkable against one verified reply.
const ChurnSponsor = "churn"

// ChurnInsert renders the insert of churn row id, with a budget drawn
// from rng, and the tuple it adds. Identifiers and budgets are fixed
// width, so every insert (and every delete) journals the same number
// of bytes and bytes-per-write repeats exactly.
func ChurnInsert(id int, rng *rand.Rand) (string, relation.Tuple) {
	number, budget := fmt.Sprintf("c%07d", id), int64(100+rng.Intn(900))
	return fmt.Sprintf("insert into PROJECT values (%s, %s, %d)", number, ChurnSponsor, budget),
		relation.Tuple{value.String(number), value.String(ChurnSponsor), value.Int(budget)}
}

// ChurnDelete renders the delete of churn row id and the NUMBER it
// removes.
func ChurnDelete(id int) (string, value.Value) {
	number := fmt.Sprintf("c%07d", id)
	return "delete from PROJECT where NUMBER = " + number, value.String(number)
}
