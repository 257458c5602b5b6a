package algebra

import (
	"bufio"
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"strings"
	"testing"

	"authdb/internal/guard"
)

// corpus replays the differential harness's case generators with their
// seeds: the randomized cases, the residual-probe cases small and large,
// and the large cases; then thetaCase's. Each case is named by its
// generator and seed.
func corpus(yield func(name string, c diffCase)) {
	for i := 0; i < 1000; i++ {
		seed := int64(1000 + i)
		yield(fmt.Sprintf("random/%d", seed), genCase(rand.New(rand.NewSource(seed)), 0))
	}
	for i := 0; i < 300; i++ {
		seed := int64(20_000 + i)
		yield(fmt.Sprintf("probe/%d", seed), genProbeCase(rand.New(rand.NewSource(seed)), false))
	}
	for i := 0; i < 6; i++ {
		seed := int64(21_000 + i)
		yield(fmt.Sprintf("probe-large/%d", seed), genProbeCase(rand.New(rand.NewSource(seed)), true))
	}
	for i := 0; i < 24; i++ {
		seed := int64(9000 + i)
		rng := rand.New(rand.NewSource(seed))
		yield(fmt.Sprintf("large/%d", seed), genCase(rng, 1200+rng.Intn(600)))
	}
	for i := 0; i < 400; i++ {
		seed := int64(30_000 + i)
		yield(fmt.Sprintf("theta/%d", seed), thetaCase(rand.New(rand.NewSource(seed))))
	}
}

// thetaCase is a randomized case with one or two more atoms comparing
// attributes of two scans. The joins consume every equality that
// connects two scans, so only these atoms leave selections for the
// steps to apply as they become resolvable, and for the last step to
// stream rows through. A tenth of the atoms name their left attribute
// bare, which two scans can make ambiguous, and one case in twenty asks
// for a column no scan has: a plan can then fail only after its last
// step has run.
func thetaCase(rng *rand.Rand) diffCase {
	c := genCase(rng, 0)
	arity := func(s int) int { return c.rels[c.plan.Scans[s].Rel].Arity() }
	for k := 1 + rng.Intn(2); k > 0; k-- {
		s1, s2 := rng.Intn(len(c.plan.Scans)), rng.Intn(len(c.plan.Scans))
		l := fmt.Sprintf("T%d.A%d", s1, rng.Intn(arity(s1)))
		if rng.Intn(10) == 0 {
			_, l, _ = strings.Cut(l, ".")
		}
		c.plan.Preds = append(c.plan.Preds, Atom{
			L:  l,
			Op: diffOps[rng.Intn(len(diffOps))],
			R:  AttrOp(fmt.Sprintf("T%d.A%d", s2, rng.Intn(arity(s2)))),
		})
	}
	if rng.Intn(20) == 0 {
		c.plan.Cols = append(c.plan.Cols, "T9.A0")
	}
	return c
}

// hash64 is the FNV-1a hash of lines, each ended by a newline.
func hash64(lines []string) uint64 {
	h := fnv.New64a()
	for _, l := range lines {
		h.Write([]byte(l))
		h.Write([]byte{'\n'})
	}
	return h.Sum64()
}

// goldenLine evaluates one case on EvalPSJ under an unlimited guard and
// renders what the executor decided and charged: the guard units, a
// hash of the trace's lines and a hash of the answer's rows in the
// order EvalPSJ returns them; for a plan that fails, the units charged
// before it failed and the error.
func goldenLine(name string, c diffCase) string {
	g := guard.New(context.Background(), guard.Unlimited())
	var tr Trace
	out, err := EvalPSJ(c.plan, MapSource(c.rels), g, ExecOptions{}, &tr)
	if err != nil {
		return fmt.Sprintf("%s units=%d err=%v", name, g.Produced(), err)
	}
	rows := make([]string, out.Len())
	for i, t := range out.Tuples() {
		rows[i] = fmt.Sprint(t)
	}
	return fmt.Sprintf("%s units=%d trace=%016x rows=%016x n=%d",
		name, g.Produced(), hash64(tr.Lines()), hash64(rows), out.Len())
}

// TestStreamedExecutorGolden holds EvalPSJ, whose last step streams its
// rows through the selections and the projection, to what the executor
// that materialized every step produced on the differential corpus:
// the same guard units, the same trace lines and the same rows in the
// same order, or the same error after the same units
// (testdata/psj_golden.txt, recorded before the last step streamed).
// Every case but the large probes, whose naive product would be
// millions of rows, also returns EvalNaive's rows as a set, or fails as
// EvalNaive does.
func TestStreamedExecutorGolden(t *testing.T) {
	f, err := os.Open("testdata/psj_golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		name, _, _ := strings.Cut(sc.Text(), " ")
		want[name] = sc.Text()
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	n := 0
	corpus(func(name string, c diffCase) {
		n++
		if got := goldenLine(name, c); got != want[name] {
			t.Errorf("%s (plan %s):\n got %s\nwant %s", name, c.plan, got, want[name])
		}
		if strings.HasPrefix(name, "probe-large/") {
			return
		}
		naive, nerr := EvalNaive(c.plan, MapSource(c.rels), nil)
		streamed, err := EvalPSJ(c.plan, MapSource(c.rels), nil, ExecOptions{}, nil)
		if (nerr == nil) != (err == nil) {
			t.Errorf("%s: EvalPSJ error %v, EvalNaive error %v (plan %s)", name, err, nerr, c.plan)
			return
		}
		if err == nil && !naive.Equal(streamed) {
			t.Errorf("%s: EvalPSJ and EvalNaive disagree on plan %s: %d vs %d tuples", name, c.plan, streamed.Len(), naive.Len())
		}
	})
	if n != len(want) {
		t.Fatalf("corpus has %d cases, golden file %d", n, len(want))
	}
}
