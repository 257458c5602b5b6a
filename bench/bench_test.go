package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"authdb/bench/fixture"
)

// testParams shrinks a run to a fraction of a second: a 100ms window,
// small databases, short traced sequences.
func testParams(t *testing.T) params {
	p := defaultParams(1, 1, t.TempDir())
	p.window, p.warmup, p.setupReps = 100*time.Millisecond, 10*time.Millisecond, nil
	p.traceOps = map[string]int{warmPoint: 40, warmWide: 30, aclCold: 80, churnMixed: 120}
	p.decompose, p.authEvery = 4, 10
	p.paper = fixture.PaperScale{Employees: 60, Projects: 120, Assignments: 240}
	p.acl = aclScale{cfg: fixture.ACLConfig{Orgs: 4, Users: 60, Groups: 12, Resources: 160, ACLs: 400}, gateSample: 6}
	return p
}

func names(m metrics) []string {
	out := make([]string, 0, len(m))
	for n := range m {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

func sameNames(t *testing.T, what string, got metrics, want []string) {
	t.Helper()
	w := append([]string(nil), want...)
	sort.Strings(w)
	if g := names(got); strings.Join(g, " ") != strings.Join(w, " ") {
		t.Errorf("%s reports\n  %v\nBENCHMARK.json lists\n  %v", what, g, w)
	}
}

func loadBenchmarkFile(t *testing.T) *benchmarkFile {
	t.Helper()
	bf, err := readBenchmarkFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	return bf
}

// BENCHMARK.json must stay inside the driver's limits and agree with
// the tables the runner reports from.
func TestBenchmarkFile(t *testing.T) {
	bf := loadBenchmarkFile(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(kind, n, u string) {
		if !name.MatchString(n) {
			t.Errorf("%s name %q is not made of letters, digits, _ . -", kind, n)
		}
		if u != "" && !unit.MatchString(u) {
			t.Errorf("%s %s: unit %q", kind, n, u)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}

	if len(bf.Workloads) < 2 || len(bf.Workloads) > 8 {
		t.Errorf("%d workloads, want 2 to 8", len(bf.Workloads))
	}
	var wl []string
	for _, w := range bf.Workloads {
		check("workload", w.Name, "")
		wl = append(wl, w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if strings.Join(wl, " ") != strings.Join(workloadNames, " ") {
		t.Errorf("workloads %v, the runner has %v", wl, workloadNames)
	}

	if len(bf.EndToEnd) < 1 || len(bf.EndToEnd) > 16 {
		t.Errorf("%d end-to-end metrics, want 1 to 16", len(bf.EndToEnd))
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics, the runner reports %d", len(bf.EndToEnd), len(endToEnd))
	}
	setup := false
	for i, m := range bf.EndToEnd {
		check("end-to-end", m.Name, m.Unit)
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end-to-end %d is %s [%s], the runner reports %s [%s]", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s [s, lower] among the end-to-end metrics")
	}

	if len(bf.PerLayer) < 1 || len(bf.PerLayer) > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", len(bf.PerLayer))
	}
	if len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics, the runner reports %d", len(bf.PerLayer), len(perLayer))
	}
	for i, m := range bf.PerLayer {
		check("per-layer", m.Name, m.Unit)
		l := perLayer[i]
		if m.Name != l.name || m.Unit != l.unit {
			t.Errorf("per-layer %d is %s [%s], the runner reports %s [%s]", i, m.Name, m.Unit, l.name, l.unit)
		}
	}
	// Every per-layer metric names what it should move and where.
	for _, l := range perLayer {
		if !seen[l.moves] && !strings.HasPrefix(l.moves, "none (") {
			t.Errorf("%s should move %q, which is no metric of the benchmark", l.name, l.moves)
		}
		if l.on != "all" && !seen[l.on] {
			t.Errorf("%s should move on %q, which is no workload", l.name, l.on)
		}
	}

	if bf.RunSeconds < 1 || bf.RunSeconds > 60 {
		t.Errorf("run_seconds %d", bf.RunSeconds)
	}
	if len(bf.Paths) != 1 || bf.Paths[0] != "bench" {
		t.Errorf("paths %v, want [bench]", bf.Paths)
	}
	if strings.Join(bf.Command, " ") != "go run ./bench" {
		t.Errorf("command %v", bf.Command)
	}
}

// Every workload runs untraced with the correctness gate on, fails
// nothing, and reports exactly the end-to-end metrics, none of them 0.
func TestMeasure(t *testing.T) {
	var want []string
	for _, m := range endToEnd {
		want = append(want, m.name)
	}
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			p := testParams(t)
			w, err := newWorkload(name, p)
			if err != nil {
				t.Fatal(err)
			}
			res, err := measure(w, p)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
			}
			sameNames(t, "the untraced run", res.Metrics, want)
			for n, m := range res.Metrics {
				if m.Value <= 0 {
					t.Errorf("%s = %v; end-to-end metrics are never 0", n, m.Value)
				}
			}
			if name == churnMixed && res.Diagnostics["write_samples"].Value == 0 {
				t.Error("churn_mixed recorded no writes")
			}
		})
	}
}

// Every workload's traced pass reports exactly the per-layer metrics,
// writes its spans, and keeps the staging honest.
func TestTraced(t *testing.T) {
	var want []string
	for _, l := range perLayer {
		want = append(want, l.name)
	}
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			p := testParams(t)
			w, err := newWorkload(name, p)
			if err != nil {
				t.Fatal(err)
			}
			res, err := traced(w, p)
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("attempted=%d failed=%d", res.Attempted, res.Failed)
			}
			sameNames(t, "the traced pass", res.Metrics, want)

			raw, err := os.ReadFile(filepath.Join(p.outDir, "trace-"+name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			var spans []span
			if err := json.Unmarshal(raw, &spans); err != nil {
				t.Fatal(err)
			}
			byName := map[string]int{}
			for i, s := range spans {
				byName[s.Name]++
				if s.ID != i+1 || s.Parent >= s.ID || s.EndNS < s.StartNS {
					t.Fatalf("span %d malformed: %+v", i, s)
				}
				if s.Parent > 0 {
					if par := spans[s.Parent-1]; par.Request != s.Request || par.StartNS > s.StartNS {
						t.Fatalf("span %+v does not nest in its parent %+v", s, par)
					}
				}
			}
			for _, n := range []string{"request", "engine.exec", "parser.parse", "cview.analyze", "core.retrieve_plan", "wire.encode"} {
				if byName[n] == 0 {
					t.Errorf("no %s span recorded", n)
				}
			}
			if name == churnMixed && (byName["engine.insert"] == 0 || byName["storage.checkpoint"] == 0) {
				t.Errorf("churn_mixed recorded no write or checkpoint spans: %v", byName)
			}
		})
	}
}

// Counts the program makes must repeat exactly for a seed: a later
// change that moves one of them has changed an answer, not a speed.
func TestTracedCountsRepeat(t *testing.T) {
	counts := []string{"core.cells_delivered_per_read", "core.cells_withheld_per_read", "wire.resp_bytes",
		"core.closure_hit_ratio", "core.maskcache_hit_ratio", "core.closure_invalidations"}
	var runs [2]metrics
	for i := range runs {
		p := testParams(t)
		w, err := newWorkload(aclCold, p)
		if err != nil {
			t.Fatal(err)
		}
		res, err := traced(w, p)
		if err != nil {
			t.Fatal(err)
		}
		runs[i] = res.Metrics
	}
	for _, n := range counts {
		if runs[0][n] != runs[1][n] {
			t.Errorf("%s: %v then %v", n, runs[0][n].Value, runs[1][n].Value)
		}
	}
	if runs[0]["core.cells_withheld_per_read"].Value == 0 {
		t.Error("acl_cold withheld no cell; its masks do nothing")
	}
}

// quartiles must be the driver's rule, Python's statistics.quantiles
// with n=4.
func TestQuartiles(t *testing.T) {
	q1, q2, q3, ok := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if !ok || q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v %v %v", q1, q2, q3)
	}
	if _, _, _, ok := quartiles([]float64{1}); ok {
		t.Error("one value has no quartiles")
	}
}

// The floor is the 1st percentile, but never has fewer than ten
// samples at or below it.
func TestFloor(t *testing.T) {
	asc := func(n int) []float64 {
		vs := make([]float64, n)
		for i := range vs {
			vs[i] = float64(i + 1)
		}
		return vs
	}
	for _, c := range []struct {
		n    int
		want float64
	}{{0, 0}, {3, 3}, {10, 10}, {400, 10}, {1000, 10}, {5001, 51}} {
		if got := floor(asc(c.n)); got != c.want {
			t.Errorf("floor of 1..%d = %v, want %v", c.n, got, c.want)
		}
	}
}
