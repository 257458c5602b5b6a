package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// report is what `run -out` writes and `compare` reads.
type report struct {
	Env       envStamp                   `json:"env"`
	Seed      int64                      `json:"seed"`
	Seconds   int                        `json:"seconds"`
	Config    map[string]string          `json:"config"`
	Workloads map[string]*workloadReport `json:"workloads"`
}

// envStamp says what produced the numbers; two reports are comparable
// only when everything but the commit agrees.
type envStamp struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"num_cpu"`
	GoMaxProcs int    `json:"gomaxprocs"`
	Generated  string `json:"generated"`
}

type workloadReport struct {
	// Runs are the untraced runs, one per seed from the report's seed up.
	Runs []*result `json:"runs"`
	// Trace is the traced pass at the report's seed.
	Trace *result `json:"trace,omitempty"`
}

func stamp() envStamp {
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return envStamp{
		Commit: commit, GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0), Generated: time.Now().UTC().Format(time.RFC3339),
	}
}

// runSet runs every workload `runs` times untraced (seeds seed,
// seed+1, ...) and, if asked, once traced. Each run is this binary
// executed again, sequentially, so every workload has its own process,
// heap, caches and resident-set peak.
func runSet(seed int64, seconds, runs int, trace bool, outDir string) (*report, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	rep := &report{
		Env: stamp(), Seed: seed, Seconds: seconds, Workloads: map[string]*workloadReport{},
		Config: map[string]string{
			"connections":  "one process on one processor, closed loop with one request in flight (churn_mixed: one open-loop writer at 50/s beside it)",
			"calibration":  "setup_s and read_p01_norm_us are scaled by the reference operation of calib.go, timed in the same seconds",
			"flush_policy": "churn_mixed: paged backend, WAL fsync per commit, group commit off, checkpoint every 2s",
			"warmup":       "1s after the last of 3 to 9 set-ups per run",
		},
	}
	one := func(name string, seed int64, traceFlag int) (*result, error) {
		tmp := filepath.Join(outDir, fmt.Sprintf("result-%s-%d.json", name, os.Getpid()))
		defer os.Remove(tmp)
		cmd := exec.Command(exe, "--workload", name, "--seed", strconv.FormatInt(seed, 10),
			"--seconds", strconv.Itoa(seconds), "--trace", strconv.Itoa(traceFlag), "--outdir", outDir, "--report", tmp)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("%s (seed %d, trace %d): %w", name, seed, traceFlag, err)
		}
		raw, err := os.ReadFile(tmp)
		if err != nil {
			return nil, err
		}
		res := &result{}
		return res, json.Unmarshal(raw, res)
	}
	for _, name := range workloadNames {
		wr := &workloadReport{}
		rep.Workloads[name] = wr
		for k := 0; k < runs; k++ {
			res, err := one(name, seed+int64(k), 0)
			if err != nil {
				return nil, err
			}
			wr.Runs = append(wr.Runs, res)
		}
		if trace {
			if wr.Trace, err = one(name, seed, 1); err != nil {
				return nil, err
			}
		}
	}
	return rep, nil
}

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("bench run", flag.ContinueOnError)
	seed := fs.Int64("seed", 1, "seed of the first run of each workload")
	seconds := fs.Int("seconds", 15, "length of each measured window")
	runs := fs.Int("runs", 1, "untraced runs per workload, on consecutive seeds")
	trace := fs.Bool("trace", false, "also run the traced pass and report the per-layer metrics")
	out := fs.String("out", "", "write the report to this file")
	outDir := fs.String("outdir", "bench/out", "directory for trace files and the durable database")
	if err := fs.Parse(args); err != nil {
		return err
	}
	rep, err := runSet(*seed, *seconds, *runs, *trace, *outDir)
	if err != nil {
		return err
	}
	fmt.Printf("commit %s  %s  num_cpu %d  GOMAXPROCS %d\n", rep.Env.Commit, rep.Env.GoVersion, rep.Env.NumCPU, rep.Env.GoMaxProcs)
	if *out == "" {
		return nil
	}
	raw, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(*out, append(raw, '\n'), 0o644)
}

// cmdAA runs two sets back to back and holds the second against the
// first: the benchmark's own repeatability, judged as the driver will.
func cmdAA(args []string) error {
	fs := flag.NewFlagSet("bench aa", flag.ContinueOnError)
	seed := fs.Int64("seed", 1, "seed of the first run of each workload")
	seconds := fs.Int("seconds", 15, "length of each measured window")
	runs := fs.Int("runs", 3, "untraced runs per workload and set, on consecutive seeds")
	outDir := fs.String("outdir", "bench/out", "directory for the durable database")
	benchmark := fs.String("benchmark", "BENCHMARK.json", "the committed benchmark description")
	if err := fs.Parse(args); err != nil {
		return err
	}
	bf, err := readBenchmarkFile(*benchmark)
	if err != nil {
		return err
	}
	a, err := runSet(*seed, *seconds, *runs, false, *outDir)
	if err != nil {
		return err
	}
	b, err := runSet(*seed, *seconds, *runs, false, *outDir)
	if err != nil {
		return err
	}
	if breaches := compareReports(a, b, bf.gates(), true); breaches > 0 {
		return fmt.Errorf("%d metric(s) outside their bound between two sets of the same code", breaches)
	}
	return nil
}

func cmdCompare(args []string) error {
	fs := flag.NewFlagSet("bench compare", flag.ContinueOnError)
	benchmark := fs.String("benchmark", "BENCHMARK.json", "the committed benchmark description")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("usage: bench compare OLD NEW")
	}
	bf, err := readBenchmarkFile(*benchmark)
	if err != nil {
		return err
	}
	var reps [2]*report
	for i := range reps {
		raw, err := os.ReadFile(fs.Arg(i))
		if err != nil {
			return err
		}
		reps[i] = &report{}
		if err := json.Unmarshal(raw, reps[i]); err != nil {
			return fmt.Errorf("%s: %w", fs.Arg(i), err)
		}
	}
	if breaches := compareReports(reps[0], reps[1], bf.gates(), false); breaches > 0 {
		return fmt.Errorf("%d metric(s) regressed beyond their bound", breaches)
	}
	return nil
}

// quartiles are Python's statistics.quantiles(values, n=4), the rule
// the driver applies; fewer than two values have none.
func quartiles(vs []float64) (q1, q2, q3 float64, ok bool) {
	if len(vs) < 2 {
		return 0, 0, 0, false
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	at := func(i int) float64 {
		m := len(s)
		j := min(max(i*(m+1)/4, 1), m-1)
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3), true
}

// series collects one metric's values over a workload's runs.
func series(wr *workloadReport, name string) []float64 {
	var vs []float64
	for _, r := range wr.Runs {
		if m, ok := r.Metrics[name]; ok {
			vs = append(vs, m.Value)
		} else if m, ok := r.Diagnostics[name]; ok {
			vs = append(vs, m.Value)
		}
	}
	return vs
}

// compareReports prints one row per workload and metric: both medians,
// the ratio with its base, each side's spread (interquartile range over
// median) and a verdict. A gated metric whose spread exceeds its bound
// is unresolved, not unchanged. With sameCode set, an excessive spread
// is itself a breach (set-up time excepted, as for the driver).
func compareReports(old, new *report, gates map[string]gate, sameCode bool) (breaches int) {
	fmt.Printf("old: commit %s %s num_cpu %d GOMAXPROCS %d seed %d %ds\n", old.Env.Commit, old.Env.GoVersion,
		old.Env.NumCPU, old.Env.GoMaxProcs, old.Seed, old.Seconds)
	fmt.Printf("new: commit %s %s num_cpu %d GOMAXPROCS %d seed %d %ds\n", new.Env.Commit, new.Env.GoVersion,
		new.Env.NumCPU, new.Env.GoMaxProcs, new.Seed, new.Seconds)
	for _, wname := range workloadNames {
		ow, nw := old.Workloads[wname], new.Workloads[wname]
		if ow == nil || nw == nil || len(ow.Runs) == 0 || len(nw.Runs) == 0 {
			fmt.Printf("\n%s: missing from one report\n", wname)
			breaches++
			continue
		}
		fmt.Printf("\n%s (%d vs %d runs)\n", wname, len(ow.Runs), len(nw.Runs))
		fmt.Printf("  %-34s %14s %14s %9s %8s %8s %7s  %s\n", "metric", "old median", "new median", "new/old", "spread_o", "spread_n", "bound", "verdict")
		names := make([]string, 0, len(endToEnd))
		for _, m := range endToEnd {
			names = append(names, m.name)
		}
		var diags []string
		for n := range ow.Runs[0].Diagnostics {
			diags = append(diags, n)
		}
		sort.Strings(diags)
		for _, name := range append(names, diags...) {
			ov, nv := series(ow, name), series(nw, name)
			if len(ov) == 0 || len(nv) == 0 {
				continue
			}
			om, nm := median(ov), median(nv)
			spread := func(vs []float64) (float64, string) {
				q1, q2, q3, ok := quartiles(vs)
				if !ok || q2 == 0 {
					return 0, "n/a"
				}
				return (q3 - q1) / q2, fmt.Sprintf("%.3f", (q3-q1)/q2)
			}
			so, sos := spread(ov)
			sn, sns := spread(nv)
			g, gated := gates[name]
			verdict, bound := "diagnostic", "-"
			if gated {
				bound = fmt.Sprintf("%.2f", g.bound)
				worse := ratio(nm-om, om)
				if !g.lowerBetter {
					worse = ratio(om-nm, om)
				}
				noisy := max(so, sn) > g.bound && name != "setup_s"
				switch {
				case noisy && sameCode:
					verdict = "BREACH (spread over bound)"
					breaches++
				case noisy:
					verdict = "unresolved (spread over bound)"
				case worse > g.bound:
					verdict = "BREACH (worse by more than bound)"
					breaches++
				case worse < -g.bound:
					verdict = "better"
				default:
					verdict = "ok"
				}
			}
			fmt.Printf("  %-34s %14.3f %14.3f %9.3f %8s %8s %7s  %s\n", name, om, nm, ratio(nm, om), sos, sns, bound, verdict)
		}
		if ow.Trace != nil && nw.Trace != nil {
			fmt.Printf("  per layer (one traced pass each, ungated)\n")
			for _, l := range perLayer {
				o, n := ow.Trace.Metrics[l.name].Value, nw.Trace.Metrics[l.name].Value
				fmt.Printf("  %-34s %14.3f %14.3f %9.3f   should move %s on %s\n", l.name, o, n, ratio(n, o), l.moves, l.on)
			}
		}
	}
	return breaches
}
