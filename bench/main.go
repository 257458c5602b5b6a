// Command bench is the repository's benchmark: four workloads over the
// masked-retrieve path, driven through pkg/client against an in-process
// internal/server, with a correctness gate, per-class latency and a
// per-layer traced pass. BENCHMARK.json at the repository root
// describes it to the driver; README.md explains it to people.
//
//	go run ./bench --workload W --seed N --seconds S --trace 0|1
//	    one run of one workload; the last line of standard output is
//	    the result object the driver reads.
//	go run ./bench run [-seed N] [-seconds S] [-runs K] [-trace] [-out FILE]
//	    every workload in turn, each in a process of its own.
//	go run ./bench aa [-seed N] [-seconds S] [-runs K]
//	    two sets of runs of the same binary, compared against the bounds.
//	go run ./bench compare OLD NEW
//	    two reports written by run -out, compared against the bounds.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
)

// The benchmark runs on one processor with one request in flight. The
// machine has two, but they are a shared host's: with the client and
// the server's handler on two threads every request crosses an idle
// virtual processor's wake-up, whose cost moves with the host by
// factors (a 24us request had a median of 100us), and two requests in
// flight queue behind each other's collections. On one processor a
// request is the client's, the kernel's and the server's work back to
// back, and its latency repeats.
const benchProcs = 1

func main() {
	runtime.GOMAXPROCS(benchProcs)
	args := os.Args[1:]
	var err error
	switch {
	case len(args) > 0 && args[0] == "run":
		err = cmdRun(args[1:])
	case len(args) > 0 && args[0] == "aa":
		err = cmdAA(args[1:])
	case len(args) > 0 && args[0] == "compare":
		err = cmdCompare(args[1:])
	default:
		err = cmdOne(args)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// cmdOne is the driver's entry point: one workload, traced or not.
func cmdOne(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "", "one of warm_point, warm_wide, acl_cold, churn_mixed")
	seed := fs.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Int("seconds", 15, "length of the measured window")
	trace := fs.Int("trace", 0, "1 runs the traced pass and reports the per-layer metrics")
	outDir := fs.String("outdir", "bench/out", "directory for trace files and the durable database")
	report := fs.String("report", "", "also write the result, diagnostics included, to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if *seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1")
	}
	p := defaultParams(*seed, *seconds, *outDir)
	w, err := newWorkload(*name, p)
	if err != nil {
		return err
	}
	var res *result
	if *trace == 1 {
		res, err = traced(w, p)
	} else {
		res, err = measure(w, p)
	}
	if err != nil {
		return err
	}
	printMetrics(res)
	if *report != "" {
		raw, err := json.Marshal(res)
		if err != nil {
			return err
		}
		if err := os.WriteFile(*report, raw, 0o644); err != nil {
			return err
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool    `json:"correct"`
		Attempted int64   `json:"attempted"`
		Failed    int64   `json:"failed"`
		Metrics   metrics `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, res.Metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// printMetrics lists every metric by name with its unit: the gated or
// per-layer set first, then the diagnostics.
func printMetrics(res *result) {
	fmt.Printf("workload %s trace=%v attempted=%d failed=%d correct=%v\n",
		res.Workload, res.Trace, res.Attempted, res.Failed, res.Correct)
	for _, set := range []metrics{res.Metrics, res.Diagnostics} {
		names := make([]string, 0, len(set))
		for n := range set {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Printf("  %-40s %14.4f %s\n", n, set[n].Value, set[n].Unit)
		}
		fmt.Println()
	}
}
