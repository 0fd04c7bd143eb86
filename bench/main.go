// Package bench is the RETRI end-to-end benchmark: four workloads built on
// the experiment sweeps the retri-experiments CLI runs, ten end-to-end
// metrics measured in fresh child processes, and a traced run that
// attributes time and allocations to layers from outside the program.
// README.md documents the workloads, metrics and attribution rules.
package bench

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"
)

// Fixed-count runs (no -seconds) measure this many untraced repeats.
const defaultRepeats = 5

// Timed runs (-seconds) measure at least this many untraced repeats.
const minTimedRepeats = 3

// setupRuns is how many set-up children each workload runs; setup_s is
// their median.
const setupRuns = 15

// Main runs the benchmark command and returns its exit code. When the
// process is a benchmark child it runs the child instead.
func Main(args []string, stdout, stderr io.Writer) int {
	if code, ok := childMain(stdout); ok {
		return code
	}
	fs := flag.NewFlagSet("retri-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run: fig4-saturated, multihop-flood, chaos-arq, massive-shard or all")
	seed := fs.Uint64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 0, "measure each phase for about this long (at least 3 untraced repeats); 0 runs exactly 5 repeats and one traced child")
	trace := fs.String("trace", "", "0 measures the end-to-end metrics only, 1 the per-layer metrics only; empty measures both")
	out := fs.String("out", "retri-bench-results.json", "results JSON to write (empty skips it)")
	compare := fs.Bool("compare", false, "compare two results files, baseline first: retri-bench -compare a.json b.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "retri-bench: -compare takes two results files")
			return 2
		}
		flagged, err := runCompare(fs.Arg(0), fs.Arg(1), stdout)
		if err != nil {
			fmt.Fprintln(stderr, "retri-bench:", err)
			return 2
		}
		if flagged > 0 {
			return 1
		}
		return 0
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "retri-bench: unexpected arguments %q\n", fs.Args())
		return 2
	}
	selected := workloads
	if *name != "all" {
		w, ok := workloadByName(*name)
		if !ok {
			fmt.Fprintf(stderr, "retri-bench: unknown workload %q\n", *name)
			return 2
		}
		selected = []*workload{w}
	}
	if *seconds < 0 {
		fmt.Fprintf(stderr, "retri-bench: -seconds %v must not be negative\n", *seconds)
		return 2
	}
	p := plan{seed: *seed, setups: setupRuns, repeats: defaultRepeats, untraced: true, traced: true}
	if *seconds > 0 {
		p.budget = time.Duration(*seconds * float64(time.Second))
		p.repeats = minTimedRepeats
	}
	switch *trace {
	case "":
	case "0":
		p.traced = false
	case "1":
		p.untraced = false
	default:
		fmt.Fprintf(stderr, "retri-bench: -trace %q: want 0 or 1\n", *trace)
		return 2
	}
	res := run(selected, p, stdout)
	if *out != "" {
		if err := writeResults(*out, res); err != nil {
			fmt.Fprintln(stderr, "retri-bench:", err)
			return 1
		}
	}
	code := 0
	for _, w := range res.Workloads {
		if !w.Correct {
			code = 1
		}
	}
	if len(res.Workloads) == 1 {
		line, err := json.Marshal(newSummaryLine(res.Workloads[0]))
		if err != nil {
			fmt.Fprintln(stderr, "retri-bench:", err)
			return 1
		}
		fmt.Fprintln(stdout, string(line))
	}
	return code
}

// run measures each workload in turn, one child at a time, printing its
// tables as it finishes.
func run(selected []*workload, p plan, stdout io.Writer) Results {
	res := Results{Seed: p.seed, GoVersion: runtime.Version(), GOMAXPROCS: runtime.NumCPU()}
	for _, w := range selected {
		r := measure(w, p)
		printWorkload(stdout, r)
		res.Workloads = append(res.Workloads, r)
	}
	return res
}

func writeResults(path string, res Results) error {
	raw, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}
