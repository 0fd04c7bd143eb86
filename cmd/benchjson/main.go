// Command benchjson turns `go test -bench` output into a machine-readable
// perf snapshot, so the benchmark smoke stage leaves a BENCH_<pr>.json
// artifact behind and the perf trajectory across PRs is diffable instead
// of buried in CI logs.
//
// It reads benchmark output on stdin, echoes every line to stdout
// unchanged (so it tees transparently into an existing pipeline), and
// writes one JSON document to -out:
//
//	go test -run '^$' -bench . -benchtime 1x -benchmem ./... | benchjson -pr 7 -out BENCH_7.json
//
// Each benchmark line contributes one record carrying the package, the
// benchmark name (GOMAXPROCS suffix stripped), the iteration count, every
// value/unit metric pair go test printed (ns/op, B/op, allocs/op, plus
// any custom b.ReportMetric units), and a derived ops_per_sec rate. When
// the stream reports the same benchmark more than once — the smoke stage
// runs everything once at 1x, then re-runs the gated families at a real
// iteration count with -count repeats — the record with the most
// iterations wins, and among equal-iteration repeats the lowest ns/op
// wins: on a shared machine timing noise is one-sided (steal time only
// slows a run down), so the minimum over repeats is the honest estimate.
//
// With -compare, benchjson is a regression gate instead of a parser:
//
//	benchjson -compare BENCH_6.json BENCH_7.json
//
// compares the snapshots' gated benchmarks (-match selects them) and
// fails when ns/op or allocs/op grew more than their thresholds, or
// when a gated benchmark disappeared. ns/op is only compared when both
// sides ran at least -min-iters iterations — a 1x measurement is a smoke
// signal, not a number — while allocs/op is deterministic and is always
// compared, against its own -alloc-threshold. That threshold defaults to
// 0: allocation counts are exact, so the gate is a ratchet — once a hot
// path reaches N allocs/op it may never grow, not even by one.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"strconv"
	"strings"
)

// Benchmark is one parsed benchmark result line.
type Benchmark struct {
	Package    string `json:"package"`
	Name       string `json:"name"`
	Iterations int64  `json:"iterations"`
	// Metrics maps each reported unit to its value: "ns/op", "B/op",
	// "allocs/op", and any custom units the benchmark reported.
	Metrics map[string]float64 `json:"metrics"`
	// OpsPerSec is 1e9 / ns_per_op — the deliveries-, events- or
	// encodes-per-second view of the same measurement, so rate claims can
	// be read straight off the artifact.
	OpsPerSec float64 `json:"ops_per_sec,omitempty"`
}

// Snapshot is the whole document.
type Snapshot struct {
	PR         int         `json:"pr"`
	Goos       string      `json:"goos,omitempty"`
	Goarch     string      `json:"goarch,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

// defaultMatch selects the gated benchmark families: the wire codec, the
// radio medium delivery path, the event engine, one packet reassembled,
// one packet end to end, and the sharded core.
const defaultMatch = `^(AFFEncodeData|AFFDecodeData|Medium|ScheduleRun|EngineSteadyState|Reassemble80Byte|EndToEndPacket|Shard)`

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

func run(args []string, stdin io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("benchjson", flag.ContinueOnError)
	pr := fs.Int("pr", 0, "PR number stamped into the snapshot")
	out := fs.String("out", "", "output JSON path (required unless -compare)")
	compare := fs.Bool("compare", false, "compare two snapshots (old.json new.json) instead of parsing; non-zero exit on regression")
	threshold := fs.Float64("threshold", 20, "percent growth in ns/op that fails -compare")
	allocThreshold := fs.Float64("alloc-threshold", 0, "percent growth in allocs/op that fails -compare (0 = ratchet: any growth fails)")
	match := fs.String("match", defaultMatch, "regexp naming the benchmarks -compare gates")
	minIters := fs.Int64("min-iters", 10, "minimum iterations on both sides before ns/op is trusted in -compare")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *compare {
		if fs.NArg() != 2 {
			return fmt.Errorf("-compare wants exactly two snapshots: old.json new.json")
		}
		re, err := regexp.Compile(*match)
		if err != nil {
			return fmt.Errorf("-match: %w", err)
		}
		return runCompare(stdout, fs.Arg(0), fs.Arg(1), re, *threshold, *allocThreshold, *minIters)
	}
	if *out == "" {
		return fmt.Errorf("-out is required")
	}
	return runParse(stdin, stdout, *pr, *out)
}

func runParse(stdin io.Reader, stdout io.Writer, pr int, out string) error {
	snap := Snapshot{PR: pr, Benchmarks: []Benchmark{}}
	// seen dedupes repeated benchmarks by (package, name), keeping the
	// run with the most iterations.
	seen := map[string]int{}
	pkg := ""
	sc := bufio.NewScanner(stdin)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	w := bufio.NewWriter(stdout)
	defer w.Flush()
	for sc.Scan() {
		line := sc.Text()
		fmt.Fprintln(w, line)
		switch {
		case strings.HasPrefix(line, "pkg: "):
			pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg: "))
		case strings.HasPrefix(line, "goos: "):
			snap.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos: "))
		case strings.HasPrefix(line, "goarch: "):
			snap.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch: "))
		case strings.HasPrefix(line, "cpu: "):
			snap.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu: "))
		case strings.HasPrefix(line, "Benchmark"):
			b, ok := parseBenchLine(line, pkg)
			if !ok {
				continue
			}
			key := b.Package + " " + b.Name
			if i, dup := seen[key]; dup {
				if better(b, snap.Benchmarks[i]) {
					snap.Benchmarks[i] = b
				}
				continue
			}
			seen[key] = len(snap.Benchmarks)
			snap.Benchmarks = append(snap.Benchmarks, b)
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}

	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(out, append(data, '\n'), 0o644)
}

// better reports whether measurement b should replace measurement cur for
// the same benchmark: more iterations always wins; at equal iterations the
// lower ns/op wins, because steal-time noise on a shared machine only ever
// inflates a timing, never deflates it.
func better(b, cur Benchmark) bool {
	if b.Iterations != cur.Iterations {
		return b.Iterations > cur.Iterations
	}
	bn, bOK := b.Metrics["ns/op"]
	cn, cOK := cur.Metrics["ns/op"]
	return bOK && cOK && bn < cn
}

// parseBenchLine parses one `BenchmarkName-8  N  V unit  V unit ...` line.
// Lines that do not fit the shape (e.g. a benchmark's own log output) are
// skipped rather than treated as errors.
func parseBenchLine(line, pkg string) (Benchmark, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return Benchmark{}, false
	}
	name := strings.TrimPrefix(fields[0], "Benchmark")
	// Strip the -GOMAXPROCS suffix go test appends.
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Benchmark{}, false
	}
	b := Benchmark{Package: pkg, Name: name, Iterations: iters, Metrics: map[string]float64{}}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Benchmark{}, false
		}
		b.Metrics[fields[i+1]] = v
	}
	if len(b.Metrics) == 0 {
		return Benchmark{}, false
	}
	if ns := b.Metrics["ns/op"]; ns > 0 {
		b.OpsPerSec = 1e9 / ns
	}
	return b, true
}

func loadSnapshot(path string) (Snapshot, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return Snapshot{}, err
	}
	var s Snapshot
	if err := json.Unmarshal(raw, &s); err != nil {
		return Snapshot{}, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// runCompare gates new against old: every matched benchmark in old must
// still exist in new, and its gated metrics must not have grown past
// their thresholds — ns/op against threshold, allocs/op against
// allocThreshold (default 0, an exact-count ratchet). The comparison
// table goes to stdout either way; regressions come back as the error.
func runCompare(w io.Writer, oldPath, newPath string, match *regexp.Regexp, threshold, allocThreshold float64, minIters int64) error {
	oldSnap, err := loadSnapshot(oldPath)
	if err != nil {
		return err
	}
	newSnap, err := loadSnapshot(newPath)
	if err != nil {
		return err
	}
	newBy := make(map[string]Benchmark)
	for _, b := range newSnap.Benchmarks {
		newBy[b.Package+" "+b.Name] = b
	}
	var regressions []string
	matched := 0
	bw := bufio.NewWriter(w)
	defer bw.Flush()
	fmt.Fprintf(bw, "benchjson compare: %s (pr %d) -> %s (pr %d), ns/op threshold %g%%, allocs/op threshold %g%%\n",
		oldPath, oldSnap.PR, newPath, newSnap.PR, threshold, allocThreshold)
	for _, ob := range oldSnap.Benchmarks {
		if !match.MatchString(ob.Name) {
			continue
		}
		matched++
		key := ob.Package + " " + ob.Name
		nb, ok := newBy[key]
		if !ok {
			regressions = append(regressions, fmt.Sprintf("%s: gated benchmark missing from %s", key, newPath))
			continue
		}
		for _, metric := range []string{"ns/op", "allocs/op"} {
			ov, oOK := ob.Metrics[metric]
			nv, nOK := nb.Metrics[metric]
			if !oOK || !nOK {
				continue
			}
			if metric == "ns/op" && (ob.Iterations < minIters || nb.Iterations < minIters) {
				fmt.Fprintf(bw, "  %-55s %-9s skipped (iterations %d -> %d below %d)\n",
					key, metric, ob.Iterations, nb.Iterations, minIters)
				continue
			}
			limit := threshold
			if metric == "allocs/op" {
				limit = allocThreshold
			}
			growth := 0.0
			if ov > 0 {
				growth = 100 * (nv - ov) / ov
			} else if nv > 0 {
				growth = limit + 1 // zero -> nonzero is unbounded growth
			}
			verdict := "ok"
			if growth > limit {
				verdict = "REGRESSION"
				regressions = append(regressions, fmt.Sprintf("%s: %s %.4g -> %.4g (%+.1f%%, threshold %g%%)",
					key, metric, ov, nv, growth, limit))
			}
			fmt.Fprintf(bw, "  %-55s %-9s %12.4g -> %-12.4g %+7.1f%%  %s\n",
				key, metric, ov, nv, growth, verdict)
		}
	}
	if matched == 0 {
		return fmt.Errorf("no benchmarks in %s match %q — the gate is vacuous", oldPath, match)
	}
	if len(regressions) > 0 {
		return fmt.Errorf("%d perf regression(s):\n  %s", len(regressions), strings.Join(regressions, "\n  "))
	}
	fmt.Fprintf(bw, "  %d gated benchmarks within threshold\n", matched)
	return nil
}
