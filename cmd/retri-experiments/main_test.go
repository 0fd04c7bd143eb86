package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"retri/internal/experiment"
	"retri/internal/span"
)

func TestParseQuickRespectsExplicitFlags(t *testing.T) {
	// -quick alone applies the fast-pass defaults.
	o, err := parseArgs([]string{"-quick"})
	if err != nil {
		t.Fatal(err)
	}
	if o.trials != 3 || o.duration != 20*time.Second {
		t.Errorf("quick defaults = (%d, %v), want (3, 20s)", o.trials, o.duration)
	}
	// Explicit -trials and -duration must survive -quick in either flag
	// order.
	for _, args := range [][]string{
		{"-quick", "-trials", "7", "-duration", "45s"},
		{"-trials", "7", "-duration", "45s", "-quick"},
	} {
		o, err = parseArgs(args)
		if err != nil {
			t.Fatal(err)
		}
		if o.trials != 7 {
			t.Errorf("%v: trials = %d, want user's 7", args, o.trials)
		}
		if o.duration != 45*time.Second {
			t.Errorf("%v: duration = %v, want user's 45s", args, o.duration)
		}
	}
	// One explicit flag still lets quick shrink the other.
	o, err = parseArgs([]string{"-quick", "-trials", "7"})
	if err != nil {
		t.Fatal(err)
	}
	if o.trials != 7 || o.duration != 20*time.Second {
		t.Errorf("partial override = (%d, %v), want (7, 20s)", o.trials, o.duration)
	}
}

func TestParseFormatValidated(t *testing.T) {
	for _, ok := range []string{"table", "csv"} {
		if _, err := parseArgs([]string{"-format", ok}); err != nil {
			t.Errorf("-format %s rejected: %v", ok, err)
		}
	}
	_, err := parseArgs([]string{"-format", "cvs"})
	if err == nil {
		t.Fatal("typo'd -format cvs accepted")
	}
	for _, want := range []string{"cvs", "table", "csv"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("format error %q does not mention %q", err, want)
		}
	}
}

func TestParseParallel(t *testing.T) {
	o, err := parseArgs(nil)
	if err != nil {
		t.Fatal(err)
	}
	if o.parallel != 1 {
		t.Errorf("default parallel = %d, want sequential 1", o.parallel)
	}
	o, err = parseArgs([]string{"-parallel", "0"})
	if err != nil {
		t.Fatal(err)
	}
	if o.parallel != runtime.GOMAXPROCS(0) {
		t.Errorf("-parallel 0 resolved to %d, want GOMAXPROCS %d", o.parallel, runtime.GOMAXPROCS(0))
	}
	o, err = parseArgs([]string{"-parallel", "4"})
	if err != nil {
		t.Fatal(err)
	}
	if o.parallel != 4 {
		t.Errorf("-parallel 4 resolved to %d", o.parallel)
	}
	// A negative count is not "all CPUs": it is rejected.
	for _, args := range [][]string{{"-parallel", "-1"}, {"-figure", "4", "-parallel", "-3"}} {
		if _, err := parseArgs(args); err == nil || !strings.Contains(err.Error(), "-parallel") {
			t.Errorf("%v: err = %v, want a -parallel rejection", args, err)
		}
	}
}

// TestUsageListsEverySelection: the -figure and -ablation help must name
// every sweep in the table, so the lists cannot drift from what the CLI
// offers.
func TestUsageListsEverySelection(t *testing.T) {
	fs := newFlagSet(new(options))
	for _, s := range sweeps {
		usage := fs.Lookup(s.kind).Usage
		_, list, _ := strings.Cut(usage, ": ")
		words := strings.FieldsFunc(list, func(r rune) bool { return r == ',' || r == ' ' })
		if !slices.Contains(words, s.name) {
			t.Errorf("-%s usage %q omits %s", s.kind, usage, s.name)
		}
	}
	// The -trials help names, per kind, exactly the sweeps that read it:
	// "(figures 4, ... and massive; ablations window, ... and estimator)".
	usage := fs.Lookup("trials").Usage
	_, list, _ := strings.Cut(usage, "(")
	named := make(map[string]bool)
	for _, part := range strings.Split(strings.TrimSuffix(list, ")"), ";") {
		words := strings.FieldsFunc(part, func(r rune) bool { return r == ',' || r == ' ' })
		if len(words) == 0 {
			t.Fatalf("-trials usage %q has an empty list", usage)
		}
		kind := strings.TrimSuffix(words[0], "s")
		for _, w := range words[1:] {
			if w != "and" {
				named[kind+" "+w] = true
			}
		}
	}
	for _, s := range sweeps {
		key := s.kind + " " + s.name
		if named[key] != slices.Contains(s.flags, "trials") {
			t.Errorf("-trials usage %q: names %s = %v, but the sweep reads -trials = %v", usage, key, named[key], slices.Contains(s.flags, "trials"))
		}
		delete(named, key)
	}
	for key := range named {
		t.Errorf("-trials usage names %s, which is no sweep", key)
	}
}

// TestFillKeepsEachSweepsTrialsAndDuration pins the trial count and
// duration fill gives each sweep, with no flag, under -quick and with both
// flags set. Figure 4 and the sweeps built like it take the flag values
// (10 x 2m, or 3 x 20s under -quick). The others have sizes of their own:
// their config's (99 x 1h here) until a flag they read is set, and their
// entry's under -quick.
func TestFillKeepsEachSweepsTrialsAndDuration(t *testing.T) {
	const ownTrials, ownDuration = 99, time.Hour
	type got struct {
		trials   int
		duration time.Duration
	}
	flagged, own := got{10, 2 * time.Minute}, got{ownTrials, ownDuration}
	quickFlagged, set := got{3, 20 * time.Second}, got{7, 45 * time.Second}
	want := map[string][3]got{ // no flag, -quick, -trials 7 -duration 45s
		"figure-4":           {flagged, quickFlagged, set},
		"figure-scaling":     {own, {2, 20 * time.Second}, {}},
		"figure-strategies":  {flagged, quickFlagged, set},
		"figure-recovery":    {flagged, quickFlagged, set},
		"figure-dynamics":    {flagged, quickFlagged, set},
		"figure-chaos":       {flagged, quickFlagged, set},
		"figure-multihop":    {own, {1, 20 * time.Second}, set},
		"figure-massive":     {own, {1, 5 * time.Second}, set},
		"ablation-window":    {flagged, quickFlagged, set},
		"ablation-hidden":    {flagged, quickFlagged, set},
		"ablation-mac":       {{ownTrials, 2 * time.Minute}, {ownTrials, 20 * time.Second}, {}},
		"ablation-lengths":   {flagged, quickFlagged, set},
		"ablation-flood":     {own, {2, 20 * time.Second}, {}},
		"ablation-estimator": {flagged, quickFlagged, set},
		"ablation-lifetime":  {own, {ownTrials, 15 * time.Second}, {}},
		"ablation-churn":     {own, {ownTrials, time.Minute}, {}},
	}
	for _, s := range sweeps {
		name := s.kind + "-" + s.name
		if len(s.flags) == 0 {
			continue // the analytic figures run no trials
		}
		w, ok := want[name]
		if !ok {
			t.Errorf("%s: no expectation", name)
			continue
		}
		for i, extra := range [][]string{nil, {"-quick"}, {"-trials", "7", "-duration", "45s"}} {
			if i == 2 && !slices.Contains(s.flags, "trials") {
				continue
			}
			o, err := parseArgs(append([]string{"-" + s.kind, s.name, "-seed", "5", "-parallel", "3"}, extra...))
			if err != nil {
				t.Fatalf("%s %v: %v", name, extra, err)
			}
			r, trials := experiment.Run{Seed: 1, Duration: ownDuration}, ownTrials
			s.fill(o, new(collector), &r, &trials)
			if g := (got{trials, r.Duration}); g != w[i] {
				t.Errorf("%s %v: trials x duration = %d x %v, want %d x %v", name, extra, g.trials, g.duration, w[i].trials, w[i].duration)
			}
			if r.Seed != 5 || r.Parallelism != 3 {
				t.Errorf("%s %v: seed, parallelism = %d, %d, want the flags' 5, 3", name, extra, r.Seed, r.Parallelism)
			}
		}
	}
}

// stubResult is a canned sweep result whose audit gate returns err.
type stubResult struct{ err error }

func (stubResult) Render() string { return "stub table" }
func (stubResult) CSV() string    { return "stub,csv\n" }
func (r stubResult) Check() error { return r.err }

// TestRunFailsOnCheckAfterPrinting: a sweep whose result fails its Check
// still prints its table, and then run returns the check's error, so an
// audited violation is both visible and a non-zero exit.
func TestRunFailsOnCheckAfterPrinting(t *testing.T) {
	violation := errors.New("stub 1: oracle: 1 misdeliveries")
	defer func(old []sweep) { sweeps = old }(sweeps)
	sweeps = append(slices.Clip(sweeps), sweep{kind: "figure", name: "stub", title: "Stub",
		run: func(sweep, options, *collector) (result, error) { return stubResult{violation}, nil }})
	out, err := runCapture(t, "-figure", "stub")
	if !errors.Is(err, violation) {
		t.Errorf("run error = %v, want the check's %v", err, violation)
	}
	if out != "=== Stub ===\nstub table\n" {
		t.Errorf("stdout = %q, want the banner and table before the failure", out)
	}
}

func TestRunAnalyticFigures(t *testing.T) {
	for _, fig := range []string{"1", "2", "3"} {
		if err := run([]string{"-figure", fig}); err != nil {
			t.Errorf("figure %s: %v", fig, err)
		}
		if err := run([]string{"-figure", fig, "-format", "csv"}); err != nil {
			t.Errorf("figure %s csv: %v", fig, err)
		}
	}
}

func TestRunFigure4Tiny(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	if err := run([]string{"-figure", "4", "-trials", "1", "-duration", "5s"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunUnknownSelections(t *testing.T) {
	if err := run([]string{"-figure", "7"}); err == nil {
		t.Error("unknown figure accepted")
	}
	if err := run([]string{"-ablation", "nonsense"}); err == nil {
		t.Error("unknown ablation accepted")
	}
}

func TestRunBadFlag(t *testing.T) {
	if err := run([]string{"-bogus"}); err == nil {
		t.Error("bad flag accepted")
	}
}

func TestRunQuickAblation(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	if err := run([]string{"-ablation", "lengths", "-quick"}); err != nil {
		t.Fatal(err)
	}
}

// TestRunAblationCSV: satellite for the silent `-format csv` bug — every
// ablation (here, the fastest ones) must honor CSV instead of ignoring it.
func TestRunAblationCSV(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	if err := run([]string{"-ablation", "lengths", "-quick", "-format", "csv"}); err != nil {
		t.Fatal(err)
	}
}

// TestRunMetricsAndTraceOutputs drives a tiny figure-4 run with every
// observability flag and validates the side files: a JSONL trace, a
// manifest+metrics document, and both pprof profiles.
func TestRunMetricsAndTraceOutputs(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	dir := t.TempDir()
	metricsOut := filepath.Join(dir, "metrics.json")
	traceOut := filepath.Join(dir, "trace.jsonl")
	cpuOut := filepath.Join(dir, "cpu.pprof")
	memOut := filepath.Join(dir, "mem.pprof")
	args := []string{
		"-figure", "4", "-trials", "2", "-duration", "2s", "-parallel", "2",
		"-metrics-out", metricsOut, "-trace-out", traceOut,
		"-cpuprofile", cpuOut, "-memprofile", memOut,
	}
	if err := run(args); err != nil {
		t.Fatal(err)
	}

	// Trace: one JSON object per line, with the core fields.
	raw, err := os.ReadFile(traceOut)
	if err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(bytes.NewReader(raw))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lines := 0
	for sc.Scan() {
		lines++
		var ev struct {
			Kind string `json:"kind"`
			Node int    `json:"node"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("trace line %d is not JSON: %v", lines, err)
		}
		if ev.Kind == "" {
			t.Fatalf("trace line %d lacks a kind: %s", lines, sc.Text())
		}
	}
	if lines == 0 {
		t.Error("trace file is empty")
	}

	// Metrics document: manifest echoing the command line plus a snapshot.
	raw, err = os.ReadFile(metricsOut)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Manifest struct {
			Command     string   `json:"command"`
			Args        []string `json:"args"`
			Seed        uint64   `json:"seed"`
			GoVersion   string   `json:"go_version"`
			WallClockNS int64    `json:"wall_clock_ns"`
			Experiments []struct {
				Name        string `json:"name"`
				Trials      int    `json:"trials"`
				WallClockNS int64  `json:"wall_clock_ns"`
				Timings     []struct {
					Trial int   `json:"trial"`
					NS    int64 `json:"ns"`
				} `json:"trial_timings"`
			} `json:"experiments"`
		} `json:"manifest"`
		Metrics struct {
			Counters []struct {
				Name  string `json:"name"`
				Value int64  `json:"value"`
			} `json:"counters"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("metrics file is not JSON: %v", err)
	}
	if doc.Manifest.Command != "retri-experiments" {
		t.Errorf("manifest command = %q", doc.Manifest.Command)
	}
	if len(doc.Manifest.Args) != len(args) {
		t.Errorf("manifest args = %v, want the full command line", doc.Manifest.Args)
	}
	if doc.Manifest.GoVersion != runtime.Version() {
		t.Errorf("manifest go_version = %q", doc.Manifest.GoVersion)
	}
	if doc.Manifest.WallClockNS <= 0 {
		t.Error("manifest wall clock missing")
	}
	if len(doc.Manifest.Experiments) != 1 {
		t.Fatalf("experiments = %+v, want one figure-4 record", doc.Manifest.Experiments)
	}
	exp := doc.Manifest.Experiments[0]
	if exp.Name != "figure-4" {
		t.Errorf("experiment name = %q", exp.Name)
	}
	// 2 trials x 2 ID widths x 2 selectors in the default figure-4 sweep;
	// just require at least one timing per reported trial.
	if exp.Trials == 0 || len(exp.Timings) != exp.Trials {
		t.Errorf("trial timings = %d entries, manifest says %d trials", len(exp.Timings), exp.Trials)
	}
	for _, tt := range exp.Timings {
		if tt.NS <= 0 {
			t.Errorf("trial %d has non-positive wall clock %d", tt.Trial, tt.NS)
		}
	}
	found := false
	for _, c := range doc.Metrics.Counters {
		if c.Name == "sim_events_processed_total" && c.Value > 0 {
			found = true
		}
	}
	if !found {
		t.Error("snapshot lacks sim_events_processed_total")
	}

	// Profiles exist and are non-empty (pprof files are gzipped protobuf;
	// content is opaque here).
	for _, p := range []string{cpuOut, memOut} {
		st, err := os.Stat(p)
		if err != nil {
			t.Errorf("profile %s missing: %v", p, err)
			continue
		}
		if st.Size() == 0 {
			t.Errorf("profile %s is empty", p)
		}
	}
}

// captureStdout runs the CLI with the given arguments and returns its
// stdout bytes, failing the test on a run error.
func captureStdout(t *testing.T, args ...string) string {
	t.Helper()
	out, err := runCapture(t, args...)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// runCapture runs the CLI with the given arguments and returns its stdout
// bytes and run error.
func runCapture(t *testing.T, args ...string) (string, error) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	done := make(chan string)
	go func() {
		var buf bytes.Buffer
		_, _ = buf.ReadFrom(r)
		done <- buf.String()
	}()
	runErr := run(args)
	w.Close()
	os.Stdout = old
	return <-done, runErr
}

// TestRunStdoutIdenticalWithObservability is the CLI-level half of the
// zero-perturbation guarantee: stdout bytes must not change when every
// observability flag is on.
func TestRunStdoutIdenticalWithObservability(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	capture := func(extra ...string) string {
		t.Helper()
		return captureStdout(t, append([]string{"-figure", "4", "-trials", "1", "-duration", "2s"}, extra...)...)
	}
	dir := t.TempDir()
	plain := capture()
	observed := capture(
		"-metrics-out", filepath.Join(dir, "m.json"),
		"-trace-out", filepath.Join(dir, "t.jsonl"),
	)
	if plain != observed {
		t.Errorf("stdout changed under observability:\n--- plain ---\n%s--- observed ---\n%s", plain, observed)
	}
	if !strings.Contains(plain, "=== Figure 4 ===") {
		t.Errorf("unexpected baseline output:\n%s", plain)
	}
}

// TestRunSpanFlagsZeroPerturbation is the CLI-level guarantee for the
// span-tracing flags: on every figure that wires spans, stdout must stay
// byte-identical with `-span-out`/`-chrome-trace` on, sequentially and in
// parallel — and the parallel ledger must be byte-identical to the
// sequential one (capture-then-merge, end to end).
func TestRunSpanFlagsZeroPerturbation(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	bases := map[string][]string{
		"dynamics":   {"-figure", "dynamics", "-trials", "2", "-duration", "3s", "-scenarios", "churn", "-policies", "fixed,adaptive"},
		"strategies": {"-figure", "strategies", "-trials", "2", "-duration", "3s", "-strategies", "uniform,listening"},
		"recovery":   {"-figure", "recovery", "-trials", "2", "-duration", "3s", "-faults", "none,iid"},
	}
	for name, base := range bases {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			seqOut := filepath.Join(dir, "seq.jsonl")
			parOut := filepath.Join(dir, "par.jsonl")
			chromeOut := filepath.Join(dir, "trace.json")

			plain := captureStdout(t, base...)
			spanned := captureStdout(t, append(base, "-span-out", seqOut, "-chrome-trace", chromeOut)...)
			if plain != spanned {
				t.Errorf("stdout changed under -span-out:\n--- plain ---\n%s--- spanned ---\n%s", plain, spanned)
			}
			parallel := captureStdout(t, append(base, "-parallel", "4", "-span-out", parOut)...)
			if plain != parallel {
				t.Errorf("stdout changed under parallel -span-out:\n--- plain ---\n%s--- parallel ---\n%s", plain, parallel)
			}

			seqRaw, err := os.ReadFile(seqOut)
			if err != nil {
				t.Fatal(err)
			}
			parRaw, err := os.ReadFile(parOut)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(seqRaw, parRaw) {
				t.Error("parallel span ledger differs from sequential")
			}
			recs, _, err := span.ReadJSONL(bytes.NewReader(seqRaw))
			if err != nil {
				t.Fatalf("span ledger does not round-trip: %v", err)
			}
			if len(recs) == 0 {
				t.Fatal("span ledger is empty")
			}
			for i, r := range recs {
				if r.Outcome == "" || r.Trial == "" {
					t.Fatalf("span record %d lacks outcome/trial: %+v", i, r)
				}
			}

			chromeRaw, err := os.ReadFile(chromeOut)
			if err != nil {
				t.Fatal(err)
			}
			var chrome struct {
				DisplayTimeUnit string            `json:"displayTimeUnit"`
				TraceEvents     []json.RawMessage `json:"traceEvents"`
			}
			if err := json.Unmarshal(chromeRaw, &chrome); err != nil {
				t.Fatalf("chrome trace is not JSON: %v", err)
			}
			if chrome.DisplayTimeUnit != "ms" || len(chrome.TraceEvents) == 0 {
				t.Errorf("chrome trace malformed: unit=%q events=%d", chrome.DisplayTimeUnit, len(chrome.TraceEvents))
			}
		})
	}
}

// TestRunManifestSchemaParity: the run manifest must attribute engine
// accounting (and, when audited, the oracle report) to every sweep with
// one schema — strategies and recovery had been the odd ones out.
func TestRunManifestSchemaParity(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	figures := map[string][]string{
		"strategies": {"-figure", "strategies", "-strategies", "uniform", "-trials", "1", "-duration", "3s"},
		"recovery":   {"-figure", "recovery", "-faults", "iid", "-trials", "1", "-duration", "3s", "-oracle"},
		"dynamics":   {"-figure", "dynamics", "-scenarios", "churn", "-policies", "fixed", "-trials", "1", "-duration", "3s", "-oracle"},
	}
	for name, args := range figures {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			mOut := filepath.Join(dir, "m.json")
			sOut := filepath.Join(dir, "s.jsonl")
			captureStdout(t, append(args, "-metrics-out", mOut, "-span-out", sOut)...)
			raw, err := os.ReadFile(mOut)
			if err != nil {
				t.Fatal(err)
			}
			var doc struct {
				Manifest struct {
					TraceEventsDropped *int64 `json:"trace_events_dropped"`
					SpansTraced        int64  `json:"spans_traced"`
					Experiments        []struct {
						Name   string           `json:"name"`
						Sim    map[string]int64 `json:"sim"`
						Oracle map[string]int64 `json:"oracle"`
					} `json:"experiments"`
				} `json:"manifest"`
			}
			if err := json.Unmarshal(raw, &doc); err != nil {
				t.Fatalf("metrics file is not JSON: %v", err)
			}
			if doc.Manifest.TraceEventsDropped == nil {
				t.Error("manifest lacks trace_events_dropped")
			} else if *doc.Manifest.TraceEventsDropped != 0 {
				t.Errorf("trace_events_dropped = %d on an untraced run", *doc.Manifest.TraceEventsDropped)
			}
			if doc.Manifest.SpansTraced == 0 {
				t.Error("manifest spans_traced = 0 with -span-out set")
			}
			if len(doc.Manifest.Experiments) != 1 {
				t.Fatalf("experiments = %d records, want 1", len(doc.Manifest.Experiments))
			}
			exp := doc.Manifest.Experiments[0]
			if exp.Sim["sim_events_processed_total"] == 0 {
				t.Errorf("%s record lacks engine accounting: sim=%v", exp.Name, exp.Sim)
			}
			if exp.Oracle["oracle_tx_opened_total"] == 0 {
				t.Errorf("%s record lacks the oracle report: oracle=%v", exp.Name, exp.Oracle)
			}
		})
	}
}

func TestParseFaultAndARQFlags(t *testing.T) {
	o, err := parseArgs(nil)
	if err != nil {
		t.Fatal(err)
	}
	if o.faults != "all" || o.arqRetries != 8 {
		t.Errorf("defaults = (%q, %d), want (all, 8)", o.faults, o.arqRetries)
	}
	if _, err := parseArgs([]string{"-figure", "recovery", "-faults", "iid,ge+crash"}); err != nil {
		t.Errorf("valid fault list rejected: %v", err)
	}
	if _, err := parseArgs([]string{"-faults", "volcano"}); err == nil || !strings.Contains(err.Error(), "volcano") {
		t.Errorf("unknown fault model: err = %v", err)
	}
	if _, err := parseArgs([]string{"-arq-retries", "-1"}); err == nil {
		t.Error("negative retry budget accepted")
	}
	if _, err := parseArgs([]string{"-arq-rto", "0s"}); err == nil {
		t.Error("zero RTO accepted")
	}
	if _, err := parseArgs([]string{"-arq-rto", "2s", "-arq-max-rto", "1s"}); err == nil {
		t.Error("RTO above its cap accepted")
	}
}

func TestRunRecoveryTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	args := []string{"-figure", "recovery", "-trials", "1", "-duration", "4s", "-faults", "none,iid"}
	if err := run(args); err != nil {
		t.Fatal(err)
	}
	if err := run(append(args, "-format", "csv", "-parallel", "2")); err != nil {
		t.Fatal(err)
	}
}

func TestRunRecoveryScriptFile(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	path := filepath.Join(t.TempDir(), "sched.txt")
	if err := os.WriteFile(path, []byte("2s crash 1\n3s restart 1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	args := []string{"-figure", "recovery", "-trials", "1", "-duration", "6s",
		"-faults", "none", "-fault-script", path}
	if err := run(args); err != nil {
		t.Fatal(err)
	}
}

func TestRunFaultScriptErrors(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "nope.txt")
	err := run([]string{"-figure", "recovery", "-fault-script", missing})
	if err == nil {
		t.Fatal("missing fault script accepted")
	}
	if !strings.Contains(err.Error(), "nope.txt") {
		t.Errorf("error %q does not name the file", err)
	}

	malformed := filepath.Join(t.TempDir(), "bad.txt")
	if err := os.WriteFile(malformed, []byte("# header\n1s explode 3\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	err = run([]string{"-figure", "recovery", "-fault-script", malformed})
	if err == nil {
		t.Fatal("malformed fault script accepted")
	}
	for _, want := range []string{"bad.txt", "line 2", "explode"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q lacks %q", err, want)
		}
	}
}

// TestParseRejectsIgnoredTruthFlags: -oracle, -span-out and -chrome-trace
// fail fast when no selected figure attaches an oracle or span tracer,
// instead of exiting 0 with nothing audited or an empty ledger.
func TestParseRejectsIgnoredTruthFlags(t *testing.T) {
	cases := []struct {
		args []string
		ok   bool
	}{
		{[]string{"-figure", "4", "-span-out", "spans.jsonl"}, false},
		{[]string{"-figure", "all", "-oracle"}, false},
		{[]string{"-oracle"}, false},
		{[]string{"-ablation", "mac", "-chrome-trace", "spans.json"}, false},
		{[]string{"-figure", "massive", "-span-out", "spans.jsonl"}, false},
		{[]string{"-figure", "dynamics", "-oracle"}, true},
		{[]string{"-figure", "recovery", "-ablation", "window", "-oracle"}, true},
		{[]string{"-figure", "strategies", "-chrome-trace", "spans.json"}, true},
		{[]string{"-figure", "chaos", "-span-out", "spans.jsonl"}, true},
		{[]string{"-figure", "multihop", "-span-out", "spans.jsonl", "-chrome-trace", "spans.json"}, true},
		{[]string{"-figure", "4"}, true},
	}
	for _, tc := range cases {
		_, err := parseArgs(tc.args)
		if tc.ok && err != nil {
			t.Errorf("%v: rejected: %v", tc.args, err)
		}
		if !tc.ok && (err == nil || !strings.Contains(err.Error(), "has no effect")) {
			t.Errorf("%v: err = %v, want a no-effect rejection", tc.args, err)
		}
	}
}

// TestParseRejectsFlagsNoSelectedFigureReads: a per-figure flag must be
// read by at least one selected figure; a flag the selection ignores
// fails fast instead of exiting 0 with the flag silently dropped.
func TestParseRejectsFlagsNoSelectedFigureReads(t *testing.T) {
	cases := []struct {
		args []string
		ok   bool
	}{
		{[]string{"-figure", "dynamics", "-faults", "ge"}, false},
		{[]string{"-figure", "all", "-arms", "fixed"}, false},
		{[]string{"-arms", "fixed"}, false},
		{[]string{"-figure", "4", "-regions", "4"}, false},
		{[]string{"-figure", "massive", "-scenarios", "churn"}, false},
		{[]string{"-figure", "strategies", "-oracle"}, false},
		{[]string{"-figure", "multihop", "-soak", "5s"}, false},
		{[]string{"-ablation", "churn", "-nodes", "2000"}, false},
		{[]string{"-figure", "scaling", "-quick", "-duration", "5s"}, false},
		{[]string{"-ablation", "flood", "-quick", "-trials", "7"}, false},
		{[]string{"-ablation", "mac", "-quick", "-trials", "7"}, false},
		{[]string{"-figure", "1", "-trials", "5"}, false},
		{[]string{"-figure", "1", "-seed", "7", "-parallel", "2"}, false},
		{[]string{"-figure", "2", "-duration", "1m"}, false},
		{[]string{"-figure", "scaling", "-ablation", "mac", "-trials", "3"}, false},
		{[]string{"-ablation", "mac", "-quick", "-duration", "5s", "-seed", "2"}, true},
		{[]string{"-figure", "scaling", "-seed", "2", "-parallel", "2"}, true},
		{[]string{"-figure", "1", "-ablation", "window", "-trials", "2", "-duration", "5s"}, true},
		{[]string{"-quick", "-trials", "2", "-duration", "5s", "-seed", "3", "-parallel", "2"}, true},
		{[]string{"-figure", "recovery", "-faults", "ge", "-arq-retries", "3"}, true},
		{[]string{"-figure", "chaos", "-arq-rto", "100ms", "-chaos-profiles", "storm", "-soak", "5s"}, true},
		{[]string{"-figure", "massive", "-policies", "fixed", "-nodes", "2000"}, true},
		{[]string{"-figure", "multihop", "-arms", "fixed", "-regions", "2"}, true},
		{[]string{"-figure", "dynamics", "-scenarios", "churn", "-policies", "fixed"}, true},
		{[]string{"-figure", "strategies", "-strategies", "uniform"}, true},
	}
	for _, tc := range cases {
		_, err := parseArgs(tc.args)
		if tc.ok && err != nil {
			t.Errorf("%v: rejected: %v", tc.args, err)
		}
		if !tc.ok && (err == nil || !strings.Contains(err.Error(), "has no effect")) {
			t.Errorf("%v: err = %v, want a no-effect rejection", tc.args, err)
		}
	}
	// The rejection names every reader with its kind.
	_, err := parseArgs([]string{"-ablation", "mac", "-trials", "7"})
	if err == nil {
		t.Fatal("-ablation mac -trials 7 accepted")
	}
	for _, want := range []string{"-figure 4, ", "-figure massive, ", "-ablation window, ", "-ablation estimator"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %q", err, want)
		}
	}
}

func TestParseMultihopFlags(t *testing.T) {
	o, err := parseArgs(nil)
	if err != nil {
		t.Fatal(err)
	}
	if o.multihopArms != "all" || o.regions != 3 {
		t.Errorf("defaults = (%q, %d), want (all, 3)", o.multihopArms, o.regions)
	}
	if _, err := parseArgs([]string{"-figure", "multihop", "-arms", "fixed,dynaddr"}); err != nil {
		t.Errorf("valid arm list rejected: %v", err)
	}
	if _, err := parseArgs([]string{"-arms", "telepathic"}); err == nil || !strings.Contains(err.Error(), "telepathic") {
		t.Errorf("unknown arm: err = %v", err)
	}
	if _, err := parseArgs([]string{"-regions", "0"}); err == nil {
		t.Error("zero region grid accepted")
	}
	if _, err := parseArgs([]string{"-regions", "17"}); err == nil {
		t.Error("oversized region grid accepted")
	}
}

// TestParseRejectsNonPositiveTrialsAndDuration: a zero or negative
// -duration runs trials with no simulated time (figure 4 then claims a 0
// collision rate at every width) and -trials 0 leaves every mean NaN, so
// both are rejected for any figure or ablation, -quick included.
func TestParseRejectsNonPositiveTrialsAndDuration(t *testing.T) {
	for _, args := range [][]string{
		{"-figure", "4", "-duration", "0"},
		{"-figure", "4", "-duration", "-1s"},
		{"-figure", "scaling", "-duration", "0s"},
		{"-ablation", "window", "-trials", "0"},
		{"-figure", "4", "-trials", "-3"},
		{"-quick", "-trials", "0"},
	} {
		if _, err := parseArgs(args); err == nil {
			t.Errorf("%v accepted", args)
		}
	}
	if _, err := parseArgs([]string{"-figure", "4", "-trials", "1", "-duration", "1ns"}); err != nil {
		t.Errorf("smallest valid -trials and -duration rejected: %v", err)
	}
}

func TestRunMultihopTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	args := []string{"-figure", "multihop", "-trials", "1", "-duration", "4s", "-regions", "2"}
	if err := run(args); err != nil {
		t.Fatal(err)
	}
	if err := run(append(args, "-format", "csv", "-parallel", "2", "-arms", "fixed,dynaddr")); err != nil {
		t.Fatal(err)
	}
}
