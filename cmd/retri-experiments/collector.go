package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"retri/internal/experiment"
	"retri/internal/metrics"
	"retri/internal/span"
	"retri/internal/trace"
)

// trialTiming is one trial's wall-clock cost in the run manifest. Trial
// indexes arrive in completion order under parallelism; the manifest
// records wall-clock reality, not simulation output, so it is the one
// artifact that legitimately differs between runs.
type trialTiming struct {
	Trial int   `json:"trial"`
	NS    int64 `json:"ns"`
}

// experimentRecord is one experiment's entry in the run manifest. Sim and
// Oracle attribute the merged snapshot's engine accounting and conformance
// audit back to the experiment that produced them: each is the delta of
// the matching counter family (summed across labels) between the record's
// begin and end, so every sweep — figures and ablations alike — reports
// the same schema instead of only the sweeps that happened to publish.
type experimentRecord struct {
	Name string `json:"name"`
	// Trials and Run are what the sweep ran, as fill resolved them from
	// the flags, -quick and the sweep's own sizes: the trials of each of
	// its cells, and its run configuration. The analytic figures run no
	// trials and record neither; mac, lifetime and churn have no trial
	// count.
	Trials      int              `json:"trials,omitempty"`
	Run         *runRecord       `json:"run,omitempty"`
	WallClockNS int64            `json:"wall_clock_ns"`
	Sim         map[string]int64 `json:"sim,omitempty"`
	Oracle      map[string]int64 `json:"oracle,omitempty"`
	Timings     []trialTiming    `json:"trial_timings,omitempty"`

	started   time.Time
	startSnap metrics.Snapshot
}

// runRecord is a sweep's experiment.Run in the manifest.
type runRecord struct {
	Seed     uint64 `json:"seed"`
	Duration string `json:"duration"`
	Parallel int    `json:"parallel"`
}

// counterDiff sums cur's counters with the given name prefix across labels
// and subtracts prev's, keeping the names that moved. Nil when nothing did.
func counterDiff(prev, cur metrics.Snapshot, prefix string) map[string]int64 {
	out := make(map[string]int64)
	for _, c := range cur.Counters {
		if strings.HasPrefix(c.Name, prefix) {
			out[c.Name] += c.Value
		}
	}
	for _, c := range prev.Counters {
		if strings.HasPrefix(c.Name, prefix) {
			out[c.Name] -= c.Value
		}
	}
	for name, v := range out {
		if v == 0 {
			delete(out, name)
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// manifest reproduces the run: full command line, the flags given, what
// each sweep ran, and where the wall-clock went.
type manifest struct {
	Command  string   `json:"command"`
	Args     []string `json:"args"`
	Figure   string   `json:"figure,omitempty"`
	Ablation string   `json:"ablation,omitempty"`
	// Seed, Trials, Duration and Parallel are the flags as given, after
	// -quick. A sweep may not read them or may run sizes of its own:
	// each experiment record says what its sweep ran.
	Seed        uint64 `json:"seed"`
	Trials      int    `json:"trials"`
	Duration    string `json:"duration"`
	Parallel    int    `json:"parallel"`
	Quick       bool   `json:"quick"`
	Format      string `json:"format"`
	GoVersion   string `json:"go_version"`
	StartedAt   string `json:"started_at"`
	WallClockNS int64  `json:"wall_clock_ns"`
	// TraceEventsDropped counts events the per-trial trace buffers shed
	// across the whole run; zero certifies the -trace-out stream and the
	// merged metrics are complete. Always present so consumers need not
	// distinguish "absent" from "none dropped".
	TraceEventsDropped int64               `json:"trace_events_dropped"`
	SpansTraced        int64               `json:"spans_traced,omitempty"`
	Experiments        []*experimentRecord `json:"experiments"`
}

// metricsDocument is the -metrics-out file: the manifest beside the merged
// metrics snapshot.
type metricsDocument struct {
	Manifest manifest         `json:"manifest"`
	Metrics  metrics.Snapshot `json:"metrics"`
}

// collector owns the CLI's observability state: the merged metrics
// registry, the streaming trace writer, the run manifest, profiling, and
// progress display. Everything it produces goes to side files or stderr —
// stdout stays byte-identical to a run without it.
type collector struct {
	opts     options
	registry *metrics.Registry
	tracer   trace.Tracer
	spans    *span.Ledger
	shared   *experiment.Obs

	traceFile *os.File
	traceBuf  *bufio.Writer
	cpuFile   *os.File

	man           manifest
	cur           *experimentRecord
	started       time.Time
	progressShown bool
}

// newCollector opens the output files and starts profiling per the parsed
// options. A collector with no observability flags set is inert.
func newCollector(o options, args []string) (*collector, error) {
	c := &collector{
		opts:    o,
		started: time.Now(),
		man: manifest{
			Command:   "retri-experiments",
			Args:      args,
			Figure:    o.figure,
			Ablation:  o.ablation,
			Seed:      o.seed,
			Trials:    o.trials,
			Duration:  o.duration.String(),
			Parallel:  o.parallel,
			Quick:     o.quick,
			Format:    o.format,
			GoVersion: runtime.Version(),
			StartedAt: time.Now().UTC().Format(time.RFC3339),
		},
	}
	if o.metricsOut != "" {
		c.registry = metrics.NewRegistry()
	}
	if o.spanOut != "" || o.chromeTrace != "" {
		c.spans = span.NewLedger()
	}
	if o.traceOut != "" {
		f, err := os.Create(o.traceOut)
		if err != nil {
			return nil, fmt.Errorf("-trace-out: %w", err)
		}
		c.traceFile = f
		c.traceBuf = bufio.NewWriter(f)
		c.tracer = trace.NewJSONWriter(c.traceBuf)
	}
	if o.cpuprofile != "" {
		f, err := os.Create(o.cpuprofile)
		if err != nil {
			c.abandonFiles()
			return nil, fmt.Errorf("-cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			c.abandonFiles()
			return nil, fmt.Errorf("-cpuprofile: %w", err)
		}
		c.cpuFile = f
	}
	if c.registry != nil || c.tracer != nil || c.spans != nil {
		c.shared = &experiment.Obs{Metrics: c.registry, Trace: c.tracer, Spans: c.spans}
	}
	return c, nil
}

// obs returns the experiment observability config, nil when no
// observability flag was given so the experiment layer stays on its
// zero-cost path. Every experiment in the run shares the one Obs, so
// run-wide accumulators (the span ledger, the dropped-event tally) see
// the whole run rather than the last figure to ask.
func (c *collector) obs() *experiment.Obs {
	return c.shared
}

// hooks returns the runner callbacks: progress display when -progress,
// per-trial manifest timings when -metrics-out. Zero hooks otherwise, so
// the runner does not even read the clock.
func (c *collector) hooks() experiment.RunHooks {
	var h experiment.RunHooks
	if c.opts.progress {
		h.OnProgress = func(completed, total int) {
			name := ""
			if c.cur != nil {
				name = c.cur.Name
			}
			fmt.Fprintf(os.Stderr, "\r%s: %d/%d trials", name, completed, total)
			c.progressShown = true
		}
	}
	if c.opts.metricsOut != "" {
		h.OnTrialTime = func(trial int, elapsed time.Duration) {
			if c.cur != nil {
				c.cur.Timings = append(c.cur.Timings, trialTiming{Trial: trial, NS: elapsed.Nanoseconds()})
			}
		}
	}
	return h
}

// ran records on the open manifest record what its sweep runs: fill's
// resolved trial count (0 for a config without one) and run.
func (c *collector) ran(r experiment.Run, trials int) {
	if c.cur == nil {
		return
	}
	c.cur.Trials = trials
	c.cur.Run = &runRecord{Seed: r.Seed, Duration: r.Duration.String(), Parallel: r.Parallelism}
}

// begin opens a manifest record for the named experiment; end closes it,
// attributing the engine and oracle counter movement in between.
func (c *collector) begin(name string) {
	c.cur = &experimentRecord{Name: name, started: time.Now()}
	c.progressShown = false
	if c.registry != nil {
		c.cur.startSnap = c.registry.Snapshot()
	}
	c.man.Experiments = append(c.man.Experiments, c.cur)
}

func (c *collector) end() {
	if c.cur == nil {
		return
	}
	c.cur.WallClockNS = time.Since(c.cur.started).Nanoseconds()
	if c.registry != nil {
		endSnap := c.registry.Snapshot()
		c.cur.Sim = counterDiff(c.cur.startSnap, endSnap, "sim_")
		c.cur.Oracle = counterDiff(c.cur.startSnap, endSnap, "oracle_")
		c.cur.startSnap = metrics.Snapshot{}
	}
	if c.progressShown {
		fmt.Fprintln(os.Stderr)
		c.progressShown = false
	}
	c.cur = nil
}

// close flushes every output the collector owns: the trace stream, the
// metrics document (manifest + merged snapshot), and the pprof profiles.
func (c *collector) close() error {
	var firstErr error
	keep := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if c.cpuFile != nil {
		pprof.StopCPUProfile()
		keep(c.cpuFile.Close())
	}
	if c.traceBuf != nil {
		keep(c.traceBuf.Flush())
		keep(c.traceFile.Close())
	}
	if c.spans != nil {
		if c.opts.spanOut != "" {
			keep(writeFileWith(c.opts.spanOut, "-span-out", c.spans.WriteJSONL))
		}
		if c.opts.chromeTrace != "" {
			keep(writeFileWith(c.opts.chromeTrace, "-chrome-trace", func(w io.Writer) error {
				return span.WriteChrome(w, c.spans.Records(), c.spans.WidthChanges())
			}))
		}
	}
	if c.registry != nil {
		c.man.WallClockNS = time.Since(c.started).Nanoseconds()
		c.man.TraceEventsDropped = c.shared.TraceDropped()
		if c.spans != nil {
			c.man.SpansTraced = c.spans.Report().Spans
		}
		doc := metricsDocument{Manifest: c.man, Metrics: c.registry.Snapshot()}
		raw, err := json.MarshalIndent(doc, "", "  ")
		keep(err)
		if err == nil {
			keep(os.WriteFile(c.opts.metricsOut, append(raw, '\n'), 0o644))
		}
	}
	if c.opts.memprofile != "" {
		f, err := os.Create(c.opts.memprofile)
		keep(err)
		if err == nil {
			runtime.GC()
			keep(pprof.WriteHeapProfile(f))
			keep(f.Close())
		}
	}
	return firstErr
}

// writeFileWith creates path and streams fn's output through a buffered
// writer, labeling any error with the flag that asked for the file.
func writeFileWith(path, flagName string, fn func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("%s: %w", flagName, err)
	}
	w := bufio.NewWriter(f)
	err = fn(w)
	if ferr := w.Flush(); err == nil {
		err = ferr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("%s: %w", flagName, err)
	}
	return nil
}

// abandonFiles closes files opened so far when construction fails midway.
func (c *collector) abandonFiles() {
	if c.traceFile != nil {
		c.traceFile.Close()
	}
}
