package bench

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"time"
)

// Results is the results JSON one benchmark run writes and -compare reads.
type Results struct {
	Seed       uint64           `json:"seed"`
	GoVersion  string           `json:"go_version"`
	GOMAXPROCS int              `json:"gomaxprocs"`
	Workloads  []WorkloadResult `json:"workloads"`
}

// WorkloadResult is one workload's measurements. An end-to-end metric the
// workload does not define is absent from EndToEnd.
type WorkloadResult struct {
	Name     string   `json:"name"`
	Correct  bool     `json:"correct"`
	Problems []string `json:"problems,omitempty"`
	// Digest is the SHA-256 of the sweep's Render()+CSV(), identical in
	// every repeat and in the traced run.
	Digest string `json:"digest,omitempty"`
	// Attempted counts audited cells across every measured child; Failed
	// those that failed a gate the program guarantees.
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	EndToEnd  map[string]Summary `json:"end_to_end,omitempty"`
	PerLayer  map[string]float64 `json:"per_layer,omitempty"`
	// TracedChildren is how many traced children the per-layer values
	// come from.
	TracedChildren int `json:"traced_children,omitempty"`
	// HostFactor is hostFactor of the run's median probe time; wall_s and
	// setup_s are raw times multiplied by it (probe.go).
	HostFactor float64 `json:"host_factor,omitempty"`
}

// Summary is a metric's samples with their median and quartiles.
type Summary struct {
	Unit    string    `json:"unit"`
	Median  float64   `json:"median"`
	Q1      float64   `json:"q1"`
	Q3      float64   `json:"q3"`
	N       int       `json:"n"`
	Samples []float64 `json:"samples"`
}

func summarize(unit string, xs []float64) Summary {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q1, q3 := quartiles(s)
	return Summary{Unit: unit, Median: median(s), Q1: q1, Q3: q3, N: len(s), Samples: xs}
}

// median of sorted xs.
func median(s []float64) float64 {
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles of sorted xs by the exclusive method of Python's
// statistics.quantiles(xs, n=4), the spread rule BENCHMARK.json's bounds
// are checked with.
func quartiles(s []float64) (q1, q3 float64) {
	n := len(s)
	if n < 2 {
		m := median(s)
		return m, m
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// plan says what to measure for each workload.
type plan struct {
	seed uint64
	// budget, when positive, extends each phase with further children while
	// the next one fits; zero runs exactly the counts below.
	budget time.Duration
	// setups set-up children, then repeats untraced children (a minimum
	// when budget is set), then traced children (at least one).
	setups, repeats  int
	untraced, traced bool
	tiny             bool
}

// measure runs one workload's children and folds their reports.
func measure(w *workload, p plan) WorkloadResult {
	res := WorkloadResult{Name: w.name}
	problems := map[string]bool{}
	problem := func(s string) {
		if !problems[s] {
			problems[s] = true
			res.Problems = append(res.Problems, s)
		}
	}
	var digests []string
	var probes []float64
	samples := map[string][]float64{}
	absorb := func(rep childReport) {
		res.Attempted += rep.Cells
		res.Failed += rep.HardCells
		digests = append(digests, rep.Digest)
		for _, s := range rep.Problems {
			problem(s)
		}
	}
	spec := func(mode string) childSpec {
		return childSpec{Workload: w.name, Seed: p.seed, Mode: mode, Tiny: p.tiny}
	}
	// more reports whether a phase that started at start, needs at least
	// least children and whose last child took last should run child n.
	more := func(n, least int, start time.Time, last time.Duration) bool {
		return n < least || (p.budget > 0 && time.Since(start)+last <= p.budget)
	}

	if p.untraced {
		for i := 0; i < p.setups; i++ {
			rep, err := spawn(spec(modeSetup))
			if err != nil {
				problem(err.Error())
				break
			}
			samples["setup_s"] = append(samples["setup_s"], rep.WallS)
			probes = append(probes, rep.ProbeS)
		}
		start, last := time.Now(), time.Duration(0)
		for n := 0; more(n, p.repeats, start, last); n++ {
			t := time.Now()
			rep, err := spawn(spec(modeRun))
			last = time.Since(t)
			if err != nil {
				problem(err.Error())
				break
			}
			absorb(rep)
			probes = append(probes, rep.ProbeS)
			samples["wall_s"] = append(samples["wall_s"], rep.WallS)
			samples["allocs_m"] = append(samples["allocs_m"], float64(rep.Mallocs)/1e6)
			samples["alloc_mb"] = append(samples["alloc_mb"], float64(rep.AllocBytes)/1e6)
			samples["peak_rss_mb"] = append(samples["peak_rss_mb"], rep.MaxRSS/1e6)
			for k, v := range rep.Quality {
				samples[k] = append(samples[k], v)
			}
		}
		res.EndToEnd = map[string]Summary{}
		sort.Float64s(probes)
		if mp := median(probes); mp > 0 {
			res.HostFactor = hostFactor(mp)
		}
		for _, m := range endToEnd {
			xs := samples[m.Name]
			if (m.Name == "wall_s" || m.Name == "setup_s") && res.HostFactor > 0 {
				xs = scaled(xs, res.HostFactor)
			}
			if !m.definedOn(w.name) || len(xs) == 0 {
				continue
			}
			if !m.Timing {
				for _, x := range xs {
					if x != xs[0] {
						problem(fmt.Sprintf("%s differs across repeats of one seed", m.Name))
					}
				}
			}
			res.EndToEnd[m.Name] = summarize(m.Unit, xs)
		}
	}

	if p.traced {
		start := time.Now()
		base := samples["wall_s"]
		if len(base) == 0 {
			// The tracing overhead needs an untraced wall time to compare.
			rep, err := spawn(spec(modeRun))
			if err != nil {
				problem(err.Error())
			} else {
				absorb(rep)
				base = []float64{rep.WallS}
			}
		}
		var traces []childReport
		last := time.Duration(0)
		for n := 0; more(n, 1, start, last); n++ {
			t := time.Now()
			rep, err := spawn(spec(modeTrace))
			last = time.Since(t)
			if err != nil {
				problem(err.Error())
				break
			}
			absorb(rep)
			traces = append(traces, rep)
		}
		if len(traces) > 0 && len(base) > 0 {
			res.PerLayer = foldLayers(traces, base)
			res.TracedChildren = len(traces)
		}
	}

	for _, d := range digests {
		if d != digests[0] {
			problem("sweep output differs between runs of one seed")
		}
	}
	if len(digests) > 0 {
		res.Digest = digests[0]
	}
	if res.Failed > 0 {
		problem(fmt.Sprintf("%d of %d cells failed an audit gate", res.Failed, res.Attempted))
	}
	res.Correct = len(res.Problems) == 0
	return res
}

func scaled(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}

// foldLayers combines traced children: the median of each per-layer value,
// self time from the pooled profile samples, and the tracing overhead
// against the untraced wall times base.
func foldLayers(traces []childReport, base []float64) map[string]float64 {
	out := map[string]float64{}
	pooled := map[string]int64{}
	var total int64
	var walls []float64
	for _, t := range traces {
		walls = append(walls, t.WallS)
		for k, v := range t.Profile {
			pooled[k] += v
			total += v
		}
	}
	known := map[string]bool{}
	for _, m := range perLayer {
		if layer, ok := strings.CutSuffix(m.Name, ".self_pct"); ok {
			known[layer] = true
		}
	}
	bucket := map[string]int64{}
	for layer, n := range pooled {
		if !known[layer] {
			layer = "other"
		}
		bucket[layer] += n
	}
	for _, m := range perLayer {
		if layer, ok := strings.CutSuffix(m.Name, ".self_pct"); ok {
			out[m.Name] = 100 * ratio(bucket[layer], total)
			continue
		}
		var xs []float64
		for _, t := range traces {
			xs = append(xs, t.Layers[m.Name])
		}
		sort.Float64s(xs)
		out[m.Name] = median(xs)
	}
	sort.Float64s(walls)
	b := append([]float64(nil), base...)
	sort.Float64s(b)
	if mb := median(b); mb > 0 {
		out["bench.trace_overhead_pct"] = 100 * (median(walls)/mb - 1)
	}
	for k, v := range out {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			out[k] = 0
		}
	}
	return out
}

// printWorkload writes one workload's tables.
func printWorkload(w io.Writer, r WorkloadResult) {
	status := "correct"
	if !r.Correct {
		status = "INCORRECT"
	}
	digest := r.Digest
	if len(digest) > 16 {
		digest = digest[:16]
	}
	fmt.Fprintf(w, "== %s: %s; %d cells audited, %d failed a gate; output digest %s\n",
		r.Name, status, r.Attempted, r.Failed, digest)
	if r.HostFactor > 0 {
		fmt.Fprintf(w, "   host factor %.4f: wall_s and setup_s are scaled to the reference host (probe.go)\n", r.HostFactor)
	}
	for _, p := range r.Problems {
		fmt.Fprintf(w, "   problem: %s\n", p)
	}
	if r.EndToEnd != nil {
		fmt.Fprintf(w, "%-30s %-8s %14s %14s %14s %4s\n", "end-to-end", "unit", "median", "q1", "q3", "n")
		for _, m := range endToEnd {
			s, ok := r.EndToEnd[m.Name]
			if !ok {
				fmt.Fprintf(w, "%-30s %-8s %14s\n", m.Name, m.Unit, "n/a")
				continue
			}
			fmt.Fprintf(w, "%-30s %-8s %14.6g %14.6g %14.6g %4d\n", m.Name, m.Unit, s.Median, s.Q1, s.Q3, s.N)
		}
	}
	if r.PerLayer != nil {
		fmt.Fprintf(w, "%-30s %-8s %14s   %-8s should move (on)\n",
			fmt.Sprintf("per-layer (%d traced)", r.TracedChildren), "unit", "value", "source")
		for _, m := range perLayer {
			fmt.Fprintf(w, "%-30s %-8s %14.6g   %-8s %s (%s)\n", m.Name, m.Unit, r.PerLayer[m.Name], m.Source, m.Moves, m.MovesOn)
		}
	}
	fmt.Fprintln(w)
}

// summaryLine is the one-line JSON summary a single-workload run prints
// last.
type summaryLine struct {
	Correct   bool                     `json:"correct"`
	Attempted int                      `json:"attempted"`
	Failed    int                      `json:"failed"`
	Metrics   map[string]summaryMetric `json:"metrics"`
}

type summaryMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// newSummaryLine reports the gated end-to-end medians and every per-layer
// value the run measured.
func newSummaryLine(r WorkloadResult) summaryLine {
	d := summaryLine{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]summaryMetric{}}
	for _, m := range endToEnd {
		if s, ok := r.EndToEnd[m.Name]; ok && m.Gated {
			d.Metrics[m.Name] = summaryMetric{s.Median, m.Unit}
		}
	}
	if r.PerLayer != nil {
		for _, m := range perLayer {
			d.Metrics[m.Name] = summaryMetric{r.PerLayer[m.Name], m.Unit}
		}
	}
	return d
}
