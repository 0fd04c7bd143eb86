package bench

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"retri/internal/experiment"
	retrimetrics "retri/internal/metrics"
)

// Every measured sweep runs in a fresh child process: the benchmark binary
// re-executed with childEnv holding a JSON childSpec. A fresh process per
// repeat gives each one a cold heap, its own peak RSS and no leftover GC
// state from the previous repeat.
const childEnv = "RETRI_BENCH_CHILD"

// Child modes.
const (
	modeRun   = "run"   // one untraced sweep
	modeSetup = "setup" // the sweep with its horizon cut to set-up only
	modeTrace = "trace" // the traced sweep plus decorated trials
)

type childSpec struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Mode     string `json:"mode"`
	Tiny     bool   `json:"tiny,omitempty"`
}

// childReport is what a child prints as its last stdout line.
type childReport struct {
	WallS      float64            `json:"wall_s"`
	ProbeS     float64            `json:"probe_s,omitempty"` // probe.go
	Mallocs    uint64             `json:"mallocs"`
	AllocBytes uint64             `json:"alloc_bytes"`
	Digest     string             `json:"digest"`
	Quality    map[string]float64 `json:"quality,omitempty"`
	Cells      int                `json:"cells"`
	HardCells  int                `json:"hard_cells"`
	Problems   []string           `json:"problems,omitempty"`
	// Layers and Profile are set by traced children: per-layer values and
	// CPU-profile sample counts per layer.
	Layers  map[string]float64 `json:"layers,omitempty"`
	Profile map[string]int64   `json:"profile,omitempty"`
	// MaxRSS is filled in by the parent from the child's rusage, in bytes.
	MaxRSS float64 `json:"-"`
}

// childMain runs the child half when childEnv is set; ok is false
// otherwise.
func childMain(stdout io.Writer) (code int, ok bool) {
	raw := os.Getenv(childEnv)
	if raw == "" {
		return 0, false
	}
	var spec childSpec
	if err := json.Unmarshal([]byte(raw), &spec); err != nil {
		fmt.Fprintln(os.Stderr, "retri-bench child: bad spec:", err)
		return 2, true
	}
	rep, err := runChildSpec(spec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "retri-bench child %s/%s: %v\n", spec.Workload, spec.Mode, err)
		return 1, true
	}
	if err := json.NewEncoder(stdout).Encode(rep); err != nil {
		fmt.Fprintln(os.Stderr, "retri-bench child:", err)
		return 1, true
	}
	return 0, true
}

func runChildSpec(spec childSpec) (childReport, error) {
	w, ok := workloadByName(spec.Workload)
	if !ok {
		return childReport{}, fmt.Errorf("unknown workload %q", spec.Workload)
	}
	sz := size{tiny: spec.Tiny, setup: spec.Mode == modeSetup}
	switch spec.Mode {
	case modeRun, modeSetup:
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		out, err := w.sweep(spec.Seed, sz, experiment.RunHooks{}, nil)
		wall := time.Since(start)
		runtime.ReadMemStats(&after)
		if err != nil {
			return childReport{}, err
		}
		rep := report(out)
		rep.WallS = wall.Seconds()
		rep.Mallocs = after.Mallocs - before.Mallocs
		rep.AllocBytes = after.TotalAlloc - before.TotalAlloc
		runtime.GC() // keep the sweep's collector off the probe
		rep.ProbeS = probe()
		return rep, nil
	case modeTrace:
		return traceChild(w, spec.Seed, sz)
	default:
		return childReport{}, fmt.Errorf("unknown mode %q", spec.Mode)
	}
}

func report(out sweepOutput) childReport {
	sum := sha256.Sum256([]byte(out.text))
	return childReport{
		Digest:    hex.EncodeToString(sum[:]),
		Quality:   out.quality,
		Cells:     out.cells,
		HardCells: out.hard,
		Problems:  out.problems,
	}
}

// cpuSeconds reads the runtime's GC and busy CPU-time estimates.
func cpuSeconds() (gc, busy float64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64() - s[2].Value.Float64()
}

// traceChild runs the workload's sweep under a CPU profile, with a
// metrics registry and per-trial timing hooks, then its decorated trials.
func traceChild(w *workload, seed uint64, sz size) (childReport, error) {
	var obs *experiment.Obs
	if w.name != wMassive { // the massive sweep has no Obs
		obs = &experiment.Obs{Metrics: retrimetrics.NewRegistry()}
	}
	var trialMs []float64
	hooks := experiment.RunHooks{OnTrialTime: func(_ int, d time.Duration) {
		trialMs = append(trialMs, float64(d.Nanoseconds())/1e6)
	}}
	var prof bytes.Buffer
	gc0, busy0 := cpuSeconds()
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return childReport{}, err
	}
	start := time.Now()
	out, err := w.sweep(seed, sz, hooks, obs)
	wall := time.Since(start)
	pprof.StopCPUProfile()
	gc1, busy1 := cpuSeconds()
	if err != nil {
		return childReport{}, err
	}
	samples, err := profileSamples(prof.Bytes())
	if err != nil {
		return childReport{}, err
	}
	rep := report(out)
	rep.WallS = wall.Seconds()
	rep.Profile = samples
	rep.Layers = map[string]float64{}
	for k, v := range out.counts {
		rep.Layers[k] = v
	}
	var inTrials float64
	for _, ms := range trialMs {
		inTrials += ms
	}
	sort.Float64s(trialMs)
	rep.Layers["runner.trials"] = float64(len(trialMs))
	rep.Layers["runner.trial_ms_p50"] = percentile(trialMs, 50)
	// A p90 needs ten samples beyond it.
	if len(trialMs) >= 100 {
		rep.Layers["runner.trial_ms_p90"] = percentile(trialMs, 90)
	}
	rep.Layers["experiment.outside_trials_pct"] = 100 * (1 - inTrials/(wall.Seconds()*1e3))
	if busy1 > busy0 {
		rep.Layers["runtime.gc_cpu_pct"] = 100 * (gc1 - gc0) / (busy1 - busy0)
	}
	if w.decorate != nil {
		if err := w.decorate(seed, sz, rep.Layers); err != nil {
			return childReport{}, err
		}
	}
	return rep, nil
}

// percentile is the nearest-rank percentile of sorted xs (0 when empty).
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// spawn runs one child to completion and returns its report.
func spawn(spec childSpec) (childReport, error) {
	raw, err := json.Marshal(spec)
	if err != nil {
		return childReport{}, err
	}
	exe, err := os.Executable()
	if err != nil {
		return childReport{}, err
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(),
		childEnv+"="+string(raw),
		"GOMAXPROCS="+strconv.Itoa(runtime.NumCPU()),
		"GOGC=100",
	)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return childReport{}, fmt.Errorf("%s %s child: %w", spec.Workload, spec.Mode, err)
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var rep childReport
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
		return childReport{}, fmt.Errorf("%s %s child: unreadable report: %w", spec.Workload, spec.Mode, err)
	}
	rep.MaxRSS = maxRSSBytes(cmd.ProcessState)
	return rep, nil
}
