package bench

// Metric describes one reported number. The end-to-end catalog is the
// authority for names, units, directions and -compare bounds;
// BENCHMARK.json at the repository root declares the Gated subset, and a
// test keeps the two in step.
type Metric struct {
	Name string
	Unit string
	// Better is "lower" or "higher".
	Better string
	// Bound is how far the median may worsen before -compare flags it: a
	// share of the baseline median, or an absolute amount when Abs is set.
	// Zero with Abs flags any worsening.
	Bound float64
	Abs   bool
	// Timing marks metrics measured per repeat, which vary run to run;
	// the others are pure functions of the seed and must repeat exactly.
	Timing bool
	// On lists the workloads that define the metric; empty means all.
	On []string
	// Gated marks the metrics BENCHMARK.json declares: defined on every
	// workload and never zero.
	Gated bool
}

// definedOn reports whether the metric exists on workload w.
func (m Metric) definedOn(w string) bool {
	if len(m.On) == 0 {
		return true
	}
	for _, o := range m.On {
		if o == w {
			return true
		}
	}
	return false
}

// Workload names.
const (
	wFig4     = "fig4-saturated"
	wMultihop = "multihop-flood"
	wChaos    = "chaos-arq"
	wMassive  = "massive-shard"
)

// endToEnd is every end-to-end metric, in print order.
var endToEnd = []Metric{
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.20, Timing: true, Gated: true},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Timing: true, Gated: true},
	{Name: "allocs_m", Unit: "Mallocs", Better: "lower", Bound: 0.03, Timing: true, Gated: true},
	{Name: "alloc_mb", Unit: "MB", Better: "lower", Bound: 0.03, Timing: true, Gated: true},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.08, Timing: true, Gated: true},
	{Name: "delivery_ratio", Unit: "ratio", Better: "higher", Bound: 0.005, Abs: true},
	{Name: "goodput", Unit: "ratio", Better: "higher", Bound: 0.005, Abs: true, On: []string{wMultihop}},
	{Name: "width_gap_bits", Unit: "bits", Better: "lower", Bound: 0.05, Abs: true, On: []string{wMultihop, wMassive}},
	{Name: "eq4_error", Unit: "rate", Better: "lower", Bound: 0.005, Abs: true, On: []string{wFig4}},
	{Name: "failed_frac", Unit: "ratio", Better: "lower", Abs: true},
}

// LayerMetric is one per-layer number from the traced run. It carries no
// bound; Moves and MovesOn record, before any measurement, which
// end-to-end metric a change to the layer should move and on which
// workload.
type LayerMetric struct {
	Name    string
	Unit    string
	Better  string
	Source  string // span, replay, count, sampled or runtime/metrics
	Moves   string
	MovesOn string
}

// perLayer is every per-layer metric, in print order. Layer names are the
// repository's module names under internal/.
var perLayer = []LayerMetric{
	// fig4: decorated trials (span) and their replay.
	{"frame.decode_ns", "ns", "lower", "replay", "wall_s", wFig4},
	{"frame.decode_allocs", "allocs", "lower", "replay", "allocs_m", wFig4},
	{"aff.ingest_ns", "ns", "lower", "replay", "wall_s", wFig4},
	{"aff.ingest_allocs", "allocs", "lower", "replay", "allocs_m", wFig4},
	{"aff.fragment_ns", "ns", "lower", "replay", "wall_s", wFig4},
	{"aff.fragment_allocs", "allocs", "lower", "replay", "allocs_m", wFig4},
	{"node.send_ns", "ns", "lower", "span", "wall_s", wFig4},
	{"node.send_allocs", "allocs", "lower", "span", "alloc_mb", wFig4},
	{"core.next_ns", "ns", "lower", "span", "wall_s", wFig4},
	{"core.observe_ns", "ns", "lower", "span", "wall_s", wFig4},
	{"density.observe_ns", "ns", "lower", "span", "wall_s", wFig4},
	{"radio.connected_ns", "ns", "lower", "span", "wall_s", wFig4},
	{"sim.run_ms", "ms", "lower", "span", "wall_s", wFig4},
	{"sim.ns_per_event", "ns", "lower", "span", "wall_s", wFig4},
	// Counts from the sweep's metrics registry and result structs.
	{"radio.frames_sent", "count", "lower", "count", "wall_s", wFig4},
	{"radio.fanout", "ratio", "lower", "count", "wall_s", wFig4},
	{"radio.collided_frac", "ratio", "lower", "count", "delivery_ratio", wFig4},
	{"sim.events", "count", "lower", "count", "wall_s", wChaos},
	{"sim.timers_cancelled", "count", "lower", "count", "wall_s", wChaos},
	{"sim.heap_high_water", "count", "lower", "count", "peak_rss_mb", wChaos},
	{"aff.timeouts", "count", "lower", "count", "delivery_ratio", wFig4},
	{"aff.delivered_per_fragment", "ratio", "higher", "count", "delivery_ratio", wChaos},
	{"aff.cap_evictions", "count", "lower", "count", "delivery_ratio", wChaos},
	{"flood.forwarded", "count", "lower", "count", "wall_s", wMultihop},
	{"flood.duplicate_frac", "ratio", "lower", "count", "wall_s", wMultihop},
	{"flood.congested", "count", "lower", "count", "delivery_ratio", wMultihop},
	{"oracle.audited", "count", "higher", "count", "delivery_ratio", wMultihop},
	{"oracle.misdeliveries", "count", "lower", "count", "failed_frac", wChaos},
	{"arq.retx_ratio", "ratio", "lower", "count", "delivery_ratio", wChaos},
	{"arq.shed", "count", "lower", "count", "failed_frac", wChaos},
	{"adapt.clamps", "count", "lower", "count", "delivery_ratio", wChaos},
	{"dynaddr.control_bits", "bits", "lower", "count", "goodput", wMultihop},
	// massive: decorated shard trials.
	{"shard.advance_ms", "ms", "lower", "span", "wall_s", wMassive},
	{"shard.emit_ms", "ms", "lower", "span", "wall_s", wMassive},
	{"shard.route_ms", "ms", "lower", "span", "wall_s", wMassive},
	{"shard.absorb_ms", "ms", "lower", "span", "wall_s", wMassive},
	{"shard.settle_ms", "ms", "lower", "span", "wall_s", wMassive},
	{"shard.barrier_ms", "ms", "lower", "span", "wall_s", wMassive},
	{"shard.straggler_ratio", "ratio", "lower", "span", "wall_s", wMassive},
	{"shard.ns_per_event", "ns", "lower", "span", "wall_s", wMassive},
	{"shard.windows", "count", "lower", "count", "setup_s", wMassive},
	{"shard.records", "count", "lower", "count", "peak_rss_mb", wMassive},
	// Whole-sweep numbers.
	{"runner.trials", "count", "lower", "count", "wall_s", wChaos},
	{"runner.trial_ms_p50", "ms", "lower", "span", "wall_s", wChaos},
	{"runner.trial_ms_p90", "ms", "lower", "span", "wall_s", wChaos},
	{"experiment.outside_trials_pct", "%", "lower", "span", "wall_s", wMassive},
	{"runtime.gc_cpu_pct", "%", "lower", "runtime/metrics", "wall_s", wFig4},
	{"bench.trace_overhead_pct", "%", "lower", "span", "wall_s", wFig4},
	// Sampled self time: each CPU-profile sample is charged to its
	// innermost retri/internal/<module> frame; samples with none go to
	// runtime, modules not listed here to other.
	{"bitio.self_pct", "%", "lower", "sampled", "wall_s", wFig4},
	{"frame.self_pct", "%", "lower", "sampled", "wall_s", wFig4},
	{"checksum.self_pct", "%", "lower", "sampled", "wall_s", wFig4},
	{"aff.self_pct", "%", "lower", "sampled", "wall_s", wFig4},
	{"node.self_pct", "%", "lower", "sampled", "wall_s", wFig4},
	{"radio.self_pct", "%", "lower", "sampled", "wall_s", wFig4},
	{"core.self_pct", "%", "lower", "sampled", "wall_s", wFig4},
	{"density.self_pct", "%", "lower", "sampled", "wall_s", wFig4},
	{"workload.self_pct", "%", "lower", "sampled", "wall_s", wFig4},
	{"xrand.self_pct", "%", "lower", "sampled", "wall_s", wFig4},
	{"sim.self_pct", "%", "lower", "sampled", "wall_s", wChaos},
	{"flood.self_pct", "%", "lower", "sampled", "wall_s", wMultihop},
	{"oracle.self_pct", "%", "lower", "sampled", "wall_s", wMultihop},
	{"mobility.self_pct", "%", "lower", "sampled", "wall_s", wMultihop},
	{"dynaddr.self_pct", "%", "lower", "sampled", "wall_s", wMultihop},
	{"adapt.self_pct", "%", "lower", "sampled", "wall_s", wMultihop},
	{"arq.self_pct", "%", "lower", "sampled", "wall_s", wChaos},
	{"faults.self_pct", "%", "lower", "sampled", "wall_s", wChaos},
	{"chaos.self_pct", "%", "lower", "sampled", "wall_s", wChaos},
	{"shard.self_pct", "%", "lower", "sampled", "wall_s", wMassive},
	{"runner.self_pct", "%", "lower", "sampled", "wall_s", wMassive},
	{"experiment.self_pct", "%", "lower", "sampled", "wall_s", wMultihop},
	{"metrics.self_pct", "%", "lower", "sampled", "wall_s", wFig4},
	{"runtime.self_pct", "%", "lower", "sampled", "wall_s", wFig4},
	{"other.self_pct", "%", "lower", "sampled", "wall_s", wFig4},
}

// metricByName finds an end-to-end metric.
func metricByName(name string) (Metric, bool) {
	for _, m := range endToEnd {
		if m.Name == name {
			return m, true
		}
	}
	return Metric{}, false
}
