package bench

import (
	"fmt"
	"math"
	"time"

	"retri/internal/experiment"
	"retri/internal/metrics"
)

// size selects a workload's config: tiny shrinks it for the smoke test,
// setup cuts the simulated horizon so only world construction remains.
type size struct {
	tiny, setup bool
}

// sweepOutput is what one sweep yields to the benchmark.
type sweepOutput struct {
	// text is Render()+CSV(), the input of the determinism digest.
	text string
	// quality holds the deterministic end-to-end metrics the workload
	// defines (left empty for set-up sweeps, which deliver nothing).
	quality map[string]float64
	// cells counts the sweep's audited cells; failed those failing any
	// audit (the failed_frac numerator); hard those failing a gate the
	// program guarantees, which excludes the chaos sweep's known
	// checksum-escape misdeliveries (see README.md).
	cells, failed, hard int
	// problems lists violated sanity checks; any makes the run incorrect.
	problems []string
	// counts holds per-layer counts read from the result structs and,
	// when the sweep ran with an Obs, from its metrics registry.
	counts map[string]float64
}

// workload is one benchmark input.
type workload struct {
	name string
	why  string
	// sweep runs the workload's sweep with the given hooks and
	// observability (both zero outside the traced run).
	sweep func(seed uint64, sz size, hooks experiment.RunHooks, obs *experiment.Obs) (sweepOutput, error)
	// decorate, when set, runs the traced child's decorated trials and
	// adds their span and replay metrics to layers.
	decorate func(seed uint64, sz size, layers map[string]float64) error
}

// workloads lists the benchmark's inputs in run order. Each is the
// CLI's own sweep at a size where one run of it takes a few seconds on
// two cores, so a measured run holds several repeats.
var workloads = []*workload{
	{
		name:     wFig4,
		why:      "the paper's 5-sender 80-byte experiment: per-frame codec, medium fan-out and reassembly dominate; no relay, oracle, ARQ or shard code runs",
		sweep:    runFig4,
		decorate: decorateFig4,
	},
	{
		name:  wMultihop,
		why:   "the same stack through the TTL-3 flood relay and the always-on oracle, whose map scans take most of the CPU",
		sweep: runMultihop,
	},
	{
		name:  wChaos,
		why:   "light load under compound faults: ARQ timers, fresh-id retransmissions, checksum rejects, cap evictions and soak audits",
		sweep: runChaos,
	},
	{
		name:     wMassive,
		why:      "100k nodes on the region-sharded core with T held fixed: bypasses sim, radio, node, aff and frame entirely",
		sweep:    runMassive,
		decorate: decorateMassive,
	},
}

func workloadByName(name string) (*workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

func fig4Config(seed uint64, sz size) experiment.Figure4Config {
	cfg := experiment.DefaultFigure4Config()
	cfg.Seed = seed
	cfg.Trials = 2
	cfg.Parallelism = 1
	if sz.tiny {
		cfg.Trials = 1
		cfg.IDBits = []int{4, 6}
		cfg.Duration = 2 * time.Second
	}
	if sz.setup {
		cfg.Duration = time.Millisecond
	}
	return cfg
}

func runFig4(seed uint64, sz size, hooks experiment.RunHooks, obs *experiment.Obs) (sweepOutput, error) {
	cfg := fig4Config(seed, sz)
	cfg.Hooks, cfg.Obs = hooks, obs
	res, err := experiment.Figure4(cfg)
	if err != nil {
		return sweepOutput{}, err
	}
	out := sweepOutput{text: res.Render() + res.CSV()}
	for _, sel := range cfg.Selectors {
		for _, p := range res.Measured[sel].Points() {
			out.cells++
			// A collision rate of 1 means the AFF receiver delivered
			// nothing the ground truth delivered.
			if p.Y.Mean >= 1 {
				out.failed++
				out.hard++
			}
		}
	}
	if obs != nil {
		snap := obs.Metrics.Snapshot()
		out.counts = registryCounts(snap)
		out.counts["aff.timeouts"] = float64(counterSum(snap, "aff_timeouts_total"))
		out.counts["aff.delivered_per_fragment"] = ratio(counterSum(snap, "aff_delivered_total"), counterSum(snap, "aff_fragments_in_total"))
	}
	if sz.setup {
		return out, nil
	}
	var eq4 float64
	uniform := res.Measured[experiment.SelUniform]
	for _, m := range res.Model {
		s, ok := uniform.At(float64(m.H))
		if !ok {
			return sweepOutput{}, fmt.Errorf("figure 4: no uniform point at %d bits", m.H)
		}
		eq4 += math.Abs(s.Mean - m.E)
	}
	eq4 /= float64(len(res.Model))
	out.quality = map[string]float64{
		"delivery_ratio": ratio(res.AFFDelivered, res.TruthDelivered),
		"eq4_error":      eq4,
		"failed_frac":    float64(out.failed) / float64(out.cells),
	}
	if res.TruthDelivered <= 0 || res.AFFDelivered <= 0 || res.AFFDelivered > res.TruthDelivered {
		out.problems = append(out.problems, fmt.Sprintf("figure 4: AFF delivered %d of %d ground-truth packets", res.AFFDelivered, res.TruthDelivered))
	}
	// Section 5.1's claim: measured uniform collision rates track Eq. 4.
	if !sz.tiny && eq4 > 0.05 {
		out.problems = append(out.problems, fmt.Sprintf("figure 4: uniform collision rate strays %.4f from Eq. 4 on average", eq4))
	}
	return out, nil
}

func multihopConfig(seed uint64, sz size) experiment.MultihopConfig {
	cfg := experiment.DefaultMultihopConfig()
	cfg.Seed = seed
	// Many short trials: per-seed variation of a flooded field averages
	// out over trials, not over trial length.
	cfg.Trials = 8
	cfg.Duration = 5 * time.Second
	cfg.Parallelism = 1
	if sz.tiny {
		cfg.Trials = 1
		cfg.Duration = 3 * time.Second
	}
	if sz.setup {
		cfg.Duration = time.Millisecond
		cfg.SampleInterval = time.Millisecond
	}
	return cfg
}

func runMultihop(seed uint64, sz size, hooks experiment.RunHooks, obs *experiment.Obs) (sweepOutput, error) {
	cfg := multihopConfig(seed, sz)
	cfg.Hooks, cfg.Obs = hooks, obs
	res, err := experiment.Multihop(cfg)
	if err != nil {
		return sweepOutput{}, err
	}
	out := sweepOutput{text: res.Render() + res.CSV()}
	var offered, delivered, controlBits int64
	var goodput, gap float64
	var audited, fragsDelivered, misdelivered int64
	var forwarded, suppressed, expired, congested int64
	for _, r := range res.Rows {
		out.cells++
		bad := r.Offered > 0 && r.Delivered == 0
		if r.Arm != experiment.MultihopDynaddr {
			bad = bad || r.Oracle == nil || r.Oracle.Check() != nil
		}
		if bad {
			out.failed++
			out.hard++
		}
		offered += r.Offered
		delivered += r.Delivered
		goodput += r.Goodput.Mean / float64(len(res.Rows))
		if r.Arm == experiment.MultihopAdaptive {
			gap = r.Gap.Mean
		}
		controlBits += r.Alloc.ControlBits
		if r.Oracle != nil {
			audited += r.Oracle.PacketsAudited
			fragsDelivered += r.Oracle.FragmentsDelivered
			misdelivered += r.Oracle.Misdeliveries
		}
		forwarded += r.Relay.Forwarded
		suppressed += r.Relay.Suppressed
		expired += r.Relay.Expired
		congested += r.Relay.Congested
	}
	if obs != nil {
		out.counts = registryCounts(obs.Metrics.Snapshot())
		out.counts["flood.forwarded"] = float64(forwarded)
		out.counts["flood.duplicate_frac"] = ratio(suppressed, forwarded+suppressed+expired+congested)
		out.counts["flood.congested"] = float64(congested)
		out.counts["oracle.audited"] = float64(audited)
		out.counts["oracle.misdeliveries"] = float64(misdelivered)
		out.counts["aff.delivered_per_fragment"] = ratio(audited, fragsDelivered)
		out.counts["dynaddr.control_bits"] = float64(controlBits)
	}
	if sz.setup {
		return out, nil
	}
	out.quality = map[string]float64{
		"delivery_ratio": ratio(delivered, offered),
		"goodput":        goodput,
		"width_gap_bits": gap,
		"failed_frac":    float64(out.failed) / float64(out.cells),
	}
	if delivered <= 0 || delivered > offered || !(goodput > 0 && goodput < 1) {
		out.problems = append(out.problems, fmt.Sprintf("multihop: delivered %d of %d offered, goodput %.4f", delivered, offered, goodput))
	}
	return out, nil
}

func chaosConfig(seed uint64, sz size) experiment.ChaosConfig {
	cfg := experiment.DefaultChaosConfig()
	cfg.Seed = seed
	cfg.Trials = 10
	cfg.CheckpointEvery = 5 * time.Second
	cfg.Parallelism = 1
	if sz.tiny {
		cfg.Trials = 1
		cfg.Duration = 10 * time.Second
	}
	if sz.setup {
		cfg.Duration = time.Millisecond
		cfg.CheckpointEvery = time.Millisecond
	}
	return cfg
}

func runChaos(seed uint64, sz size, hooks experiment.RunHooks, obs *experiment.Obs) (sweepOutput, error) {
	cfg := chaosConfig(seed, sz)
	cfg.Hooks, cfg.Obs = hooks, obs
	res, err := experiment.Chaos(cfg)
	if err != nil {
		return sweepOutput{}, err
	}
	out := sweepOutput{text: res.Render() + res.CSV()}
	var offered, delivered, shed, evictions, clamps int64
	var audited, fragsDelivered, misdelivered int64
	for _, r := range res.Rows {
		out.cells++
		starved := r.Offered > 0 && r.Delivered == 0
		if r.Oracle == nil {
			out.failed++
			out.hard++
			continue
		}
		o := r.Oracle
		if starved || o.Check() != nil || r.SoakViolations > 0 {
			out.failed++
		}
		// Misdeliveries under bit-flip corruption are checksum escapes:
		// counted by failed_frac, not a broken gate. Conservation and
		// freshness never depend on the checksum.
		if starved || o.ConservationViolations > 0 || o.FreshnessViolations > 0 {
			out.hard++
		}
		offered += r.Offered
		delivered += r.Delivered
		shed += r.BudgetShed
		evictions += r.CapEvictions
		clamps += r.Overloads
		audited += o.PacketsAudited
		fragsDelivered += o.FragmentsDelivered
		misdelivered += o.Misdeliveries
	}
	if obs != nil {
		snap := obs.Metrics.Snapshot()
		out.counts = registryCounts(snap)
		out.counts["arq.retx_ratio"] = ratio(counterSum(snap, "arq_retransmits_total"), counterSum(snap, "arq_data_sent_total"))
		out.counts["arq.shed"] = float64(shed)
		out.counts["aff.cap_evictions"] = float64(evictions)
		out.counts["adapt.clamps"] = float64(clamps)
		out.counts["oracle.audited"] = float64(audited)
		out.counts["oracle.misdeliveries"] = float64(misdelivered)
		out.counts["aff.delivered_per_fragment"] = ratio(audited, fragsDelivered)
	}
	if sz.setup {
		return out, nil
	}
	out.quality = map[string]float64{
		"delivery_ratio": ratio(delivered, offered),
		"failed_frac":    float64(out.failed) / float64(out.cells),
	}
	if delivered <= 0 || delivered > offered {
		out.problems = append(out.problems, fmt.Sprintf("chaos: delivered %d of %d offered", delivered, offered))
	}
	return out, nil
}

func massiveConfig(seed uint64, sz size) experiment.MassiveConfig {
	cfg := experiment.DefaultMassiveConfig()
	cfg.Seed = seed
	cfg.Populations = []int{100_000}
	cfg.Duration = 5 * time.Second
	cfg.Parallelism = 2
	if sz.tiny {
		cfg.Populations = []int{2_000}
		cfg.Duration = 500 * time.Millisecond
	}
	if sz.setup {
		// One lookahead window: the world is built, nothing settles.
		cfg.Duration = cfg.FrameAir
	}
	return cfg
}

func runMassive(seed uint64, sz size, hooks experiment.RunHooks, _ *experiment.Obs) (sweepOutput, error) {
	cfg := massiveConfig(seed, sz)
	cfg.Hooks = hooks
	res, err := experiment.Massive(cfg)
	if err != nil {
		return sweepOutput{}, err
	}
	out := sweepOutput{text: res.Render() + res.CSV(), counts: map[string]float64{}}
	var truth, delivered int64
	var gap float64
	for _, r := range res.Rows {
		c := r.Counters
		out.cells++
		// MassiveResult.Check's audit, per cell, plus starvation.
		if c.Misdeliveries > 0 || c.FreshnessViolations > 0 || (c.TruthPairs > 0 && c.Delivered == 0) {
			out.failed++
			out.hard++
		}
		truth += c.TruthPairs
		delivered += c.Delivered
		if r.Policy == experiment.WidthAdaptiveTurnover {
			gap = c.MeanGap()
		}
		out.counts["shard.windows"] += float64(r.Windows)
		out.counts["shard.records"] += float64(r.Exchanged)
	}
	if sz.setup {
		return out, nil
	}
	out.quality = map[string]float64{
		"delivery_ratio": ratio(delivered, truth),
		"width_gap_bits": gap,
		"failed_frac":    float64(out.failed) / float64(out.cells),
	}
	if delivered <= 0 || delivered > truth {
		out.problems = append(out.problems, fmt.Sprintf("massive: delivered %d of %d ground-truth pairs", delivered, truth))
	}
	return out, nil
}

// registryCounts reads the radio and event-loop counts every legacy-stack
// sweep records when it runs with an Obs registry.
func registryCounts(snap metrics.Snapshot) map[string]float64 {
	kind := func(k string) int64 { return counterLabel(snap, "radio_events_total", "kind="+k) }
	sent := kind("sent")
	receptions := kind("delivered") + kind("collided") + kind("half-duplex") + kind("random-loss") + kind("not-heard")
	return map[string]float64{
		"radio.frames_sent":    float64(sent),
		"radio.fanout":         ratio(receptions, sent),
		"radio.collided_frac":  ratio(kind("collided"), receptions),
		"sim.events":           float64(counterSum(snap, "sim_events_processed_total")),
		"sim.timers_cancelled": float64(counterSum(snap, "sim_timers_cancelled_total")),
		"sim.heap_high_water":  gaugeMax(snap, "sim_heap_high_water"),
	}
}

func counterSum(snap metrics.Snapshot, name string) int64 {
	var n int64
	for _, c := range snap.Counters {
		if c.Name == name {
			n += c.Value
		}
	}
	return n
}

func counterLabel(snap metrics.Snapshot, name, label string) int64 {
	for _, c := range snap.Counters {
		if c.Name == name && c.Label == label {
			return c.Value
		}
	}
	return 0
}

func gaugeMax(snap metrics.Snapshot, name string) float64 {
	var m float64
	for _, g := range snap.Gauges {
		if g.Name == name && g.Value > m {
			m = g.Value
		}
	}
	return m
}

// ratio is num/den, or 0 when den is 0.
func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}
