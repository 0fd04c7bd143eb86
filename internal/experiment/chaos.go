package experiment

import (
	"encoding/csv"
	"fmt"
	"strconv"
	"strings"
	"time"

	"retri/internal/adapt"
	"retri/internal/arq"
	"retri/internal/chaos"
	"retri/internal/faults"
	"retri/internal/metrics"
	"retri/internal/mobility"
	"retri/internal/node"
	"retri/internal/oracle"
	"retri/internal/radio"
	"retri/internal/sim"
	"retri/internal/stats"
	"retri/internal/xrand"
)

// ChaosConfig parameterizes the compound-fault experiment: senders stream
// periodic packets at one central sink on a unit-disk radio while a chaos
// profile layers mobility, churn, burst loss, corruption, crashes and
// link flaps on top, and the graceful-degradation paths — the reassembly
// memory cap, loss-aware ARQ shedding and the adaptive controller's
// overload clamp — are measured on delivery, time-to-recover and
// resource occupancy. The omniscient oracle audits every cell: no
// compound fault may ever produce a misdelivery, a conservation breach
// or a stale identifier, only honest loss.
type ChaosConfig struct {
	// Seed roots all randomness; trials use derived streams.
	Seed uint64
	// Senders stream packets at the sink (node 0); they are nodes 1..N.
	Senders int
	// PacketSize is the application payload in bytes.
	PacketSize int
	// Interval separates one sender's packets (plus deterministic jitter).
	Interval time.Duration
	// Duration bounds each trial; the profile's onset fraction resolves
	// against it.
	Duration time.Duration
	// Trials per (profile, policy, arq) row.
	Trials int
	// Profiles are the chaos intensity levels swept.
	Profiles []chaos.Profile
	// Policies are the width arms compared (default fixed vs
	// adaptive-turnover — the turnover estimator is the one built for
	// fast transaction death, exactly what chaos produces).
	Policies []WidthPolicyKind
	// Baseline also runs every row without ARQ.
	Baseline bool
	// ARQ tunes the recovery layer, including the loss-aware degradation
	// knobs; Reliable/Ack are set per row.
	ARQ arq.Config
	// FixedBits is the fixed arm's identifier width; MinBits/MaxBits
	// clamp the adaptive arm (MaxBits is also its pool width).
	FixedBits        int
	MinBits, MaxBits int
	// Area is the deployment region; the sink sits at its center.
	Area mobility.Area
	// Range is the unit-disk radio range.
	Range float64
	// MaxPartials caps every node's concurrent partial packets
	// (aff.Config.MaxPartials); zero disables the cap.
	MaxPartials int
	// Overload is the adaptive controller's saturation clamp threshold
	// (adapt.Config.Overload); zero disables the clamp.
	Overload float64
	// ReassemblyTimeout bounds partial-packet state.
	ReassemblyTimeout time.Duration
	// CheckpointEvery, when positive, audits the oracle's safety
	// invariants at this period during the run (the -soak mode) instead
	// of only at the end, so a long horizon cannot hide a transient
	// violation behind later counters.
	CheckpointEvery time.Duration
	// Parallelism, Obs and Hooks behave exactly as in Figure4Config.
	Parallelism int
	Obs         *Obs
	Hooks       RunHooks
}

// DefaultChaosConfig is an 8-sender deployment with every degradation
// path armed: a 32-partial reassembly cap, loss-aware ARQ shedding and
// the overload clamp at four times the sender population.
func DefaultChaosConfig() ChaosConfig {
	return ChaosConfig{
		Seed:       1,
		Senders:    8,
		PacketSize: 48,
		// ~35 ms of airtime per instrumented 48-byte packet at 40 kbit/s:
		// a 2 s interval keeps the 8-sender offered load near 15% of the
		// channel, so losses come from the fault profiles, not saturation.
		Interval: 2 * time.Second,
		Duration: 2 * time.Minute,
		Trials:   5,
		Profiles: chaos.Profiles(),
		Policies: []WidthPolicyKind{WidthFixed, WidthAdaptiveTurnover},
		Baseline: true,
		ARQ: arq.Config{
			RTO:         250 * time.Millisecond,
			MaxRTO:      8 * time.Second,
			RetryBudget: 8,
			LossAware:   true,
		},
		FixedBits: 10,
		MinBits:   2,
		MaxBits:   16,
		// Every point of the area is inside the sink's radio range (the
		// 40x40 region's far corner is ~28 m from the central sink), so
		// the calm control is never starved by roaming alone. Sender pairs
		// can still drift out of mutual range — hidden terminals remain —
		// and the fault profiles do the rest.
		Area:              mobility.Area{W: 40, H: 40},
		Range:             30,
		MaxPartials:       32,
		Overload:          32,
		ReassemblyTimeout: 250 * time.Millisecond,
	}
}

// Validate rejects configurations the trial loop cannot honor.
func (cfg ChaosConfig) Validate() error {
	if cfg.Senders < 1 || cfg.Trials < 1 || len(cfg.Profiles) == 0 || len(cfg.Policies) == 0 {
		return fmt.Errorf("experiment: degenerate chaos config (senders=%d trials=%d profiles=%d policies=%d)",
			cfg.Senders, cfg.Trials, len(cfg.Profiles), len(cfg.Policies))
	}
	if cfg.Interval <= 0 || cfg.Duration <= 0 {
		return fmt.Errorf("experiment: chaos needs positive interval and duration, got %v/%v", cfg.Interval, cfg.Duration)
	}
	if cfg.PacketSize < 1 {
		return fmt.Errorf("experiment: chaos packet size %d must be positive", cfg.PacketSize)
	}
	if err := validateWidthField("chaos", cfg.FixedBits, cfg.MinBits, cfg.MaxBits, cfg.Area, cfg.Range); err != nil {
		return err
	}
	if cfg.MaxPartials < 0 {
		return fmt.Errorf("experiment: negative reassembly cap %d", cfg.MaxPartials)
	}
	if cfg.Overload < 0 {
		return fmt.Errorf("experiment: negative overload threshold %v", cfg.Overload)
	}
	if cfg.CheckpointEvery < 0 || cfg.CheckpointEvery > cfg.Duration {
		return fmt.Errorf("experiment: soak checkpoint period %v outside [0, %v]", cfg.CheckpointEvery, cfg.Duration)
	}
	if err := cfg.ARQ.Validate(); err != nil {
		return err
	}
	for _, p := range cfg.Profiles {
		if err := p.Validate(); err != nil {
			return err
		}
	}
	for _, p := range cfg.Policies {
		if p != WidthFixed && p != WidthAdaptive && p != WidthAdaptiveTurnover {
			return fmt.Errorf("experiment: unknown width policy %q", p)
		}
	}
	return nil
}

// ChaosOutcome reports one trial.
type ChaosOutcome struct {
	// Offered counts application packets handed to the recovery layer.
	Offered int64
	// Delivered counts unique packets the sink handed up.
	Delivered int64
	// ARQ aggregates every endpoint's counters.
	ARQ arq.Counters
	// Recovered reports whether the sink delivered anything at or after
	// the fault onset; TTR is that first post-onset delivery minus the
	// onset, censored at the remaining horizon when nothing arrived.
	Recovered bool
	TTR       time.Duration
	// MeanLatency and P95Latency summarize send-to-unique-delivery times.
	MeanLatency time.Duration
	P95Latency  time.Duration
	// PeakPartials is the worst concurrent partial-packet occupancy any
	// node reached; CapEvictions counts partials shed by the memory cap.
	PeakPartials int64
	CapEvictions int64
	// Overloads counts adaptive-controller saturation-clamp engagements.
	Overloads int64
	// Faults and Churn tally injected events; GEDrops/CorruptFlips count
	// channel damage; Radio is the medium-wide counter snapshot.
	Faults       faults.Counters
	Churn        mobility.ChurnCounters
	GEDrops      int64
	CorruptFlips int64
	Radio        radio.Counters
	// Oracle is the trial's conformance report (always attached).
	Oracle *oracle.Report
	// SoakViolations counts mid-run checkpoints whose invariant audit
	// failed; FirstViolation carries the earliest failure's text.
	SoakViolations int64
	FirstViolation string
	// Obs is the trial's private observability capture, nil unless
	// requested.
	Obs *TrialObs
}

// DeliveryRatio is unique sink deliveries over offered packets.
func (o ChaosOutcome) DeliveryRatio() float64 { return ratio(o.Delivered, o.Offered) }

// RetxRatio is retransmissions over all data frames sent: past 0.5 the
// majority of traffic is retries — the retry-storm regime the loss-aware
// shed exists to exit.
func (o ChaosOutcome) RetxRatio() float64 { return ratio(o.ARQ.Retransmits, o.ARQ.DataSent) }

// RetryStorm reports whether retries dominated the trial's data traffic.
func (o ChaosOutcome) RetryStorm() bool { return o.RetxRatio() > 0.5 }

// ChaosRow aggregates one (profile, policy, arq) cell over trials.
type ChaosRow struct {
	Profile  string
	Policy   WidthPolicyKind
	Reliable bool
	// Delivery, TTRSec, PeakPartials and RetxRatio summarize the
	// per-trial fields of the same names (TTR in seconds).
	Delivery     stats.Summary
	TTRSec       stats.Summary
	PeakPartials stats.Summary
	RetxRatio    stats.Summary
	// Totals across trials.
	Offered      int64
	Delivered    int64
	Retransmits  int64
	Abandoned    int64
	BudgetShed   int64
	CapEvictions int64
	Overloads    int64
	// Recovered and Storms count trials that delivered after onset and
	// trials whose traffic was retry-dominated.
	Recovered int
	Storms    int
	// SoakViolations sums failed mid-run checkpoints; FirstViolation is
	// the earliest failure text across trials ("" when clean).
	SoakViolations int64
	FirstViolation string
	// Oracle is the conformance report merged over trials in trial order.
	Oracle *oracle.Report
}

// Label renders the row's configuration.
func (r ChaosRow) Label() string {
	return fmt.Sprintf("%s %s %s", r.Profile, r.Policy, arqMode(r.Reliable))
}

// ChaosResult is the full sweep.
type ChaosResult struct {
	Config ChaosConfig
	Rows   []ChaosRow
}

// Check is the sweep's safety gate, a gate rather than a column: every
// cell must carry an oracle report that passes, and no soak checkpoint
// may have failed.
func (res ChaosResult) Check() error {
	return checkRows("chaos", res.Rows, ChaosRow.Label, func(r ChaosRow) error {
		if err := checkReport(r.Oracle, true); err != nil {
			return err
		}
		if r.SoakViolations > 0 {
			return fmt.Errorf("%d soak checkpoint violations (first: %s)", r.SoakViolations, r.FirstViolation)
		}
		return nil
	})
}

// Chaos runs the sweep: profile x policy x {arq, bare} x trials.
func Chaos(cfg ChaosConfig) (ChaosResult, error) {
	if err := cfg.Validate(); err != nil {
		return ChaosResult{}, err
	}
	modes := []bool{true}
	if cfg.Baseline {
		modes = []bool{false, true}
	}
	type cell struct {
		profile  chaos.Profile
		policy   WidthPolicyKind
		reliable bool
	}
	var cells []cell
	for _, profile := range cfg.Profiles {
		for _, policy := range cfg.Policies {
			for _, reliable := range modes {
				cells = append(cells, cell{profile, policy, reliable})
			}
		}
	}
	groups, err := runCells(fanout{cfg.Parallelism, cfg.Hooks, cfg.Obs}, xrand.NewSource(cfg.Seed).Child("chaos"), cells, cfg.Trials,
		func(c cell) []string {
			return []string{c.profile.Name, string(c.policy), strconv.FormatBool(c.reliable)}
		},
		func(c cell, src *xrand.Source) (ChaosOutcome, error) {
			return RunChaosTrial(cfg, c.profile, c.policy, c.reliable, src)
		},
		func(o ChaosOutcome) *TrialObs { return o.Obs },
		func(c cell) string { return "chaos " + chaosLabel(c.profile.Name, c.policy, c.reliable) })
	if err != nil {
		return ChaosResult{}, err
	}

	res := ChaosResult{Config: cfg}
	for ci, outs := range groups {
		c := cells[ci]
		row := ChaosRow{Profile: c.profile.Name, Policy: c.policy, Reliable: c.reliable}
		var del, ttr, peak, retx stats.Accumulator
		for _, out := range outs {
			del.Add(out.DeliveryRatio())
			ttr.Add(out.TTR.Seconds())
			peak.Add(float64(out.PeakPartials))
			retx.Add(out.RetxRatio())
			row.Offered += out.Offered
			row.Delivered += out.Delivered
			row.Retransmits += out.ARQ.Retransmits
			row.Abandoned += out.ARQ.Abandoned
			row.BudgetShed += out.ARQ.BudgetShed
			row.CapEvictions += out.CapEvictions
			row.Overloads += out.Overloads
			if out.Recovered {
				row.Recovered++
			}
			if out.RetryStorm() {
				row.Storms++
			}
			row.SoakViolations += out.SoakViolations
			if row.FirstViolation == "" {
				row.FirstViolation = out.FirstViolation
			}
			row.Oracle = mergeReport(row.Oracle, out.Oracle)
		}
		row.Delivery = del.Summary()
		row.TTRSec = ttr.Summary()
		row.PeakPartials = peak.Summary()
		row.RetxRatio = retx.Summary()
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

func chaosLabel(profile string, p WidthPolicyKind, reliable bool) string {
	return fmt.Sprintf("profile=%s,policy=%s,arq=%t", profile, p, reliable)
}

// RunChaosTrial executes one trial of one (profile, policy, arq) cell.
func RunChaosTrial(cfg ChaosConfig, profile chaos.Profile, policy WidthPolicyKind, reliable bool, src *xrand.Source) (ChaosOutcome, error) {
	eng := sim.NewEngine()
	params := radio.DefaultParams()
	// Channel damage must exist before the medium; the profile gates it
	// on its own onset so the pre-onset window stays clean.
	ch := profile.InstallChannel(&params, cfg.Duration, eng.Now, src)

	disk := radio.NewUnitDisk(cfg.Range)
	flaky := faults.NewFlakyTopology(disk)
	med := radio.NewMedium(eng, flaky, params, src.Stream("medium"))
	trialObs, tracer := newTrialObs(cfg.Obs, med)

	// Every chaos cell runs under the omniscient audit: graceful
	// degradation is only graceful if it sheds load without ever
	// breaking conservation, misdelivering or reusing identifiers.
	affCfg := widthAFF(policy, cfg.FixedBits, cfg.MaxBits, params.MTU, cfg.ReassemblyTimeout)
	affCfg.MaxPartials = cfg.MaxPartials
	orc, sp, err := attachTruth(med, cfg.Obs, trialObs, truthSpec{AFF: affCfg, Oracle: true, Topo: flaky})
	if err != nil {
		return ChaosOutcome{}, err
	}

	inj := faults.NewInjector(eng, cfg.Duration)
	inj.SetFlaky(flaky)
	inj.SetTracer(tracer)
	var churner *mobility.Churner
	if profile.Duty != nil {
		churner = mobility.NewChurner(eng, cfg.Duration)
		churner.SetDisk(disk)
		churner.SetTracer(tracer)
	}

	// The sink runs the full sender stack (own-draw observation and, on
	// adaptive arms, a controller), as every node does here.
	const sinkID radio.NodeID = 0
	stacks := sensors{eng: eng, aff: affCfg, policy: policy, orc: orc, sp: sp,
		width: adapt.Config{DataBits: 8 * cfg.PacketSize, Min: cfg.MinBits, Max: cfg.MaxBits, Overload: cfg.Overload}}
	nodes := make([]sensor, 0, cfg.Senders+1)
	var radios []*radio.Radio
	build := func(id radio.NodeID, label string) (*node.AFFDriver, error) {
		r := med.MustAttach(id)
		radios = append(radios, r)
		n, err := stacks.sender(r, src.Stream("sel", label), nil)
		if err != nil {
			return nil, err
		}
		nodes = append(nodes, n)
		inj.Register(id, n.drv)
		return n.drv, nil
	}

	disk.Place(sinkID, radio.Point{X: cfg.Area.W / 2, Y: cfg.Area.H / 2})
	sinkDrv, err := build(sinkID, "sink")
	if err != nil {
		return ChaosOutcome{}, err
	}
	// onset is set by the profile below, before the run delivers anything.
	var onset, ttr time.Duration
	recovered := false
	star := &arqStar{eng: eng, arq: cfg.ARQ, reliable: reliable, sp: sp, senders: make([]*arq.Endpoint, 0, cfg.Senders)}
	if err := star.attachSink(sinkDrv, uint32(sinkID), src.Stream("arq", "sink"), func(now time.Duration) {
		if !recovered && now >= onset {
			recovered = true
			ttr = now - onset
		}
	}); err != nil {
		return ChaosOutcome{}, err
	}

	senderIDs := make([]radio.NodeID, 0, cfg.Senders)
	for i := 1; i <= cfg.Senders; i++ {
		id := radio.NodeID(i)
		label := fmt.Sprint(i)
		if !profile.Waypoint {
			// Waypoint walkers place themselves; everyone else scatters
			// uniformly up front.
			pos := src.Stream("pos", label)
			disk.Place(id, radio.Point{X: pos.Float64() * cfg.Area.W, Y: pos.Float64() * cfg.Area.H})
		}
		d, err := build(id, label)
		if err != nil {
			return ChaosOutcome{}, err
		}
		if churner != nil {
			churner.Register(id, d)
		}
		senderIDs = append(senderIDs, id)
		if err := star.attachSender(d, uint32(i), src.Stream("arq", label), src.Stream("wl", label),
			cfg.PacketSize, cfg.Interval, cfg.Duration); err != nil {
			return ChaosOutcome{}, err
		}
	}

	onset, err = profile.Apply(chaos.Deps{
		Engine:   eng,
		Disk:     disk,
		Injector: inj,
		Churner:  churner,
		Area:     cfg.Area,
		Horizon:  cfg.Duration,
		Sink:     sinkID,
		Senders:  senderIDs,
		Src:      src,
	})
	if err != nil {
		return ChaosOutcome{}, err
	}

	// Soak mode: audit the safety invariants mid-run so a long horizon
	// cannot hide a transient violation behind later counters.
	var soakViolations int64
	var firstViolation string
	if cfg.CheckpointEvery > 0 {
		for t := cfg.CheckpointEvery; t < cfg.Duration; t += cfg.CheckpointEvery {
			eng.ScheduleAt(t, func() {
				if err := orc.Report().Check(); err != nil {
					soakViolations++
					if firstViolation == "" {
						firstViolation = fmt.Sprintf("t=%v: %v", eng.Now(), err)
					}
				}
			})
		}
	}

	eng.Run()

	out := ChaosOutcome{
		Offered:        star.offered,
		Delivered:      star.sink.Counters().Delivered,
		ARQ:            star.counters(),
		Recovered:      recovered,
		Faults:         inj.Counters(),
		Radio:          med.Counters(),
		GEDrops:        ch.Drops(),
		CorruptFlips:   ch.Flips(),
		SoakViolations: soakViolations,
		FirstViolation: firstViolation,
	}
	if recovered {
		out.TTR = ttr
	} else {
		// Censor at the post-onset window: the sink never came back.
		out.TTR = cfg.Duration - onset
	}
	for _, n := range nodes {
		st := n.drv.Reassembler().Stats()
		out.PeakPartials = max(out.PeakPartials, st.PendingPeak)
		out.CapEvictions += st.CapEvictions
		if n.ctl != nil {
			out.Overloads += n.ctl.Overloads()
		}
	}
	if churner != nil {
		out.Churn = churner.Counters()
	}
	rep := orc.Report()
	out.Oracle = &rep
	out.MeanLatency, out.P95Latency = star.latency()

	if trialObs != nil && trialObs.Metrics != nil {
		label := chaosLabel(profile.Name, policy, reliable)
		collectTrial(trialObs.Metrics, eng.Stats(), radios)
		collectARQ(trialObs.Metrics, label, out.ARQ)
		collectFaults(trialObs.Metrics, label, out.Faults, out.GEDrops, out.CorruptFlips, out.Radio)
		collectChaos(trialObs.Metrics, label, out)
		out.Oracle.SnapshotInto(trialObs.Metrics, label)
	}
	out.Obs = trialObs
	return out, nil
}

// collectChaos records one trial's degradation-path counters: everything
// a post-mortem needs to see whether the caps and sheds engaged and how
// hard, beside the recovery gauges.
func collectChaos(reg *metrics.Registry, label string, out ChaosOutcome) {
	reg.Counter("chaos_cap_evictions_total", label).Add(out.CapEvictions)
	reg.Counter("chaos_overload_clamps_total", label).Add(out.Overloads)
	reg.Counter("chaos_soak_violations_total", label).Add(out.SoakViolations)
	reg.Counter("churn_joins_total", label).Add(out.Churn.Joins)
	reg.Counter("churn_leaves_total", label).Add(out.Churn.Leaves)
	reg.Counter("churn_sleeps_total", label).Add(out.Churn.Sleeps)
	reg.Counter("churn_wakes_total", label).Add(out.Churn.Wakes)
	reg.Gauge("chaos_peak_partials", label).SetMax(float64(out.PeakPartials))
	reg.Gauge("chaos_ttr_seconds", label).SetMax(out.TTR.Seconds())
	reg.Gauge("chaos_retx_ratio", label).SetMax(out.RetxRatio())
}

// Render renders the sweep as a table, one row per cell, plus the oracle
// conformance table every cell carries.
func (res ChaosResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Compound-fault chaos (%d senders, %v x %d trials, %d-byte packets every %v, cap %d)\n",
		res.Config.Senders, res.Config.Duration, res.Config.Trials,
		res.Config.PacketSize, res.Config.Interval, res.Config.MaxPartials)
	fmt.Fprintf(&b, "%-8s %-17s %-5s %18s %12s %6s %6s %7s %6s %6s %7s %7s\n",
		"profile", "policy", "mode", "delivery", "ttr s", "rec", "peak", "evict", "retx%", "shed", "clamps", "storms")
	for _, r := range res.Rows {
		fmt.Fprintf(&b, "%-8s %-17s %-5s %9.4f ± %.4f %12.2f %6d %6.1f %7d %6.1f %6d %7d %7d\n",
			r.Profile, r.Policy, arqMode(r.Reliable),
			r.Delivery.Mean, r.Delivery.StdDev,
			r.TTRSec.Mean, r.Recovered, r.PeakPartials.Mean,
			r.CapEvictions, 100*r.RetxRatio.Mean,
			r.BudgetShed, r.Overloads, r.Storms)
	}
	fmt.Fprintf(&b, "\nOracle conformance (omniscient ground truth; every cell audited)\n")
	fmt.Fprintf(&b, "%-8s %-17s %-5s %9s %8s %9s %12s %6s\n",
		"profile", "policy", "mode", "audited", "collide", "abandoned", "violations", "soak")
	for _, r := range res.Rows {
		o := r.Oracle
		if o == nil {
			continue
		}
		fmt.Fprintf(&b, "%-8s %-17s %-5s %9d %8d %9d %12s %6d\n",
			r.Profile, r.Policy, arqMode(r.Reliable),
			o.PacketsAudited, o.CollisionEvents, o.TransactionsAbandoned, violations(o), r.SoakViolations)
	}
	for _, r := range res.Rows {
		if r.FirstViolation != "" {
			fmt.Fprintf(&b, "FIRST VIOLATION %s: %s\n", r.Label(), r.FirstViolation)
		}
	}
	return b.String()
}

// CSV renders the sweep for plotting: one record per cell.
func (res ChaosResult) CSV() string {
	var sb strings.Builder
	w := csv.NewWriter(&sb)
	_ = w.Write([]string{"profile", "policy", "mode",
		"delivery_ratio", "delivery_stddev", "ttr_seconds", "ttr_stddev", "recovered",
		"peak_partials", "cap_evictions", "retx_ratio", "budget_shed", "overload_clamps",
		"retry_storms", "offered", "delivered", "retransmits", "abandoned",
		"oracle_violations", "soak_violations", "trials"})
	for _, r := range res.Rows {
		var bad int64
		if r.Oracle != nil {
			bad = r.Oracle.ConservationViolations + r.Oracle.Misdeliveries + r.Oracle.FreshnessViolations
		}
		_ = w.Write([]string{
			r.Profile, string(r.Policy), arqMode(r.Reliable),
			formatFloat(r.Delivery.Mean), formatFloat(r.Delivery.StdDev),
			formatFloat(r.TTRSec.Mean), formatFloat(r.TTRSec.StdDev),
			strconv.Itoa(r.Recovered),
			formatFloat(r.PeakPartials.Mean), strconv.FormatInt(r.CapEvictions, 10),
			formatFloat(r.RetxRatio.Mean), strconv.FormatInt(r.BudgetShed, 10),
			strconv.FormatInt(r.Overloads, 10), strconv.Itoa(r.Storms),
			strconv.FormatInt(r.Offered, 10), strconv.FormatInt(r.Delivered, 10),
			strconv.FormatInt(r.Retransmits, 10), strconv.FormatInt(r.Abandoned, 10),
			strconv.FormatInt(bad, 10), strconv.FormatInt(r.SoakViolations, 10),
			strconv.Itoa(r.Delivery.N),
		})
	}
	w.Flush()
	return sb.String()
}
