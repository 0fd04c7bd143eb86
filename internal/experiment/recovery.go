package experiment

import (
	"encoding/csv"
	"fmt"
	"strconv"
	"strings"
	"time"

	"retri/internal/arq"
	"retri/internal/energy"
	"retri/internal/faults"
	"retri/internal/metrics"
	"retri/internal/node"
	"retri/internal/oracle"
	"retri/internal/radio"
	"retri/internal/sim"
	"retri/internal/span"
	"retri/internal/stats"
	"retri/internal/xrand"
)

// FaultKind names a failure model for the recovery experiment.
type FaultKind string

// Fault models under test.
const (
	// FaultNone is the clean-channel control.
	FaultNone FaultKind = "none"
	// FaultIID drops frames independently at the configured rate.
	FaultIID FaultKind = "iid"
	// FaultGE drops frames from a Gilbert–Elliott burst-loss channel.
	FaultGE FaultKind = "ge"
	// FaultCrash crashes and restarts every node stochastically.
	FaultCrash FaultKind = "crash"
	// FaultFlap flaps each sender—sink link stochastically.
	FaultFlap FaultKind = "flap"
	// FaultCorrupt flips payload bits the checksum layer must catch.
	FaultCorrupt FaultKind = "corrupt"
	// FaultGECrash combines burst loss with crash/restart — the
	// harshest standard model.
	FaultGECrash FaultKind = "ge+crash"
	// FaultScript replays the schedule in RecoveryConfig.Script.
	FaultScript FaultKind = "script"
)

// AllFaultKinds lists every named model except script, in sweep order.
func AllFaultKinds() []FaultKind {
	return []FaultKind{FaultNone, FaultIID, FaultGE, FaultCrash, FaultFlap, FaultCorrupt, FaultGECrash}
}

// ParseFaultKinds parses a comma-separated fault list for the CLI.
func ParseFaultKinds(s string) ([]FaultKind, error) {
	return parseList(s, "fault model", AllFaultKinds(), append(AllFaultKinds(), FaultScript))
}

// RecoveryConfig parameterizes the fault-recovery experiment: several
// senders deliver periodic packets to one sink under a fault model, with
// and without the ARQ layer, over the AFF stack and the static baseline.
// The claim under test is the paper's: identifier collisions behave as
// ordinary loss, so a loss-recovery layer needs no collision-specific
// machinery — every retransmission is simply a new transaction under a
// fresh identifier.
type RecoveryConfig struct {
	// Run's Duration bounds the sending window and the fault horizon;
	// retries in flight at the end still resolve before the trial reports.
	Run
	// Senders deliver packets at the sink (node 0); they are nodes 1..N.
	Senders int
	// PacketSize is the application payload in bytes.
	PacketSize int
	// Interval separates one sender's packets (plus deterministic jitter).
	Interval time.Duration
	// Trials per (scheme, fault, arq) row.
	Trials int
	// Schemes are the stacks compared (default AFF vs static).
	Schemes []Scheme
	// Faults are the failure models swept.
	Faults []FaultKind
	// Baseline also runs every row without ARQ: packets carry the same
	// tracking header but nothing is retransmitted.
	Baseline bool
	// ARQ tunes the recovery layer; Reliable/Ack are set per row.
	ARQ arq.Config
	// IIDLoss is the FaultIID drop rate.
	IIDLoss float64
	// GE parameterizes FaultGE and FaultGECrash.
	GE faults.GEParams
	// CorruptProb is FaultCorrupt's per-delivery bit-flip probability.
	CorruptProb float64
	// Crash parameterizes FaultCrash and FaultGECrash (applies to every
	// node, sink included).
	Crash faults.CrashPlan
	// Flap parameterizes FaultFlap on each sender—sink edge.
	Flap faults.FlapPlan
	// Script is the schedule FaultScript replays; required iff FaultScript
	// is selected.
	Script *faults.Script
	// ReassemblyTimeout bounds partial-packet state, as in Figure 4.
	ReassemblyTimeout time.Duration
	// Oracle attaches the omniscient conformance harness to AFF-scheme
	// rows: every frame is observed and every reassembled packet audited
	// for conservation, misdelivery and identifier freshness — including
	// through crashes, link flaps and ARQ retransmissions. The oracle
	// needs the Truth trailer, so enabling it turns on
	// aff.Config.Instrument for AFF rows and widens their wire format;
	// delivery and energy numbers shift accordingly. Output without the
	// flag is unchanged.
	Oracle bool
	// Obs behaves exactly as in Figure4Config.
	Obs *Obs
}

// DefaultRecoveryConfig is a 4-sender star over two simulated minutes.
func DefaultRecoveryConfig() RecoveryConfig {
	return RecoveryConfig{
		Run:               Run{Seed: 1, Duration: time.Minute},
		Senders:           4,
		PacketSize:        48,
		Interval:          500 * time.Millisecond,
		Trials:            5,
		Schemes:           []Scheme{AFFScheme(8, SelListening), StaticScheme(16)},
		Faults:            AllFaultKinds(),
		Baseline:          true,
		IIDLoss:           0.1,
		GE:                faults.DefaultGEParams(),
		CorruptProb:       0.05,
		Crash:             faults.CrashPlan{MTBF: 20 * time.Second, MeanDowntime: time.Second},
		Flap:              faults.FlapPlan{MeanUp: 10 * time.Second, MeanDown: time.Second},
		ReassemblyTimeout: 250 * time.Millisecond,
	}
}

// Validate rejects configurations the trial loop cannot honor.
func (cfg RecoveryConfig) Validate() error {
	if err := cfg.Run.Validate(); err != nil {
		return err
	}
	if cfg.Senders < 1 || cfg.Trials < 1 || len(cfg.Schemes) == 0 || len(cfg.Faults) == 0 {
		return fmt.Errorf("experiment: degenerate recovery config (senders=%d trials=%d schemes=%d faults=%d)",
			cfg.Senders, cfg.Trials, len(cfg.Schemes), len(cfg.Faults))
	}
	if cfg.Interval <= 0 {
		return fmt.Errorf("experiment: recovery needs a positive interval, got %v", cfg.Interval)
	}
	if err := cfg.ARQ.Validate(); err != nil {
		return err
	}
	for _, f := range cfg.Faults {
		switch f {
		case FaultNone, FaultCorrupt:
		case FaultIID:
			if cfg.IIDLoss < 0 || cfg.IIDLoss >= 1 {
				return fmt.Errorf("experiment: i.i.d. loss %v out of [0, 1)", cfg.IIDLoss)
			}
		case FaultGE:
			if err := cfg.GE.Validate(); err != nil {
				return err
			}
		case FaultCrash:
			if err := cfg.Crash.Validate(); err != nil {
				return err
			}
		case FaultFlap:
			if err := cfg.Flap.Validate(); err != nil {
				return err
			}
		case FaultGECrash:
			if err := cfg.GE.Validate(); err != nil {
				return err
			}
			if err := cfg.Crash.Validate(); err != nil {
				return err
			}
		case FaultScript:
			if cfg.Script == nil {
				return fmt.Errorf("experiment: fault model %q selected without a script", FaultScript)
			}
			if max := cfg.Script.MaxNode(); int(max) > cfg.Senders {
				return fmt.Errorf("experiment: fault script references node %d; this run has nodes 0..%d", max, cfg.Senders)
			}
		default:
			return fmt.Errorf("experiment: unknown fault model %q", f)
		}
	}
	return nil
}

// RecoveryOutcome reports one trial.
type RecoveryOutcome struct {
	// Offered counts application packets handed to the recovery layer.
	Offered int64
	// ARQ aggregates every endpoint's counters; ARQ.Delivered minus the
	// senders' overhearing is the sink's unique deliveries.
	ARQ arq.Counters
	// Delivered counts unique packets the sink handed up.
	Delivered int64
	// MeanLatency and P95Latency summarize send-to-unique-delivery times
	// at the sink (zero when nothing was delivered).
	MeanLatency time.Duration
	P95Latency  time.Duration
	// Joules is network-wide radio energy under the default model.
	Joules float64
	// Faults tallies injected crash/restart/link events.
	Faults faults.Counters
	// GEDrops and CorruptFlips count burst-model drops and damaged
	// payloads; Radio is the medium-wide counter snapshot.
	GEDrops      int64
	CorruptFlips int64
	Radio        radio.Counters
	// Oracle is the trial's conformance report, nil unless
	// RecoveryConfig.Oracle was set and the scheme is AFF.
	Oracle *oracle.Report
	// Obs is the trial's private observability capture, nil unless
	// requested.
	Obs *TrialObs
}

// DeliveryRatio is unique sink deliveries over offered packets.
func (o RecoveryOutcome) DeliveryRatio() float64 { return ratio(o.Delivered, o.Offered) }

// EnergyPerDelivered is joules spent per packet delivered (0 if none).
func (o RecoveryOutcome) EnergyPerDelivered() float64 {
	if o.Delivered == 0 {
		return 0
	}
	return o.Joules / float64(o.Delivered)
}

// RecoveryRow aggregates one (scheme, fault, arq) cell over trials.
type RecoveryRow struct {
	Scheme   Scheme
	Fault    FaultKind
	Reliable bool
	// Ratio, LatencyMS, P95MS and EnergyMJ summarize per-trial delivery
	// ratio, mean latency (ms), p95 latency (ms) and energy per delivered
	// packet (mJ).
	Ratio     stats.Summary
	LatencyMS stats.Summary
	P95MS     stats.Summary
	EnergyMJ  stats.Summary
	// Totals across trials.
	Offered     int64
	Delivered   int64
	Retransmits int64
	Abandoned   int64
	FreshIDs    int64
	RepeatedIDs int64
	// Oracle is the conformance report merged over trials in trial order,
	// nil unless the sweep ran with the oracle attached and the row's
	// scheme is AFF.
	Oracle *oracle.Report
}

// Label renders the row's configuration.
func (r RecoveryRow) Label() string {
	return fmt.Sprintf("%s %s %s", r.Scheme.Label(), r.Fault, arqMode(r.Reliable))
}

// RecoveryResult is the full sweep.
type RecoveryResult struct {
	Config RecoveryConfig
	Rows   []RecoveryRow
}

// Check fails on any safety violation in a row that carries an oracle
// report: the AFF rows of a sweep run with the oracle.
func (res RecoveryResult) Check() error {
	return checkRows("recovery", res.Rows, RecoveryRow.Label,
		func(r RecoveryRow) error { return checkReport(r.Oracle, false) })
}

// Recovery runs the sweep: scheme x fault x {arq, bare} x trials.
func Recovery(cfg RecoveryConfig) (RecoveryResult, error) {
	if err := cfg.Validate(); err != nil {
		return RecoveryResult{}, err
	}
	modes := []bool{true}
	if cfg.Baseline {
		modes = []bool{false, true}
	}
	type cell struct {
		scheme   Scheme
		fault    FaultKind
		reliable bool
	}
	var cells []cell
	for _, scheme := range cfg.Schemes {
		for _, fault := range cfg.Faults {
			for _, reliable := range modes {
				cells = append(cells, cell{scheme, fault, reliable})
			}
		}
	}
	groups, err := runCells(cfg.Run, cfg.Obs, "recovery", cells, cfg.Trials,
		func(c cell) []string {
			return []string{c.scheme.Kind, strconv.Itoa(c.scheme.Bits), string(c.fault), strconv.FormatBool(c.reliable)}
		},
		func(c cell, src *xrand.Source) (RecoveryOutcome, error) {
			return RunRecoveryTrial(cfg, c.scheme, c.fault, c.reliable, src)
		},
		func(o RecoveryOutcome) *TrialObs { return o.Obs },
		func(c cell) string { return "recovery " + recoveryLabel(c.scheme, c.fault, c.reliable) })
	if err != nil {
		return RecoveryResult{}, err
	}

	res := RecoveryResult{Config: cfg}
	for ci, outs := range groups {
		row := RecoveryRow{Scheme: cells[ci].scheme, Fault: cells[ci].fault, Reliable: cells[ci].reliable}
		var del, lat, p95, mj stats.Accumulator
		for _, out := range outs {
			del.Add(out.DeliveryRatio())
			lat.Add(float64(out.MeanLatency) / float64(time.Millisecond))
			p95.Add(float64(out.P95Latency) / float64(time.Millisecond))
			mj.Add(out.EnergyPerDelivered() * 1e3)
			row.Offered += out.Offered
			row.Delivered += out.Delivered
			row.Retransmits += out.ARQ.Retransmits
			row.Abandoned += out.ARQ.Abandoned
			row.FreshIDs += out.ARQ.FreshIDs
			row.RepeatedIDs += out.ARQ.RepeatedIDs
			row.Oracle = mergeReport(row.Oracle, out.Oracle)
		}
		row.Ratio = del.Summary()
		row.LatencyMS = lat.Summary()
		row.P95MS = p95.Summary()
		row.EnergyMJ = mj.Summary()
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

func recoveryLabel(s Scheme, f FaultKind, reliable bool) string {
	return fmt.Sprintf("scheme=%s%d,fault=%s,arq=%t", s.Kind, s.Bits, f, reliable)
}

// RunRecoveryTrial executes one trial of one (scheme, fault, arq) cell.
func RunRecoveryTrial(cfg RecoveryConfig, scheme Scheme, fault FaultKind, reliable bool, src *xrand.Source) (RecoveryOutcome, error) {
	eng := sim.NewEngine()
	params := radio.DefaultParams()

	var ge *faults.GilbertElliott
	var flipper *faults.BitFlipper
	switch fault {
	case FaultIID:
		params.FrameLoss = cfg.IIDLoss
	case FaultGE, FaultGECrash:
		ge = faults.NewGilbertElliott(cfg.GE, src.Stream("ge"))
		params.Loss = ge
	case FaultCorrupt:
		flipper = faults.NewBitFlipper(cfg.CorruptProb, src.Stream("corrupt"))
		params.Corrupt = flipper
	}

	flaky := faults.NewFlakyTopology(radio.FullMesh{})
	med := radio.NewMedium(eng, flaky, params, src.Stream("medium"))
	trialObs, tracer := newTrialObs(cfg.Obs, med)

	// Ground truth covers AFF rows only: the static baseline has no
	// ephemeral identifiers to check and a wire format the tracker cannot
	// read. The oracle needs the Truth trailer, so oracle rows run with an
	// instrumented wire format (see RecoveryConfig.Oracle); span tracing
	// does not force instrumentation — flagless recovery rows must stay
	// byte-identical — so without the oracle it attributes by per-sender
	// FIFO order instead of Truth trailers.
	instrument := cfg.Oracle && scheme.Kind == "aff"
	var (
		orc *oracle.Oracle
		sp  *span.Tracer
	)
	if scheme.Kind == "aff" {
		affCfg, err := schemeAFF(scheme, params.MTU, cfg.ReassemblyTimeout, instrument)
		if err != nil {
			return RecoveryOutcome{}, err
		}
		orc, sp, err = attachTruth(med, cfg.Obs, trialObs, truthSpec{AFF: affCfg, Oracle: instrument, Topo: flaky})
		if err != nil {
			return RecoveryOutcome{}, err
		}
	}

	inj := faults.NewInjector(eng, cfg.Duration)
	inj.SetFlaky(flaky)
	inj.SetTracer(tracer)

	const sinkID radio.NodeID = 0
	radios := make([]*radio.Radio, 0, cfg.Senders+1)
	build := func(id radio.NodeID, label string) (node.Driver, error) {
		r := med.MustAttach(id)
		radios = append(radios, r)
		// Engine-timed expiry lets crashed-and-restarted or idle nodes
		// shed stale partial state.
		opts := node.AFFOptions{Engine: eng, OnDeliver: orc.DeliveryAudit(id)}
		if sp != nil {
			opts.Span = sp
		}
		d, err := buildDriver(scheme, r, params.MTU, cfg.ReassemblyTimeout, instrument, src.Stream("sel", label), opts)
		if err != nil {
			return nil, err
		}
		ctl, ok := d.(faults.NodeControl)
		if !ok {
			return nil, fmt.Errorf("experiment: driver %T cannot crash", d)
		}
		inj.Register(id, ctl)
		return d, nil
	}

	star := &arqStar{eng: eng, arq: cfg.ARQ, reliable: reliable, sp: sp, senders: make([]*arq.Endpoint, 0, cfg.Senders)}
	sinkDrv, err := build(sinkID, "sink")
	if err != nil {
		return RecoveryOutcome{}, err
	}
	if err := star.attachSink(sinkDrv, uint32(sinkID), src.Stream("arq", "sink"), nil); err != nil {
		return RecoveryOutcome{}, err
	}
	for i := 1; i <= cfg.Senders; i++ {
		label := fmt.Sprint(i)
		d, err := build(radio.NodeID(i), label)
		if err != nil {
			return RecoveryOutcome{}, err
		}
		if err := star.attachSender(d, uint32(i), src.Stream("arq", label), src.Stream("wl", label),
			cfg.PacketSize, cfg.Interval, cfg.Duration); err != nil {
			return RecoveryOutcome{}, err
		}
	}

	switch fault {
	case FaultCrash, FaultGECrash:
		for id := radio.NodeID(0); int(id) <= cfg.Senders; id++ {
			if err := inj.StartCrashPlan(id, cfg.Crash, src.Stream("crash", fmt.Sprint(id))); err != nil {
				return RecoveryOutcome{}, err
			}
		}
	case FaultFlap:
		for i := 1; i <= cfg.Senders; i++ {
			if err := inj.StartFlapPlan(sinkID, radio.NodeID(i), cfg.Flap, src.Stream("flap", fmt.Sprint(i))); err != nil {
				return RecoveryOutcome{}, err
			}
		}
	case FaultScript:
		if err := inj.Apply(*cfg.Script); err != nil {
			return RecoveryOutcome{}, err
		}
	}

	eng.Run()

	out := RecoveryOutcome{
		Offered:   star.offered,
		Delivered: star.sink.Counters().Delivered,
		ARQ:       star.counters(),
		Faults:    inj.Counters(),
		Radio:     med.Counters(),
	}
	out.MeanLatency, out.P95Latency = star.latency()
	if ge != nil {
		out.GEDrops = ge.Drops()
	}
	if flipper != nil {
		out.CorruptFlips = flipper.Flips()
	}
	if orc != nil {
		rep := orc.Report()
		out.Oracle = &rep
	}
	var total energy.Meter
	for _, r := range radios {
		total.Add(r.Meter())
	}
	out.Joules = energy.DefaultModel().Joules(total)

	if trialObs != nil && trialObs.Metrics != nil {
		label := recoveryLabel(scheme, fault, reliable)
		collectTrial(trialObs.Metrics, eng.Stats(), radios)
		collectARQ(trialObs.Metrics, label, out.ARQ)
		collectFaults(trialObs.Metrics, label, out.Faults, out.GEDrops, out.CorruptFlips, out.Radio)
		if out.Oracle != nil {
			out.Oracle.SnapshotInto(trialObs.Metrics, label)
		}
	}
	out.Obs = trialObs
	return out, nil
}

// collectARQ records one trial's aggregated recovery-layer counters.
func collectARQ(reg *metrics.Registry, label string, c arq.Counters) {
	reg.Counter("arq_data_sent_total", label).Add(c.DataSent)
	reg.Counter("arq_retransmits_total", label).Add(c.Retransmits)
	reg.Counter("arq_acked_total", label).Add(c.Acked)
	reg.Counter("arq_abandoned_total", label).Add(c.Abandoned)
	reg.Counter("arq_budget_shed_total", label).Add(c.BudgetShed)
	reg.Counter("arq_acks_sent_total", label).Add(c.AcksSent)
	reg.Counter("arq_nacks_sent_total", label).Add(c.NacksSent)
	reg.Counter("arq_delivered_total", label).Add(c.Delivered)
	reg.Counter("arq_duplicates_total", label).Add(c.Duplicates)
	reg.Counter("arq_fresh_ids_total", label).Add(c.FreshIDs)
	reg.Counter("arq_repeated_ids_total", label).Add(c.RepeatedIDs)
	reg.Counter("arq_send_errors_total", label).Add(c.SendErrors)
}

// collectFaults records one trial's injected-fault and channel-damage
// counters beside the medium's view of them.
func collectFaults(reg *metrics.Registry, label string, fc faults.Counters, geDrops, flips int64, rc radio.Counters) {
	reg.Counter("fault_crashes_total", label).Add(fc.Crashes)
	reg.Counter("fault_restarts_total", label).Add(fc.Restarts)
	reg.Counter("fault_link_downs_total", label).Add(fc.LinkDowns)
	reg.Counter("fault_link_ups_total", label).Add(fc.LinkUps)
	reg.Counter("fault_ge_drops_total", label).Add(geDrops)
	reg.Counter("fault_corrupt_flips_total", label).Add(flips)
	reg.Counter("radio_corrupted_total", label).Add(rc.Corrupted)
	reg.Counter("radio_random_loss_total", label).Add(rc.RandomLoss)
}

// Render renders the sweep as a table, one row per cell.
func (res RecoveryResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Delivery under faults (%d senders, %v x %d trials, %d-byte packets every %v)\n",
		res.Config.Senders, res.Config.Duration, res.Config.Trials, res.Config.PacketSize, res.Config.Interval)
	fmt.Fprintf(&b, "%-18s %-9s %-5s %18s %12s %12s %12s %8s %6s %7s %5s\n",
		"scheme", "fault", "mode", "delivery", "lat ms", "p95 ms", "mJ/pkt", "retx", "aband", "fresh", "rep")
	for _, r := range res.Rows {
		fmt.Fprintf(&b, "%-18s %-9s %-5s %9.4f ± %.4f %12.2f %12.2f %12.3f %8d %6d %7d %5d\n",
			r.Scheme.Label(), r.Fault, arqMode(r.Reliable),
			r.Ratio.Mean, r.Ratio.StdDev,
			r.LatencyMS.Mean, r.P95MS.Mean, r.EnergyMJ.Mean,
			r.Retransmits, r.Abandoned, r.FreshIDs, r.RepeatedIDs)
	}
	if anyOracle(res.Rows, func(r RecoveryRow) *oracle.Report { return r.Oracle }) {
		fmt.Fprintf(&b, "\nOracle conformance (omniscient ground truth; AFF rows only)\n")
		fmt.Fprintf(&b, "%-18s %-9s %-5s %9s %8s %9s %12s\n",
			"scheme", "fault", "mode", "audited", "collide", "abandoned", "violations")
		for _, r := range res.Rows {
			o := r.Oracle
			if o == nil {
				continue
			}
			fmt.Fprintf(&b, "%-18s %-9s %-5s %9d %8d %9d %12s\n",
				r.Scheme.Label(), r.Fault, arqMode(r.Reliable),
				o.PacketsAudited, o.CollisionEvents, o.TransactionsAbandoned, violations(o))
		}
	}
	return b.String()
}

// CSV renders the sweep for plotting: one record per cell.
func (res RecoveryResult) CSV() string {
	var sb strings.Builder
	w := csv.NewWriter(&sb)
	_ = w.Write([]string{"scheme", "fault", "mode",
		"delivery_ratio", "delivery_stddev", "latency_ms", "p95_ms", "mj_per_packet",
		"offered", "delivered", "retransmits", "abandoned", "fresh_ids", "repeated_ids", "trials"})
	for _, r := range res.Rows {
		_ = w.Write([]string{
			r.Scheme.Label(), string(r.Fault), arqMode(r.Reliable),
			formatFloat(r.Ratio.Mean), formatFloat(r.Ratio.StdDev),
			formatFloat(r.LatencyMS.Mean), formatFloat(r.P95MS.Mean), formatFloat(r.EnergyMJ.Mean),
			strconv.FormatInt(r.Offered, 10), strconv.FormatInt(r.Delivered, 10),
			strconv.FormatInt(r.Retransmits, 10), strconv.FormatInt(r.Abandoned, 10),
			strconv.FormatInt(r.FreshIDs, 10), strconv.FormatInt(r.RepeatedIDs, 10),
			strconv.Itoa(r.Ratio.N),
		})
	}
	w.Flush()
	return sb.String()
}
