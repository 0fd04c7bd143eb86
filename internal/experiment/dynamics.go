package experiment

import (
	"encoding/csv"
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"retri/internal/adapt"
	"retri/internal/aff"
	"retri/internal/density"
	"retri/internal/metrics"
	"retri/internal/mobility"
	"retri/internal/model"
	"retri/internal/oracle"
	"retri/internal/radio"
	"retri/internal/sim"
	"retri/internal/stats"
	"retri/internal/workload"
	"retri/internal/xrand"
)

// DynScenario names a dynamics scenario for the adaptive-width experiment.
type DynScenario string

// Dynamics scenarios under test.
const (
	// DynStationary keeps every node where it was placed — the control.
	DynStationary DynScenario = "stationary"
	// DynWaypoint moves every sender with the random-waypoint model, so
	// the density each node sees drifts as neighborhoods form and
	// dissolve.
	DynWaypoint DynScenario = "waypoint"
	// DynChurn duty-cycles every sender (exponential up/down), so
	// returning nodes relearn the channel from wiped state.
	DynChurn DynScenario = "churn"
	// DynGroup moves the senders as two reference-point-group-mobility
	// clusters, the cleanest generator of correlated partition-and-merge:
	// the halves drift out of mutual range together and back.
	DynGroup DynScenario = "group"
	// DynScript replays the mobility script in DynamicsConfig.Script.
	DynScript DynScenario = "script"
)

// AllDynScenarios lists every named scenario except script, in sweep order.
func AllDynScenarios() []DynScenario {
	return []DynScenario{DynStationary, DynWaypoint, DynChurn, DynGroup}
}

// ParseDynScenarios parses a comma-separated scenario list for the CLI.
func ParseDynScenarios(s string) ([]DynScenario, error) {
	return parseList(s, "dynamics scenario", AllDynScenarios(), append(AllDynScenarios(), DynScript))
}

// WidthPolicyKind names an identifier-width policy arm.
type WidthPolicyKind string

// Width policies under test.
const (
	// WidthFixed is today's compile-time width: the wire format carries
	// no width field and every transaction uses FixedBits.
	WidthFixed WidthPolicyKind = "fixed"
	// WidthAdaptive closes the loop: each sender's adapt.Controller feeds
	// its density estimate into Equation 4 and the chosen width rides
	// in-band on every fragment (aff.Config.AdaptiveWidth).
	WidthAdaptive WidthPolicyKind = "adaptive"
	// WidthAdaptiveTurnover is the adaptive arm driven by the
	// turnover-aware density estimator (density.PolicyTurnover): an
	// identifier whose final fragment was heard is discounted immediately
	// instead of lingering a full idle gap, closing the estimator's
	// over-count under fast transaction turnover.
	WidthAdaptiveTurnover WidthPolicyKind = "adaptive-turnover"
)

// AllWidthPolicies lists the arms in sweep order.
func AllWidthPolicies() []WidthPolicyKind {
	return []WidthPolicyKind{WidthFixed, WidthAdaptive, WidthAdaptiveTurnover}
}

// ParseWidthPolicies parses a comma-separated policy list for the CLI.
func ParseWidthPolicies(s string) ([]WidthPolicyKind, error) {
	return parseList(s, "width policy", AllWidthPolicies(), AllWidthPolicies())
}

// adaptive reports whether a policy arm runs the in-band-width wire format.
func (p WidthPolicyKind) adaptive() bool {
	return p == WidthAdaptive || p == WidthAdaptiveTurnover
}

// estimatorPolicy maps a width arm to its density-estimation policy.
func (p WidthPolicyKind) estimatorPolicy() density.Policy {
	if p == WidthAdaptiveTurnover {
		return density.PolicyTurnover
	}
	return density.PolicyIdleGap
}

// DynamicsConfig parameterizes the dynamics experiment: senders stream
// packets at one sink on a unit-disk radio while the scenario moves or
// churns them, and the two width policies are compared on delivery,
// goodput efficiency, collision rate and achieved-vs-optimal identifier
// width over time.
type DynamicsConfig struct {
	Run
	// Senders stream packets at the sink (node 0); they are nodes 1..N.
	Senders int
	// PacketSize is the application payload in bytes. Its bit size is the
	// D the adaptive controller optimizes against.
	PacketSize int
	// Trials per (scenario, policy) row.
	Trials int
	// Scenarios are the dynamics swept.
	Scenarios []DynScenario
	// Policies are the width arms compared.
	Policies []WidthPolicyKind
	// FixedBits is the static arm's identifier width (and pool size).
	FixedBits int
	// MinBits and MaxBits clamp the adaptive arm; MaxBits is also its
	// identifier pool width, so the adaptive arm pays for its headroom
	// only through the in-band width field, never through wider-than-
	// chosen identifiers.
	MinBits, MaxBits int
	// Area is the deployment region; the sink sits at its center.
	Area mobility.Area
	// Range is the unit-disk radio range.
	Range float64
	// MinSpeed, MaxSpeed and Pause parameterize DynWaypoint and the
	// reference point of DynGroup.
	MinSpeed, MaxSpeed float64
	Pause              time.Duration
	// GroupSpread is the member offset radius for DynGroup clusters.
	GroupSpread float64
	// Duty parameterizes DynChurn.
	Duty mobility.DutyCycle
	// SampleInterval spaces the achieved-vs-optimal width probes.
	SampleInterval time.Duration
	// Script is the schedule DynScript replays; required iff DynScript is
	// selected. Membership ops may only target senders.
	Script *mobility.Script
	// ReassemblyTimeout bounds partial-packet state, as in Figure 4.
	ReassemblyTimeout time.Duration
	// Oracle attaches the omniscient conformance harness (internal/oracle)
	// to every trial: ground-truth density and Equation 4 optima are
	// sampled at each steady-state probe, every delivered packet is
	// audited, and each row carries a merged oracle.Report. The oracle is
	// strictly passive — enabling it leaves the simulation byte-identical.
	Oracle bool
	// Obs behaves exactly as in Figure4Config.
	Obs *Obs
}

// DefaultDynamicsConfig is an 8-sender deployment on a 60x60 area with a
// 20-unit radio range: roughly a third of the senders are within range of
// the sink at any instant, so mobility genuinely modulates the density
// each node observes.
func DefaultDynamicsConfig() DynamicsConfig {
	return DynamicsConfig{
		Run:               Run{Seed: 1, Duration: 2 * time.Minute},
		Senders:           8,
		PacketSize:        48,
		Trials:            5,
		Scenarios:         AllDynScenarios(),
		Policies:          AllWidthPolicies(),
		FixedBits:         10,
		MinBits:           2,
		MaxBits:           16,
		Area:              mobility.Area{W: 60, H: 60},
		Range:             20,
		MinSpeed:          1,
		MaxSpeed:          3,
		Pause:             2 * time.Second,
		Duty:              mobility.DutyCycle{MeanUp: 20 * time.Second, MeanDown: 5 * time.Second},
		GroupSpread:       8,
		SampleInterval:    time.Second,
		ReassemblyTimeout: 250 * time.Millisecond,
	}
}

// Validate rejects configurations the trial loop cannot honor.
func (cfg DynamicsConfig) Validate() error {
	if err := cfg.Run.Validate(); err != nil {
		return err
	}
	if cfg.Senders < 1 || cfg.Trials < 1 || len(cfg.Scenarios) == 0 || len(cfg.Policies) == 0 {
		return fmt.Errorf("experiment: degenerate dynamics config (senders=%d trials=%d scenarios=%d policies=%d)",
			cfg.Senders, cfg.Trials, len(cfg.Scenarios), len(cfg.Policies))
	}
	if cfg.SampleInterval <= 0 || cfg.SampleInterval > cfg.Duration {
		return fmt.Errorf("experiment: dynamics needs 0 < sample interval <= duration, got %v/%v", cfg.SampleInterval, cfg.Duration)
	}
	if cfg.PacketSize < 1 {
		return fmt.Errorf("experiment: dynamics packet size %d must be positive", cfg.PacketSize)
	}
	if err := validateWidthField("dynamics", cfg.FixedBits, cfg.MinBits, cfg.MaxBits, cfg.Area, cfg.Range); err != nil {
		return err
	}
	for _, s := range cfg.Scenarios {
		switch s {
		case DynStationary:
		case DynWaypoint:
			if !(cfg.MinSpeed > 0) || cfg.MaxSpeed < cfg.MinSpeed || cfg.Pause < 0 {
				return fmt.Errorf("experiment: waypoint speeds [%v, %v] pause %v invalid", cfg.MinSpeed, cfg.MaxSpeed, cfg.Pause)
			}
		case DynChurn:
			if err := cfg.Duty.Validate(); err != nil {
				return err
			}
		case DynGroup:
			if !(cfg.MinSpeed > 0) || cfg.MaxSpeed < cfg.MinSpeed || cfg.Pause < 0 {
				return fmt.Errorf("experiment: group speeds [%v, %v] pause %v invalid", cfg.MinSpeed, cfg.MaxSpeed, cfg.Pause)
			}
			if !(cfg.GroupSpread >= 0) || math.IsInf(cfg.GroupSpread, 0) {
				return fmt.Errorf("experiment: group spread %v invalid", cfg.GroupSpread)
			}
		case DynScript:
			if cfg.Script == nil {
				return fmt.Errorf("experiment: scenario %q selected without a script", DynScript)
			}
			if max := cfg.Script.MaxNode(); int(max) > cfg.Senders {
				return fmt.Errorf("experiment: mobility script references node %d; this run has nodes 0..%d", max, cfg.Senders)
			}
		default:
			return fmt.Errorf("experiment: unknown dynamics scenario %q", s)
		}
	}
	for _, p := range cfg.Policies {
		if p != WidthFixed && p != WidthAdaptive && p != WidthAdaptiveTurnover {
			return fmt.Errorf("experiment: unknown width policy %q", p)
		}
	}
	return nil
}

// DynPoint is one instant of the achieved-vs-optimal width time series,
// averaged over the senders awake and placed at that instant.
type DynPoint struct {
	At        time.Duration
	AchievedH float64
	OptimalH  float64
	Awake     float64
}

// DynamicsOutcome reports one trial.
type DynamicsOutcome struct {
	// Offered counts packets the workload generators handed down.
	Offered int64
	// TruthDelivered and AFFDelivered are the sink's ground-truth and
	// identifier-keyed packet counts, as in Figure 4.
	TruthDelivered int64
	AFFDelivered   int64
	// DeliveredBits is application payload delivered at the sink; TxBits
	// is every bit any radio transmitted. Their ratio is the measured
	// goodput efficiency — the adaptive arm pays its in-band width field
	// here, honestly.
	DeliveredBits int64
	TxBits        int64
	// CollisionRate is 1 - AFF/Truth (identifier-only loss).
	CollisionRate float64
	// Goodput is DeliveredBits/TxBits (0 when nothing was sent).
	Goodput float64
	// MeanAchievedH, MeanOptimalH and HGap summarize the steady state
	// (second half of the trial): mean width in use, mean omniscient
	// Equation 4 optimum for the true awake-neighbor density, and the
	// mean absolute gap between them.
	MeanAchievedH float64
	MeanOptimalH  float64
	HGap          float64
	// Churn tallies membership events (zero outside churn/script).
	Churn mobility.ChurnCounters
	// Samples is the per-instant width time series.
	Samples []DynPoint
	// Oracle is the trial's conformance report, nil unless
	// DynamicsConfig.Oracle was set.
	Oracle *oracle.Report
	// Obs is the trial's private observability capture, nil unless
	// requested.
	Obs *TrialObs
}

// DeliveryRatio is sink deliveries over offered packets. Under a range-
// limited topology this counts RF unreachability too, not just identifier
// loss — compare CollisionRate for the identifier-only view.
func (o DynamicsOutcome) DeliveryRatio() float64 { return ratio(o.AFFDelivered, o.Offered) }

// DynamicsRow aggregates one (scenario, policy) cell over trials.
type DynamicsRow struct {
	Scenario DynScenario
	Policy   WidthPolicyKind
	// Delivery, Goodput, Collision, AchievedH, OptimalH and Gap summarize
	// the per-trial outcome fields of the same names.
	Delivery  stats.Summary
	Goodput   stats.Summary
	Collision stats.Summary
	AchievedH stats.Summary
	OptimalH  stats.Summary
	Gap       stats.Summary
	// Totals across trials.
	Offered        int64
	TruthDelivered int64
	AFFDelivered   int64
	Churn          mobility.ChurnCounters
	// Series is the trial-averaged achieved-vs-optimal width time series.
	Series []DynPoint
	// Oracle is the conformance report merged over trials in trial order,
	// nil unless the sweep ran with the oracle attached.
	Oracle *oracle.Report
}

// DynamicsResult is the full sweep.
type DynamicsResult struct {
	Config DynamicsConfig
	Rows   []DynamicsRow
}

// Check fails on any safety violation in a row that carries an oracle
// report; a sweep run without the oracle passes.
func (res DynamicsResult) Check() error {
	return checkRows("dynamics", res.Rows, func(r DynamicsRow) string { return fmt.Sprintf("%s %s", r.Scenario, r.Policy) },
		func(r DynamicsRow) error { return checkReport(r.Oracle, false) })
}

// Dynamics runs the sweep: scenario x policy x trials.
func Dynamics(cfg DynamicsConfig) (DynamicsResult, error) {
	if err := cfg.Validate(); err != nil {
		return DynamicsResult{}, err
	}
	type cell struct {
		scenario DynScenario
		policy   WidthPolicyKind
	}
	var cells []cell
	for _, scenario := range cfg.Scenarios {
		for _, policy := range cfg.Policies {
			cells = append(cells, cell{scenario, policy})
		}
	}
	groups, err := runCells(cfg.Run, cfg.Obs, "dynamics", cells, cfg.Trials,
		func(c cell) []string { return []string{string(c.scenario), string(c.policy)} },
		func(c cell, src *xrand.Source) (DynamicsOutcome, error) {
			return RunDynamicsTrial(cfg, c.scenario, c.policy, src)
		},
		func(o DynamicsOutcome) *TrialObs { return o.Obs },
		func(c cell) string { return "dynamics " + dynamicsLabel(c.scenario, c.policy) })
	if err != nil {
		return DynamicsResult{}, err
	}

	res := DynamicsResult{Config: cfg}
	for ci, outs := range groups {
		row := DynamicsRow{Scenario: cells[ci].scenario, Policy: cells[ci].policy}
		var del, good, coll, ach, opt, gap stats.Accumulator
		for _, out := range outs {
			del.Add(out.DeliveryRatio())
			good.Add(out.Goodput)
			coll.Add(out.CollisionRate)
			ach.Add(out.MeanAchievedH)
			opt.Add(out.MeanOptimalH)
			gap.Add(out.HGap)
			row.Offered += out.Offered
			row.TruthDelivered += out.TruthDelivered
			row.AFFDelivered += out.AFFDelivered
			row.Churn.Add(out.Churn)
			row.Oracle = mergeReport(row.Oracle, out.Oracle)
		}
		row.Delivery = del.Summary()
		row.Goodput = good.Summary()
		row.Collision = coll.Summary()
		row.AchievedH = ach.Summary()
		row.OptimalH = opt.Summary()
		row.Gap = gap.Summary()
		row.Series = widthSeries(outs, func(o DynamicsOutcome) []DynPoint { return o.Samples })
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

func dynamicsLabel(s DynScenario, p WidthPolicyKind) string {
	return fmt.Sprintf("scenario=%s,policy=%s", s, p)
}

// RunDynamicsTrial executes one trial of one (scenario, policy) cell:
// cfg.Senders continuous streamers on a unit disk around a central sink,
// moved or churned by the scenario, measured against the sink's
// ground-truth reassembler and an omniscient Equation 4 probe.
func RunDynamicsTrial(cfg DynamicsConfig, scenario DynScenario, policy WidthPolicyKind, src *xrand.Source) (DynamicsOutcome, error) {
	eng := sim.NewEngine()
	params := radio.DefaultParams()
	disk := radio.NewUnitDisk(cfg.Range)
	med := radio.NewMedium(eng, disk, params, src.Stream("medium"))
	trialObs, tracer := newTrialObs(cfg.Obs, med)

	// The fixed arm runs today's wire format bit for bit; the adaptive arm
	// opens the MaxBits pool and carries each transaction's width in-band.
	affCfg := widthAFF(policy, cfg.FixedBits, cfg.MaxBits, params.MTU, cfg.ReassemblyTimeout)
	// The oracle watches the medium with the simulator's privileged eyes;
	// it is strictly passive, so attaching it cannot change the run.
	orc, sp, err := attachTruth(med, cfg.Obs, trialObs, truthSpec{AFF: affCfg, Oracle: cfg.Oracle, Topo: disk})
	if err != nil {
		return DynamicsOutcome{}, err
	}

	const sinkID radio.NodeID = 0
	dataBits := 8 * cfg.PacketSize
	stacks := sensors{eng: eng, aff: affCfg, policy: policy, orc: orc, sp: sp,
		width: adapt.Config{DataBits: dataBits, Min: cfg.MinBits, Max: cfg.MaxBits}}
	disk.Place(sinkID, radio.Point{X: cfg.Area.W / 2, Y: cfg.Area.H / 2})
	rxRadio := med.MustAttach(sinkID)
	truth := aff.NewTruthReassembler(affCfg, eng.Now)
	rx, err := stacks.sink(rxRadio, src.Stream("rx-sel"), truth, nil)
	if err != nil {
		return DynamicsOutcome{}, err
	}

	var churner *mobility.Churner
	if scenario == DynChurn || scenario == DynScript {
		churner = mobility.NewChurner(eng, cfg.Duration)
		churner.SetDisk(disk)
		churner.SetTracer(tracer)
	}

	senders := make([]sensor, cfg.Senders+1)
	radios := []*radio.Radio{rxRadio}
	var gens []*workload.Continuous
	var groupMembers []radio.NodeID
	for i := 1; i <= cfg.Senders; i++ {
		id := radio.NodeID(i)
		label := fmt.Sprint(i)
		if scenario != DynWaypoint && scenario != DynGroup {
			// Waypoint walkers and group members place themselves;
			// everyone else scatters uniformly up front.
			pos := src.Stream("pos", label)
			disk.Place(id, radio.Point{X: pos.Float64() * cfg.Area.W, Y: pos.Float64() * cfg.Area.H})
		}
		txRadio := med.MustAttach(id)
		radios = append(radios, txRadio)
		n, err := stacks.sender(txRadio, src.Stream("sel", label), nil)
		if err != nil {
			return DynamicsOutcome{}, err
		}
		senders[i] = n
		gen := workload.NewContinuousMixed(eng, n.drv, []int{cfg.PacketSize}, 0, src.Stream("wl", label))
		gen.Start(cfg.Duration)
		gens = append(gens, gen)

		switch scenario {
		case DynGroup:
			groupMembers = append(groupMembers, id)
		case DynWaypoint:
			wcfg := mobility.WaypointConfig{
				Area:     cfg.Area,
				MinSpeed: cfg.MinSpeed,
				MaxSpeed: cfg.MaxSpeed,
				Pause:    cfg.Pause,
			}
			if _, err := mobility.StartWaypoint(eng, disk, id, wcfg, src.Stream("mob", label), cfg.Duration); err != nil {
				return DynamicsOutcome{}, err
			}
		case DynChurn:
			churner.Register(id, n.drv)
			if err := churner.StartDutyCycle(id, cfg.Duty, src.Stream("duty", label)); err != nil {
				return DynamicsOutcome{}, err
			}
		case DynScript:
			churner.Register(id, n.drv)
		}
	}
	if scenario == DynScript {
		dir := mobility.NewDirector(eng, disk, churner, 0, cfg.Duration)
		if err := dir.Apply(*cfg.Script); err != nil {
			return DynamicsOutcome{}, err
		}
	}
	if scenario == DynGroup {
		// Two clusters roaming independently: the halves partition from
		// each other (and from the sink) and merge back as their reference
		// points cross — correlated membership change, unlike waypoint's
		// independent walkers.
		gcfg := mobility.GroupConfig{
			Waypoint: mobility.WaypointConfig{
				Area:     cfg.Area,
				MinSpeed: cfg.MinSpeed,
				MaxSpeed: cfg.MaxSpeed,
				Pause:    cfg.Pause,
			},
			Spread: cfg.GroupSpread,
		}
		half := (len(groupMembers) + 1) / 2
		for gi, members := range [][]radio.NodeID{groupMembers[:half], groupMembers[half:]} {
			if len(members) == 0 {
				continue
			}
			if _, err := mobility.StartGroup(eng, disk, members, gcfg, src.Stream("group", fmt.Sprint(gi)), cfg.Duration); err != nil {
				return DynamicsOutcome{}, err
			}
		}
	}

	// The omniscient probe: at each sample instant, every awake placed
	// sender's true density is itself plus its awake sender neighbors
	// (continuous workloads keep one transaction in flight per sender),
	// and its Equation 4 optimum is clamped exactly as the controller's
	// target is, so the gap measures tracking, not clamping.
	awake := func(id radio.NodeID) bool {
		return churner == nil || churner.Awake(id)
	}
	probe := probeWidths(eng, cfg.SampleInterval, cfg.Duration, cfg.Senders, func(id radio.NodeID, steady bool) (w, h int, ok bool) {
		if !awake(id) {
			return 0, 0, false
		}
		if _, placed := disk.Position(id); !placed {
			return 0, 0, false
		}
		t := 1.0
		for _, nb := range disk.Neighbors(id) {
			if nb != sinkID && awake(nb) {
				t++
			}
		}
		h, _ = model.OptimalBits(dataBits, t, cfg.MaxBits)
		h = max(h, cfg.MinBits)
		w = senders[id].widthOr(cfg.FixedBits)
		if steady && orc != nil {
			// Score estimator and controller against the oracle's
			// transaction-level ground truth (the probe's own t above is
			// the neighbor-count approximation of the same quantity).
			orc.Probe(id, senders[id].est.Estimate(), w, dataBits, cfg.MinBits, cfg.MaxBits)
		}
		return w, h, true
	})

	eng.Run()

	out := DynamicsOutcome{
		TruthDelivered: truth.Stats().Delivered,
		AFFDelivered:   rx.drv.Reassembler().Stats().Delivered,
		DeliveredBits:  rx.drv.Reassembler().Stats().DeliveredBits,
		Samples:        probe.samples,
	}
	for _, g := range gens {
		out.Offered += g.Stats().PacketsOffered
	}
	for _, r := range radios {
		out.TxBits += r.Meter().TxBits
	}
	out.CollisionRate = idLoss(out.TruthDelivered, out.AFFDelivered)
	out.Goodput = ratio(out.DeliveredBits, out.TxBits)
	out.MeanAchievedH, out.MeanOptimalH, out.HGap = probe.means()
	if churner != nil {
		out.Churn = churner.Counters()
	}
	if orc != nil {
		rep := orc.Report()
		out.Oracle = &rep
	}

	if trialObs != nil && trialObs.Metrics != nil {
		label := dynamicsLabel(scenario, policy)
		collectTrial(trialObs.Metrics, eng.Stats(), radios)
		collectDynamics(trialObs.Metrics, label, out)
		if snap, ok := rx.est.(density.Snapshotter); ok {
			snap.SnapshotInto(trialObs.Metrics, label)
		}
		if out.Oracle != nil {
			out.Oracle.SnapshotInto(trialObs.Metrics, label)
		}
	}
	out.Obs = trialObs
	return out, nil
}

// collectDynamics records one trial's dynamics counters and the steady-
// state width gauges (gauges merge by max, so the snapshot carries the
// worst trial per cell).
func collectDynamics(reg *metrics.Registry, label string, out DynamicsOutcome) {
	reg.Counter("dyn_offered_total", label).Add(out.Offered)
	reg.Counter("dyn_truth_delivered_total", label).Add(out.TruthDelivered)
	reg.Counter("dyn_aff_delivered_total", label).Add(out.AFFDelivered)
	reg.Counter("dyn_delivered_bits_total", label).Add(out.DeliveredBits)
	reg.Counter("dyn_tx_bits_total", label).Add(out.TxBits)
	reg.Counter("churn_joins_total", label).Add(out.Churn.Joins)
	reg.Counter("churn_leaves_total", label).Add(out.Churn.Leaves)
	reg.Counter("churn_sleeps_total", label).Add(out.Churn.Sleeps)
	reg.Counter("churn_wakes_total", label).Add(out.Churn.Wakes)
	reg.Gauge("dyn_achieved_h_steady", label).SetMax(out.MeanAchievedH)
	reg.Gauge("dyn_optimal_h_steady", label).SetMax(out.MeanOptimalH)
	reg.Gauge("dyn_h_gap_steady", label).SetMax(out.HGap)
}

// Render renders the sweep as a table, one row per cell.
func (res DynamicsResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Identifier sizing under dynamics (%d senders, %v x %d trials, %gx%g area, range %g)\n",
		res.Config.Senders, res.Config.Duration, res.Config.Trials,
		res.Config.Area.W, res.Config.Area.H, res.Config.Range)
	fmt.Fprintf(&b, "%-11s %-9s %18s %8s %8s %6s %6s %12s %15s\n",
		"scenario", "policy", "delivery", "goodput", "collide", "achH", "optH", "gap", "churn j/l/s/w")
	for _, r := range res.Rows {
		fmt.Fprintf(&b, "%-11s %-9s %9.4f ± %.4f %8.4f %8.4f %6.2f %6.2f %5.2f ± %.2f %15s\n",
			r.Scenario, r.Policy,
			r.Delivery.Mean, r.Delivery.StdDev,
			r.Goodput.Mean, r.Collision.Mean,
			r.AchievedH.Mean, r.OptimalH.Mean,
			r.Gap.Mean, r.Gap.StdDev,
			fmt.Sprintf("%d/%d/%d/%d", r.Churn.Joins, r.Churn.Leaves, r.Churn.Sleeps, r.Churn.Wakes))
	}
	if anyOracle(res.Rows, func(r DynamicsRow) *oracle.Report { return r.Oracle }) {
		fmt.Fprintf(&b, "\nOracle conformance (omniscient ground truth; gaps in bits vs Eq. 4 optimum)\n")
		fmt.Fprintf(&b, "%-11s %-17s %8s %8s %8s %8s %9s %8s %12s\n",
			"scenario", "policy", "estP50", "estP95", "|gap|", "gapP95", "audited", "collide", "violations")
		for _, r := range res.Rows {
			o := r.Oracle
			if o == nil {
				continue
			}
			fmt.Fprintf(&b, "%-11s %-17s %8.2f %8.2f %8.2f %8.2f %9d %8d %12s\n",
				r.Scenario, r.Policy,
				o.EstErrorPercentile(50), o.EstErrorPercentile(95),
				o.MeanAbsWidthGap(), o.WidthGapPercentile(95),
				o.PacketsAudited, o.CollisionEvents, violations(o))
		}
	}
	return b.String()
}

// CSV renders the sweep for plotting. Summary records (kind=summary) carry
// one row per cell; time-series records (kind=h_t) carry the trial-
// averaged achieved-vs-optimal width at each sample instant.
func (res DynamicsResult) CSV() string {
	var sb strings.Builder
	w := csv.NewWriter(&sb)
	_ = w.Write([]string{"kind", "scenario", "policy", "t_seconds",
		"delivery", "delivery_stddev", "goodput", "collision_rate",
		"achieved_h", "optimal_h", "h_gap", "h_gap_stddev", "awake",
		"offered", "truth_delivered", "aff_delivered",
		"joins", "leaves", "sleeps", "wakes", "trials"})
	for _, r := range res.Rows {
		_ = w.Write([]string{"summary", string(r.Scenario), string(r.Policy), "",
			formatFloat(r.Delivery.Mean), formatFloat(r.Delivery.StdDev),
			formatFloat(r.Goodput.Mean), formatFloat(r.Collision.Mean),
			formatFloat(r.AchievedH.Mean), formatFloat(r.OptimalH.Mean),
			formatFloat(r.Gap.Mean), formatFloat(r.Gap.StdDev), "",
			strconv.FormatInt(r.Offered, 10), strconv.FormatInt(r.TruthDelivered, 10),
			strconv.FormatInt(r.AFFDelivered, 10),
			strconv.FormatInt(r.Churn.Joins, 10), strconv.FormatInt(r.Churn.Leaves, 10),
			strconv.FormatInt(r.Churn.Sleeps, 10), strconv.FormatInt(r.Churn.Wakes, 10),
			strconv.Itoa(r.Delivery.N),
		})
	}
	for _, r := range res.Rows {
		for _, p := range r.Series {
			_ = w.Write([]string{"h_t", string(r.Scenario), string(r.Policy),
				formatFloat(p.At.Seconds()), "", "", "", "",
				formatFloat(p.AchievedH), formatFloat(p.OptimalH), "", "",
				formatFloat(p.Awake), "", "", "", "", "", "", "", "",
			})
		}
	}
	w.Flush()
	return sb.String()
}
