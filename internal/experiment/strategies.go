package experiment

import (
	"encoding/csv"
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"retri/internal/aff"
	"retri/internal/core"
	"retri/internal/model"
	"retri/internal/node"
	"retri/internal/oracle"
	"retri/internal/radio"
	"retri/internal/sim"
	"retri/internal/stats"
	"retri/internal/workload"
	"retri/internal/xrand"
)

// ParseStrategies parses a comma-separated identifier-strategy list for
// the CLI; "all" selects every registered strategy in sorted order.
func ParseStrategies(s string) ([]string, error) {
	return parseList(s, "identifier strategy", core.Strategies(), core.Strategies())
}

// StrategiesConfig parameterizes the identifier-strategy bazaar: every
// selected strategy drives the same star workload at each transaction
// density, and the strategies are compared on measured collision rate,
// delivery, header overhead (goodput) and conformance to the Equation 4
// uniform-selection prediction — with the omniscient oracle passively
// auditing each strategy's never-misdeliver and identifier-freshness
// invariants.
type StrategiesConfig struct {
	Run
	// Strategies are the registered identifier-selection strategies
	// compared (core.Strategies lists them).
	Strategies []string
	// Densities are the concurrent-transmitter counts swept; each is the
	// T of one column of cells.
	Densities []int
	// IDBits is the identifier pool width shared by every strategy.
	IDBits int
	// PacketSize is the application payload in bytes.
	PacketSize int
	// Trials per (strategy, density) cell.
	Trials int
	// Oracle attaches the omniscient conformance harness to every trial.
	// The wire format is instrumented either way, so the oracle is
	// strictly passive here: output is byte-identical with it on or off.
	Oracle bool
	// ReassemblyTimeout bounds partial-packet state, as in Figure 4.
	ReassemblyTimeout time.Duration
	// Obs behaves exactly as in Figure4Config.
	Obs *Obs
}

// DefaultStrategiesConfig compares every registered strategy at the
// paper's five-transmitter density plus a sparser and a denser cell, over
// the Figure 4 workload and an 8-bit pool (wide enough that strategy
// differences, not pool exhaustion, dominate).
func DefaultStrategiesConfig() StrategiesConfig {
	return StrategiesConfig{
		Run:               Run{Seed: 1, Duration: 2 * time.Minute},
		Strategies:        core.Strategies(),
		Densities:         []int{2, 5, 10},
		IDBits:            8,
		PacketSize:        80,
		Trials:            5,
		Oracle:            true,
		ReassemblyTimeout: 250 * time.Millisecond,
	}
}

// Validate rejects configurations the trial loop cannot honor.
func (cfg StrategiesConfig) Validate() error {
	if err := cfg.Run.Validate(); err != nil {
		return err
	}
	if len(cfg.Strategies) == 0 || len(cfg.Densities) == 0 || cfg.Trials < 1 {
		return fmt.Errorf("experiment: degenerate strategies config (strategies=%d densities=%d trials=%d)",
			len(cfg.Strategies), len(cfg.Densities), cfg.Trials)
	}
	known := make(map[string]bool)
	for _, name := range core.Strategies() {
		known[name] = true
	}
	for _, name := range cfg.Strategies {
		if !known[name] {
			return fmt.Errorf("experiment: unknown identifier strategy %q", name)
		}
	}
	for _, t := range cfg.Densities {
		if t < 1 {
			return fmt.Errorf("experiment: strategy density %d must be positive", t)
		}
	}
	if cfg.IDBits < 1 || cfg.IDBits > core.MaxBits {
		return fmt.Errorf("experiment: strategy pool width %d outside [1, %d]", cfg.IDBits, core.MaxBits)
	}
	if cfg.PacketSize < 1 {
		return fmt.Errorf("experiment: strategies packet size %d must be positive", cfg.PacketSize)
	}
	return nil
}

// StrategyOutcome reports one trial.
type StrategyOutcome struct {
	// Offered counts packets the workload generators handed down.
	Offered int64
	// TruthDelivered and AFFDelivered are the sink's ground-truth and
	// identifier-keyed packet counts, as in Figure 4.
	TruthDelivered int64
	AFFDelivered   int64
	// DeliveredBits is application payload delivered at the sink; TxBits
	// is every bit any radio transmitted. Their ratio is the measured
	// goodput — each strategy's header overhead shows up here.
	DeliveredBits int64
	TxBits        int64
	// CollisionRate is 1 - AFF/Truth (identifier-only loss).
	CollisionRate float64
	// Goodput is DeliveredBits/TxBits (0 when nothing was sent).
	Goodput float64
	// Oracle is the trial's conformance report, nil unless attached.
	Oracle *oracle.Report
	// Obs is the trial's private observability capture, nil unless
	// requested.
	Obs *TrialObs
}

// DeliveryRatio is sink deliveries over offered packets.
func (o StrategyOutcome) DeliveryRatio() float64 { return ratio(o.AFFDelivered, o.Offered) }

// StrategyRow aggregates one (strategy, density) cell over trials.
type StrategyRow struct {
	Strategy string
	T        int
	// Delivery, Collision and Goodput summarize the per-trial outcome
	// fields of the same names; BitsPerDelivered is on-air bits spent per
	// packet the identifier layer delivered.
	Delivery         stats.Summary
	Collision        stats.Summary
	Goodput          stats.Summary
	BitsPerDelivered stats.Summary
	// ModelRate is Equation 4's predicted collision rate for a uniform
	// selector at this pool width and density; ConformanceGap is the
	// absolute distance of the measured mean from it. Strategies that beat
	// uniform selection (listening, permutation) sit below the prediction;
	// ones that collide persistently (sequential in phase) sit above.
	ModelRate      float64
	ConformanceGap float64
	// Totals across trials.
	Offered        int64
	TruthDelivered int64
	AFFDelivered   int64
	// Oracle is the conformance report merged over trials in trial order,
	// nil unless the sweep ran with the oracle attached.
	Oracle *oracle.Report
}

// StrategiesResult is the full sweep.
type StrategiesResult struct {
	Config StrategiesConfig
	Rows   []StrategyRow
}

// Check fails on any safety violation in a row that carries an oracle
// report.
func (res StrategiesResult) Check() error {
	return checkRows("strategies", res.Rows, func(r StrategyRow) string { return fmt.Sprintf("%s T=%d", r.Strategy, r.T) },
		func(r StrategyRow) error { return checkReport(r.Oracle, false) })
}

// Strategies runs the sweep: strategy x density x trials.
func Strategies(cfg StrategiesConfig) (StrategiesResult, error) {
	if err := cfg.Validate(); err != nil {
		return StrategiesResult{}, err
	}
	type cell struct {
		strategy string
		t        int
	}
	var cells []cell
	for _, strategy := range cfg.Strategies {
		for _, t := range cfg.Densities {
			cells = append(cells, cell{strategy, t})
		}
	}
	groups, err := runCells(cfg.Run, cfg.Obs, "strategies", cells, cfg.Trials,
		func(c cell) []string { return []string{c.strategy, strconv.Itoa(c.t)} },
		func(c cell, src *xrand.Source) (StrategyOutcome, error) {
			return RunStrategyTrial(cfg, c.strategy, c.t, src)
		},
		func(o StrategyOutcome) *TrialObs { return o.Obs },
		func(c cell) string { return "strategies " + strategyLabel(c.strategy, c.t) })
	if err != nil {
		return StrategiesResult{}, err
	}

	res := StrategiesResult{Config: cfg}
	for ci, outs := range groups {
		c := cells[ci]
		row := StrategyRow{Strategy: c.strategy, T: c.t, ModelRate: model.CollisionRate(cfg.IDBits, float64(c.t))}
		var del, coll, good, bpp stats.Accumulator
		for _, out := range outs {
			del.Add(out.DeliveryRatio())
			coll.Add(out.CollisionRate)
			good.Add(out.Goodput)
			bpp.Add(ratio(out.TxBits, out.AFFDelivered))
			row.Offered += out.Offered
			row.TruthDelivered += out.TruthDelivered
			row.AFFDelivered += out.AFFDelivered
			row.Oracle = mergeReport(row.Oracle, out.Oracle)
		}
		row.Delivery = del.Summary()
		row.Collision = coll.Summary()
		row.Goodput = good.Summary()
		row.BitsPerDelivered = bpp.Summary()
		row.ConformanceGap = math.Abs(row.Collision.Mean - row.ModelRate)
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

func strategyLabel(strategy string, t int) string {
	return fmt.Sprintf("strategy=%s,t=%d", strategy, t)
}

// RunStrategyTrial executes one trial of one (strategy, density) cell: t
// transmitters, each drawing identifiers with the named strategy, stream
// packets at a single receiver for cfg.Duration; the receiver runs the
// reassembler under test beside the ground-truth reassembler, exactly as
// in Figure 4, and the oracle (when attached) audits every frame and
// delivery against omniscient ground truth.
func RunStrategyTrial(cfg StrategiesConfig, strategy string, t int, src *xrand.Source) (StrategyOutcome, error) {
	eng := sim.NewEngine()
	params := radio.DefaultParams()

	const receiverID radio.NodeID = 0
	med := radio.NewMedium(eng, radio.FullMesh{}, params, src.Stream("medium"))
	trialObs, _ := newTrialObs(cfg.Obs, med)

	affCfg := aff.Config{
		Space:             core.MustSpace(cfg.IDBits),
		MTU:               params.MTU,
		Instrument:        true,
		ReassemblyTimeout: cfg.ReassemblyTimeout,
	}
	orc, sp, err := attachTruth(med, cfg.Obs, trialObs, truthSpec{AFF: affCfg, Oracle: cfg.Oracle})
	if err != nil {
		return StrategyOutcome{}, err
	}

	makeSel := func(label string, est interface{ Window() int }) (core.Selector, error) {
		return core.NewStrategy(strategy, core.StrategyConfig{
			Space:  affCfg.Space,
			RNG:    src.Stream("sel", label),
			Window: est.Window,
			Now:    eng.Now,
		})
	}

	// Receiver: reassembler under test + ground truth side channel.
	rxRadio := med.MustAttach(receiverID)
	truth := aff.NewTruthReassembler(affCfg, eng.Now)
	rxEst := makeEstimator(EstEMA, eng)
	rxSel, err := makeSel("rx", rxEst)
	if err != nil {
		return StrategyOutcome{}, err
	}
	rxOpts := node.AFFOptions{
		Estimator: rxEst,
		Truth:     truth,
		OnDeliver: orc.DeliveryAudit(receiverID),
	}
	if sp != nil {
		rxOpts.Span = sp
	}
	rx, err := node.NewAFF(rxRadio, affCfg, rxSel, rxOpts)
	if err != nil {
		return StrategyOutcome{}, err
	}

	radios := []*radio.Radio{rxRadio}
	var gens []*workload.Continuous
	for i := 1; i <= t; i++ {
		id := radio.NodeID(i)
		label := fmt.Sprint(i)
		txRadio := med.MustAttach(id)
		radios = append(radios, txRadio)
		est := makeEstimator(EstEMA, eng)
		sel, err := makeSel(label, est)
		if err != nil {
			return StrategyOutcome{}, err
		}
		txOpts := node.AFFOptions{
			Estimator: est,
			// Listening is the only built-in strategy with learned state;
			// observing one's own draws mirrors the Figure 4 setup.
			ObserveOwn: strategy == "listening",
			OnDeliver:  orc.DeliveryAudit(id),
		}
		if sp != nil {
			txOpts.Span = sp
		}
		d, err := node.NewAFF(txRadio, affCfg, sel, txOpts)
		if err != nil {
			return StrategyOutcome{}, err
		}
		gen := workload.NewContinuousMixed(eng, d, []int{cfg.PacketSize}, 0, src.Stream("wl", label))
		gen.Start(cfg.Duration)
		gens = append(gens, gen)
	}

	eng.Run()

	out := StrategyOutcome{
		TruthDelivered: truth.Stats().Delivered,
		AFFDelivered:   rx.Reassembler().Stats().Delivered,
		DeliveredBits:  rx.Reassembler().Stats().DeliveredBits,
	}
	for _, g := range gens {
		out.Offered += g.Stats().PacketsOffered
	}
	for _, r := range radios {
		out.TxBits += r.Meter().TxBits
	}
	out.CollisionRate = idLoss(out.TruthDelivered, out.AFFDelivered)
	out.Goodput = ratio(out.DeliveredBits, out.TxBits)
	if orc != nil {
		rep := orc.Report()
		out.Oracle = &rep
	}

	if trialObs != nil && trialObs.Metrics != nil {
		label := strategyLabel(strategy, t)
		collectTrial(trialObs.Metrics, eng.Stats(), radios)
		collectAFF(trialObs.Metrics, label, rx.Reassembler().Stats(), truth.Stats(),
			model.CollisionRate(cfg.IDBits, float64(t)))
		if out.Oracle != nil {
			out.Oracle.SnapshotInto(trialObs.Metrics, label)
		}
	}
	out.Obs = trialObs
	return out, nil
}

// Render renders the sweep as a table, one row per cell, with the oracle
// conformance section when the oracle ran.
func (res StrategiesResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Identifier strategies (%d-bit pool, %v x %d trials, %d-byte packets)\n",
		res.Config.IDBits, res.Config.Duration, res.Config.Trials, res.Config.PacketSize)
	fmt.Fprintf(&b, "%-12s %3s %18s %18s %9s %8s %8s %9s\n",
		"strategy", "T", "delivery", "collide", "eq4", "|gap|", "goodput", "bits/pkt")
	for _, r := range res.Rows {
		fmt.Fprintf(&b, "%-12s %3d %9.4f ± %.4f %9.4f ± %.4f %9.4f %8.4f %8.4f %9.0f\n",
			r.Strategy, r.T,
			r.Delivery.Mean, r.Delivery.StdDev,
			r.Collision.Mean, r.Collision.StdDev,
			r.ModelRate, r.ConformanceGap,
			r.Goodput.Mean, r.BitsPerDelivered.Mean)
	}
	if anyOracle(res.Rows, func(r StrategyRow) *oracle.Report { return r.Oracle }) {
		fmt.Fprintf(&b, "\nOracle conformance (omniscient ground truth)\n")
		fmt.Fprintf(&b, "%-12s %3s %9s %8s %9s %12s\n",
			"strategy", "T", "audited", "collide", "abandoned", "violations")
		for _, r := range res.Rows {
			o := r.Oracle
			if o == nil {
				continue
			}
			fmt.Fprintf(&b, "%-12s %3d %9d %8d %9d %12s\n",
				r.Strategy, r.T,
				o.PacketsAudited, o.CollisionEvents, o.TransactionsAbandoned, violations(o))
		}
	}
	return b.String()
}

// CSV renders the sweep for plotting: one record per cell.
func (res StrategiesResult) CSV() string {
	var sb strings.Builder
	w := csv.NewWriter(&sb)
	_ = w.Write([]string{"strategy", "t", "id_bits",
		"delivery", "delivery_stddev", "collision_rate", "collision_stddev",
		"model_rate", "conformance_gap", "goodput", "bits_per_delivered",
		"offered", "truth_delivered", "aff_delivered",
		"oracle_collisions", "oracle_conservation", "oracle_misdeliveries", "oracle_freshness",
		"trials"})
	for _, r := range res.Rows {
		oc, ocons, omis, ofresh := "", "", "", ""
		if r.Oracle != nil {
			oc = strconv.FormatInt(r.Oracle.CollisionEvents, 10)
			ocons = strconv.FormatInt(r.Oracle.ConservationViolations, 10)
			omis = strconv.FormatInt(r.Oracle.Misdeliveries, 10)
			ofresh = strconv.FormatInt(r.Oracle.FreshnessViolations, 10)
		}
		_ = w.Write([]string{r.Strategy, strconv.Itoa(r.T), strconv.Itoa(res.Config.IDBits),
			formatFloat(r.Delivery.Mean), formatFloat(r.Delivery.StdDev),
			formatFloat(r.Collision.Mean), formatFloat(r.Collision.StdDev),
			formatFloat(r.ModelRate), formatFloat(r.ConformanceGap),
			formatFloat(r.Goodput.Mean), formatFloat(r.BitsPerDelivered.Mean),
			strconv.FormatInt(r.Offered, 10), strconv.FormatInt(r.TruthDelivered, 10),
			strconv.FormatInt(r.AFFDelivered, 10),
			oc, ocons, omis, ofresh,
			strconv.Itoa(r.Delivery.N),
		})
	}
	w.Flush()
	return sb.String()
}
