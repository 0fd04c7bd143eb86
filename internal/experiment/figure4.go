package experiment

import (
	"fmt"
	"math/rand/v2"
	"strconv"
	"time"

	"retri/internal/aff"
	"retri/internal/core"
	"retri/internal/density"
	"retri/internal/model"
	"retri/internal/node"
	"retri/internal/radio"
	"retri/internal/sim"
	"retri/internal/stats"
	"retri/internal/workload"
	"retri/internal/xrand"
)

// EstimatorKind names a transaction-density estimator.
type EstimatorKind string

// Density estimators under test.
const (
	// EstEMA samples active-identifier counts at fragment arrivals and
	// smooths them exponentially.
	EstEMA EstimatorKind = "ema"
	// EstInterval time-averages concurrency over a sliding window,
	// matching the model's definition of T (Section 4.1); it is the
	// "more accurate ways of estimating T" refinement Section 8 asks for.
	EstInterval EstimatorKind = "interval"
)

// SelectorKind names an identifier-selection algorithm for experiments.
type SelectorKind string

// Selector kinds under test.
const (
	// SelUniform is the analysed worst case: uniform random selection.
	SelUniform SelectorKind = "uniform"
	// SelListening avoids recently heard identifiers with the adaptive
	// 2T window.
	SelListening SelectorKind = "listening"
	// SelListeningNotify is listening plus the receiver collision
	// notification extension.
	SelListeningNotify SelectorKind = "listening+notify"
	// SelSequential is the deterministic ablation control.
	SelSequential SelectorKind = "sequential"
)

// Figure4Config parameterizes the Section 5.1 validation experiment.
type Figure4Config struct {
	Run
	// Transmitters stream packets at one receiver (paper: 5).
	Transmitters int
	// PacketSize is the application packet in bytes (paper: 80).
	PacketSize int
	// PacketSizes, when non-empty, overrides PacketSize with a uniform
	// mix (the non-uniform transaction-length ablation).
	PacketSizes []int
	// Interval, when positive, replaces the continuous stream with a
	// periodic sender (one packet per Interval ± Interval/2 jitter).
	// Needed for scenarios where continuous hidden senders would destroy
	// every frame at the RF level before identifiers matter.
	Interval time.Duration
	// FixedWindow, when positive, pins the listening window to that many
	// transactions instead of the adaptive 2T rule (the listening-window
	// ablation).
	FixedWindow int
	// Estimator selects the density estimator driving adaptive windows:
	// EstEMA (default) or EstInterval (the Section 8 refinement).
	Estimator EstimatorKind
	// Trials per identifier size (paper: 10).
	Trials int
	// IDBits is the identifier sizes swept.
	IDBits []int
	// Selectors are the algorithms compared (paper: uniform, listening).
	Selectors []SelectorKind
	// Topology overrides the full mesh when non-nil (hidden-terminal
	// ablation); it is invoked with the transmitter count and the
	// receiver's node ID (transmitters are IDs 1..n).
	Topology func(transmitters int, receiver radio.NodeID) radio.Topology
	// Obs, when non-nil, opts the run into observability: per-trial
	// metrics and trace capture folded deterministically after the run
	// (see Obs). Results are byte-identical with or without it.
	Obs *Obs
	// ReassemblyTimeout bounds how long partial-packet state lives. It
	// approximates the model's interference window: Equation 4 counts
	// only transactions that *overlap*, so state left by a finished or
	// failed transaction must not linger much past the transaction's own
	// duration or identifier reuse is penalized beyond what the model
	// describes. The default (250ms) is a little under one 80-byte
	// transaction's duration under five-way contention; measured uniform
	// collision rates then track Equation 4 closely.
	ReassemblyTimeout time.Duration
}

// DefaultFigure4Config reproduces the paper's setup. The identifier sweep
// covers 2..10 bits: with T=5, one bit collides almost always and beyond
// 10 bits collisions are too rare to measure in two simulated minutes.
func DefaultFigure4Config() Figure4Config {
	return Figure4Config{
		Run:               Run{Seed: 1, Duration: 2 * time.Minute},
		Transmitters:      5,
		PacketSize:        80,
		Trials:            10,
		IDBits:            []int{2, 3, 4, 5, 6, 7, 8, 9, 10},
		Selectors:         []SelectorKind{SelUniform, SelListening},
		ReassemblyTimeout: 250 * time.Millisecond,
	}
}

// Figure4Result carries measured collision-rate series plus the model
// prediction.
type Figure4Result struct {
	Config Figure4Config
	// Measured maps selector kind to a series of collision rate vs
	// identifier bits, with per-point mean and stddev over trials (the
	// paper's error bars).
	Measured map[SelectorKind]*stats.Series
	// Model is Equation 4's predicted collision rate at T=Transmitters.
	Model []model.Point
	// TruthDelivered and AFFDelivered total the packet counts across all
	// trials, for sanity checks.
	TruthDelivered int64
	AFFDelivered   int64
}

// TrialOutcome reports one trial's counts.
type TrialOutcome struct {
	TruthDelivered int64
	AFFDelivered   int64
	// CollisionRate is 1 - AFF/Truth (0 when nothing was delivered).
	CollisionRate float64
	// EstimatedT is the receiver-side density estimate at the end of the
	// trial.
	EstimatedT float64
	// Obs is the trial's private observability capture, nil unless the
	// config's Obs requested one.
	Obs *TrialObs
}

// capture hands runCells the trial's observability capture to fold.
func (o TrialOutcome) capture() *TrialObs { return o.Obs }

// Validate rejects configurations Figure 4 cannot honor. Its four
// ablations and retri-sim run the same checks.
func (cfg Figure4Config) Validate() error {
	if err := cfg.Run.Validate(); err != nil {
		return err
	}
	if cfg.Transmitters < 1 || cfg.Trials < 1 || cfg.PacketSize < 1 || len(cfg.IDBits) == 0 {
		return fmt.Errorf("experiment: degenerate figure-4 config (transmitters=%d trials=%d packet=%d widths=%d)",
			cfg.Transmitters, cfg.Trials, cfg.PacketSize, len(cfg.IDBits))
	}
	for _, bits := range cfg.IDBits {
		if bits < 1 || bits > core.MaxBits {
			return fmt.Errorf("experiment: identifier width %d outside [1, %d]", bits, core.MaxBits)
		}
	}
	return nil
}

// Figure4 runs the full sweep.
func Figure4(cfg Figure4Config) (Figure4Result, error) {
	if err := cfg.Validate(); err != nil {
		return Figure4Result{}, err
	}
	res := Figure4Result{
		Config:   cfg,
		Measured: make(map[SelectorKind]*stats.Series, len(cfg.Selectors)),
	}
	type cell struct {
		sel  SelectorKind
		bits int
	}
	var cells []cell
	for _, sel := range cfg.Selectors {
		for _, bits := range cfg.IDBits {
			cells = append(cells, cell{sel, bits})
		}
	}
	groups, err := runCells(cfg.Run, cfg.Obs, "figure4", cells, cfg.Trials,
		func(c cell) []string { return []string{string(c.sel), strconv.Itoa(c.bits)} },
		func(c cell, src *xrand.Source) (TrialOutcome, error) {
			return RunCollisionTrial(cfg, c.sel, c.bits, src)
		},
		TrialOutcome.capture,
		func(c cell) string { return fmt.Sprintf("figure4 sel=%s bits=%d", c.sel, c.bits) })
	if err != nil {
		return Figure4Result{}, err
	}
	for ci, outs := range groups {
		c := cells[ci]
		series, ok := res.Measured[c.sel]
		if !ok {
			series = stats.NewSeries(string(c.sel))
			res.Measured[c.sel] = series
		}
		for _, out := range outs {
			series.Add(float64(c.bits), out.CollisionRate)
			res.TruthDelivered += out.TruthDelivered
			res.AFFDelivered += out.AFFDelivered
		}
	}
	for _, bits := range cfg.IDBits {
		res.Model = append(res.Model, model.Point{
			H: bits,
			E: model.CollisionRate(bits, float64(cfg.Transmitters)),
		})
	}
	// Pair the aggregated measurement with the per-trial predicted gauges:
	// the snapshot then carries observed vs predicted side by side.
	if cfg.Obs != nil && cfg.Obs.Metrics != nil {
		for _, sel := range cfg.Selectors {
			series, ok := res.Measured[sel]
			if !ok {
				continue
			}
			for _, p := range series.Points() {
				label := fmt.Sprintf("sel=%s,bits=%d", sel, int(p.X))
				cfg.Obs.Metrics.Gauge("aff_collision_rate_observed", label).Set(p.Y.Mean)
			}
		}
	}
	return res, nil
}

// RunCollisionTrial executes one trial: cfg.Transmitters nodes stream
// random packets at a single receiver for cfg.Duration; the receiver runs
// the AFF reassembler under test beside the ground-truth reassembler and
// the collision rate is the fraction of truth-delivered packets the AFF
// identifier alone failed to deliver (Section 5.1).
func RunCollisionTrial(cfg Figure4Config, selKind SelectorKind, idBits int, src *xrand.Source) (TrialOutcome, error) {
	eng := sim.NewEngine()
	params := radio.DefaultParams()

	const receiverID radio.NodeID = 0
	var topo radio.Topology = radio.FullMesh{}
	if cfg.Topology != nil {
		topo = cfg.Topology(cfg.Transmitters, receiverID)
	}
	med := radio.NewMedium(eng, topo, params, src.Stream("medium"))
	trialObs, _ := newTrialObs(cfg.Obs, med)

	affCfg := aff.Config{
		Space:             core.MustSpace(idBits),
		MTU:               params.MTU,
		Instrument:        true,
		ReassemblyTimeout: cfg.ReassemblyTimeout,
	}

	// Receiver: reassembler under test + ground truth side channel.
	rxRadio := med.MustAttach(receiverID)
	truth := aff.NewTruthReassembler(affCfg, eng.Now)
	rxEst := makeEstimator(cfg.Estimator, eng)
	rxSel, err := makeSelector(selKind, affCfg.Space, src.Stream("rx-sel"), windowOf(cfg, rxEst))
	if err != nil {
		return TrialOutcome{}, err
	}
	rx, err := node.NewAFF(rxRadio, affCfg, rxSel, node.AFFOptions{
		Estimator:        rxEst,
		Truth:            truth,
		NotifyCollisions: selKind == SelListeningNotify,
	})
	if err != nil {
		return TrialOutcome{}, err
	}

	// Transmitters: continuous streamers. In listening mode each
	// transmitter "also acts as a receiver, listening to packets
	// transmitted by other nodes" — our radios listen by default and the
	// driver's reassembler tap feeds the selector.
	radios := []*radio.Radio{rxRadio}
	for i := 1; i <= cfg.Transmitters; i++ {
		label := fmt.Sprint(i)
		txRadio := med.MustAttach(radio.NodeID(i))
		radios = append(radios, txRadio)
		est := makeEstimator(cfg.Estimator, eng)
		sel, err := makeSelector(selKind, affCfg.Space, src.Stream("sel", label), windowOf(cfg, est))
		if err != nil {
			return TrialOutcome{}, err
		}
		d, err := node.NewAFF(txRadio, affCfg, sel, node.AFFOptions{
			Estimator:        est,
			ObserveOwn:       selKind == SelListening || selKind == SelListeningNotify,
			NotifyCollisions: selKind == SelListeningNotify,
		})
		if err != nil {
			return TrialOutcome{}, err
		}
		if cfg.Interval > 0 {
			gen := workload.NewPeriodic(eng, d, cfg.PacketSize, cfg.Interval, cfg.Interval/2, src.Stream("wl", label))
			gen.Start(cfg.Duration)
		} else {
			sizes := cfg.PacketSizes
			if len(sizes) == 0 {
				sizes = []int{cfg.PacketSize}
			}
			gen := workload.NewContinuousMixed(eng, d, sizes, 0, src.Stream("wl", label))
			gen.Start(cfg.Duration)
		}
	}

	eng.Run()

	out := TrialOutcome{
		TruthDelivered: truth.Stats().Delivered,
		AFFDelivered:   rx.Reassembler().Stats().Delivered,
		EstimatedT:     rxEst.Estimate(),
	}
	out.CollisionRate = idLoss(out.TruthDelivered, out.AFFDelivered)
	if trialObs != nil && trialObs.Metrics != nil {
		collectTrial(trialObs.Metrics, eng.Stats(), radios)
		collectAFF(trialObs.Metrics, fmt.Sprintf("sel=%s,bits=%d", selKind, idBits),
			rx.Reassembler().Stats(), truth.Stats(),
			model.CollisionRate(idBits, float64(cfg.Transmitters)))
	}
	out.Obs = trialObs
	return out, nil
}

// makeEstimator builds the configured density estimator on the engine's
// clock.
func makeEstimator(kind EstimatorKind, eng *sim.Engine) density.TEstimator {
	if kind == EstInterval {
		return density.NewInterval(0, 0, eng.Now)
	}
	return density.New(0, 0, eng.Now)
}

// windowOf picks the listening-window rule for a node: the config's fixed
// override, or the estimator's adaptive 2T.
func windowOf(cfg Figure4Config, est density.TEstimator) core.WindowFunc {
	if cfg.FixedWindow > 0 {
		return core.FixedWindow(cfg.FixedWindow)
	}
	return est.Window
}

// makeSelector builds the selector for one node. Listening variants use
// the supplied window rule (adaptive 2T by default).
func makeSelector(kind SelectorKind, space core.Space, rng *rand.Rand, window core.WindowFunc) (core.Selector, error) {
	switch kind {
	case SelUniform:
		return core.NewUniformSelector(space, rng), nil
	case SelListening, SelListeningNotify:
		return core.NewListeningSelector(space, rng, window), nil
	case SelSequential:
		return core.NewSequentialSelector(space, rng.Uint64N(space.Size())), nil
	default:
		return nil, fmt.Errorf("experiment: unknown selector kind %q", kind)
	}
}
