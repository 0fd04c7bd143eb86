package experiment

import (
	"fmt"
	"math"
	"strconv"
	"strings"
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

// ScalingConfig parameterizes the network-growth experiment behind the
// paper's central scaling claim: "identifier sizes grow with a system's
// density, not its overall size" (Section 1). Nodes sit on an n×n grid
// with short-range radios and strictly local (single-hop broadcast)
// periodic traffic, so the transaction density any node sees is set by
// its neighbourhood and stays constant as the grid grows.
type ScalingConfig struct {
	Run
	// GridSizes lists the n of each n×n deployment.
	GridSizes []int
	// Spacing is the grid pitch; Range is the radio range. The defaults
	// (5, 7.5) connect each interior node to its 8 neighbours.
	Spacing float64
	Range   float64
	// IDBits is the fixed RETRI pool width under test.
	IDBits int
	// PacketSize and Interval shape each node's periodic traffic.
	PacketSize int
	Interval   time.Duration
	// Trials is the repetition count per grid size.
	Trials int
}

// DefaultScalingConfig fixes a 5-bit pool: far too small to *name* the
// larger deployments (a 5-bit static space is exhausted beyond 32 nodes)
// yet ample for the local transaction density, which is the claim.
func DefaultScalingConfig() ScalingConfig {
	return ScalingConfig{
		Run:        Run{Seed: 1, Duration: time.Minute},
		GridSizes:  []int{4, 8, 12},
		Spacing:    5,
		Range:      7.5,
		IDBits:     5,
		PacketSize: 32,
		Interval:   time.Second,
		Trials:     3,
	}
}

// ScalingPoint is the measurement at one network size.
type ScalingPoint struct {
	// Grid and Nodes describe the deployment.
	Grid  int
	Nodes int
	// CollisionRate aggregates, across trials, the fraction of
	// ground-truth-reassembled packets lost on the AFF identifier alone,
	// summed over every receiver in the network.
	CollisionRate stats.Summary
	// MeanDensity is the average per-node time-averaged transaction
	// density (the interval estimator at end of trial).
	MeanDensity stats.Summary
	// StaticBitsNeeded is the smallest address width an optimally
	// allocated static scheme needs for this deployment.
	StaticBitsNeeded int
	// StaticExhausted reports whether a static space of the *same* width
	// as the RETRI pool under test could even name this deployment.
	StaticExhausted bool
	// EAFFModel and EStaticModel are the model's efficiencies at the
	// config's packet size: AFF at the fixed IDBits and measured density,
	// versus optimal static allocation at StaticBitsNeeded.
	EAFFModel    float64
	EStaticModel float64
}

// ScalingResult is the full sweep.
type ScalingResult struct {
	Config ScalingConfig
	Points []ScalingPoint
}

// RunScaling executes the sweep.
func RunScaling(cfg ScalingConfig) (ScalingResult, error) {
	if err := cfg.Run.Validate(); err != nil {
		return ScalingResult{}, err
	}
	if len(cfg.GridSizes) == 0 || cfg.Trials < 1 {
		return ScalingResult{}, fmt.Errorf("experiment: degenerate scaling config (grids=%d trials=%d)", len(cfg.GridSizes), cfg.Trials)
	}
	res := ScalingResult{Config: cfg}
	type outcome struct{ coll, dens float64 }
	groups, err := runCells(cfg.Run, nil, "scaling", cfg.GridSizes, cfg.Trials,
		func(n int) []string { return []string{strconv.Itoa(n)} },
		func(n int, src *xrand.Source) (outcome, error) {
			c, d, err := runScalingTrial(cfg, n, src)
			return outcome{c, d}, err
		}, nil, nil)
	if err != nil {
		return ScalingResult{}, err
	}
	for gi, n := range cfg.GridSizes {
		var coll, dens stats.Accumulator
		for _, out := range groups[gi] {
			coll.Add(out.coll)
			dens.Add(out.dens)
		}
		nodes := n * n
		staticBits := bitsForPopulation(nodes)
		dataBits := 8 * cfg.PacketSize
		res.Points = append(res.Points, ScalingPoint{
			Grid:             n,
			Nodes:            nodes,
			CollisionRate:    coll.Summary(),
			MeanDensity:      dens.Summary(),
			StaticBitsNeeded: staticBits,
			StaticExhausted:  uint64(nodes) > uint64(1)<<uint(cfg.IDBits),
			EAFFModel:        model.EAFF(dataBits, cfg.IDBits, dens.Mean()),
			EStaticModel:     model.EStatic(dataBits, staticBits),
		})
	}
	return res, nil
}

// runScalingTrial builds one grid deployment and measures the network-wide
// identifier-collision rate and mean observed density.
func runScalingTrial(cfg ScalingConfig, n int, src *xrand.Source) (collisionRate, meanDensity float64, err error) {
	eng := sim.NewEngine()
	disk := radio.NewUnitDisk(cfg.Range)
	med := radio.NewMedium(eng, disk, radio.DefaultParams(), src.Stream("medium"))

	affCfg := aff.Config{
		Space:             core.MustSpace(cfg.IDBits),
		MTU:               27,
		Instrument:        true,
		ReassemblyTimeout: 2 * cfg.Interval,
	}

	type station struct {
		truth *aff.TruthReassembler
		drv   *node.AFFDriver
		est   *density.IntervalEstimator
	}
	stations := make([]station, 0, n*n)

	id := 0
	for row := 0; row < n; row++ {
		for col := 0; col < n; col++ {
			nid := radio.NodeID(id)
			id++
			disk.Place(nid, radio.Point{X: float64(col) * cfg.Spacing, Y: float64(row) * cfg.Spacing})
			r := med.MustAttach(nid)
			label := fmt.Sprint(nid)
			est := density.NewInterval(0, 0, eng.Now)
			sel := core.NewUniformSelector(affCfg.Space, src.Stream("sel", label))
			truth := aff.NewTruthReassembler(affCfg, eng.Now)
			drv, err := node.NewAFF(r, affCfg, sel, node.AFFOptions{
				Estimator: est,
				Truth:     truth,
			})
			if err != nil {
				return 0, 0, err
			}
			gen := workload.NewPeriodic(eng, drv, cfg.PacketSize, cfg.Interval, cfg.Interval/2, src.Stream("wl", label))
			gen.Start(cfg.Duration)
			stations = append(stations, station{truth: truth, drv: drv, est: est})
		}
	}

	eng.Run()

	var truthTotal, affTotal int64
	var densSum float64
	for _, s := range stations {
		truthTotal += s.truth.Stats().Delivered
		affTotal += s.drv.Reassembler().Stats().Delivered
		densSum += s.est.Estimate()
	}
	if truthTotal > 0 {
		lost := truthTotal - affTotal
		if lost < 0 {
			lost = 0
		}
		collisionRate = float64(lost) / float64(truthTotal)
	}
	meanDensity = densSum / float64(len(stations))
	return collisionRate, meanDensity, nil
}

// bitsForPopulation is the optimal static allocation: ceil(log2(nodes)).
func bitsForPopulation(nodes int) int {
	if nodes <= 1 {
		return 1
	}
	return int(math.Ceil(math.Log2(float64(nodes))))
}

// Render renders the scaling sweep.
func (r ScalingResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Scaling: fixed %d-bit RETRI identifiers vs optimal static allocation as the network grows\n", r.Config.IDBits)
	fmt.Fprintf(&b, "(%d-byte packets every %v per node, 8-neighbour locality, %d trials x %v)\n",
		r.Config.PacketSize, r.Config.Interval, r.Config.Trials, r.Config.Duration)
	fmt.Fprintf(&b, "%8s %7s %22s %14s %16s %12s %12s %12s\n",
		"grid", "nodes", "collision rate", "mean density",
		fmt.Sprintf("%d-bit static?", r.Config.IDBits), "static bits", "E_aff(model)", "E_static")
	for _, p := range r.Points {
		sameWidth := "OK"
		if p.StaticExhausted {
			sameWidth = "exhausted"
		}
		fmt.Fprintf(&b, "%5dx%-2d %7d %13.6f ± %6.4f %14.2f %16s %12d %12.4f %12.4f\n",
			p.Grid, p.Grid, p.Nodes, p.CollisionRate.Mean, p.CollisionRate.StdDev,
			p.MeanDensity.Mean, sameWidth, p.StaticBitsNeeded, p.EAFFModel, p.EStaticModel)
	}
	return b.String()
}
