package experiment

import (
	"encoding/csv"
	"fmt"
	"strconv"
	"strings"
	"time"

	"retri/internal/mobility"
	"retri/internal/shard"
	"retri/internal/xrand"
)

// MassiveConfig parameterizes the massive-population sweep: the same
// duty-cycled machine-type workload run at populations two orders of
// magnitude apart, on the region-sharded core (internal/shard) instead of
// the legacy per-node object stack. The world's area grows with the
// population (tiles of side Range holding NodesPerTile nodes each), so the
// spatial node density — and with the same duty cycle, the awake
// transaction density T — stays roughly constant while N varies. That is
// the paper's thesis stated as an experiment: identifier width must track
// T, not N.
type MassiveConfig struct {
	// Run's Parallelism is the shard worker count inside each trial:
	// trials run one at a time, and results are byte-identical at every
	// setting.
	Run
	// Populations are the node counts swept, in row order.
	Populations []int
	// Trials per (population, policy) cell; counters merge across trials.
	Trials int
	// Policies are the width arms compared. The sharded sensor model
	// supports WidthFixed (every transaction at FixedBits) and
	// WidthAdaptiveTurnover (width from Eq. 4 against the node's live
	// partial-set estimate of T, which retires an identifier the moment
	// its transaction completes — the turnover rule).
	Policies []WidthPolicyKind
	// NodesPerTile sets the shard grain; tile side equals Range.
	NodesPerTile int
	// Range is the radio range.
	Range float64
	// Duty is the sleep/wake schedule every node runs.
	Duty mobility.DutyCycle
	// SendGap is the mean exponential gap between transactions while awake.
	SendGap time.Duration
	// Fragments, FrameAir and FragGap shape one transaction on the air;
	// FrameAir is also the engine's conservative lookahead.
	Fragments int
	FrameAir  time.Duration
	FragGap   time.Duration
	// PacketSize is the application payload in bytes (Eq. 4's D is its
	// bit size).
	PacketSize int
	// FixedBits is the fixed arm's width; MinBits/MaxBits clamp the
	// adaptive arm.
	FixedBits        int
	MinBits, MaxBits int
	// FrameLoss is the independent per-receiver frame-loss probability.
	FrameLoss float64
	// ProbeEvery spaces the omniscient concurrency probes; AuditEvery
	// samples every k-th node for never-misdeliver and freshness audits.
	ProbeEvery time.Duration
	AuditEvery int
}

// DefaultMassiveConfig is the machine-type random-access regime: a 2%
// duty cycle over tiles of 500 nodes, so on the order of thirty nodes are
// awake within any radio disk and roughly T≈3 transactions overlap at a
// receiver — constant across populations from 10^4 to 10^6.
func DefaultMassiveConfig() MassiveConfig {
	return MassiveConfig{
		Run:          Run{Seed: 1, Duration: 10 * time.Second},
		Populations:  []int{10_000, 100_000, 1_000_000},
		Trials:       1,
		Policies:     []WidthPolicyKind{WidthFixed, WidthAdaptiveTurnover},
		NodesPerTile: 500,
		Range:        10,
		Duty:         mobility.DutyCycle{MeanUp: 200 * time.Millisecond, MeanDown: 9800 * time.Millisecond},
		SendGap:      150 * time.Millisecond,
		Fragments:    4,
		FrameAir:     2 * time.Millisecond,
		FragGap:      time.Millisecond,
		PacketSize:   48,
		FixedBits:    16,
		MinBits:      2,
		MaxBits:      24,
		FrameLoss:    0.01,
		ProbeEvery:   500 * time.Millisecond,
		AuditEvery:   16,
	}
}

// ParsePopulations parses the -nodes flag: a comma-separated list of
// positive node counts.
func ParsePopulations(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("experiment: invalid population %q (want a positive node count)", part)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("experiment: empty population list %q", s)
	}
	return out, nil
}

// Validate rejects configurations the sharded sensor model cannot run.
func (cfg MassiveConfig) Validate() error {
	if err := cfg.Run.Validate(); err != nil {
		return err
	}
	if len(cfg.Populations) == 0 || cfg.Trials < 1 || len(cfg.Policies) == 0 {
		return fmt.Errorf("experiment: degenerate massive config (populations=%d trials=%d policies=%d)",
			len(cfg.Populations), cfg.Trials, len(cfg.Policies))
	}
	if cfg.PacketSize < 1 {
		return fmt.Errorf("experiment: massive packet size %d must be positive", cfg.PacketSize)
	}
	for _, p := range cfg.Policies {
		if p != WidthFixed && p != WidthAdaptiveTurnover {
			return fmt.Errorf("experiment: massive supports policies %q and %q, got %q",
				WidthFixed, WidthAdaptiveTurnover, p)
		}
	}
	for _, n := range cfg.Populations {
		if n < 1 {
			return fmt.Errorf("experiment: massive population %d must be positive", n)
		}
	}
	// The remaining knobs are validated by the sensor model itself.
	return cfg.sensorConfig(1, WidthFixed).Validate()
}

// sensorConfig maps one (population, policy) cell onto the shard model.
func (cfg MassiveConfig) sensorConfig(nodes int, policy WidthPolicyKind) shard.SensorConfig {
	return shard.SensorConfig{
		Nodes:        nodes,
		NodesPerTile: cfg.NodesPerTile,
		Range:        cfg.Range,
		Duty:         cfg.Duty,
		SendGap:      cfg.SendGap,
		Fragments:    cfg.Fragments,
		FrameAir:     cfg.FrameAir,
		FragGap:      cfg.FragGap,
		DataBits:     8 * cfg.PacketSize,
		Adaptive:     policy == WidthAdaptiveTurnover,
		FixedBits:    cfg.FixedBits,
		MinBits:      cfg.MinBits,
		MaxBits:      cfg.MaxBits,
		FrameLoss:    cfg.FrameLoss,
		ProbeEvery:   cfg.ProbeEvery,
		AuditEvery:   cfg.AuditEvery,
	}
}

// MassiveRow is one (population, policy) cell, counters merged over trials
// in trial order. Every field except the Wall* pair is a pure function of
// (config, seed) — identical at every -parallel setting.
type MassiveRow struct {
	Population int
	Policy     WidthPolicyKind
	Tiles      int
	// Counters are the merged per-tile observables.
	Counters shard.Counters
	// Windows and Exchanged come from the shard driver: barrier windows
	// executed and records that crossed tile boundaries.
	Windows   uint64
	Exchanged uint64
	// Wall is total wall-clock across the cell's trials and WallEvents
	// the heap events plus per-receiver verdicts it bought — the
	// events-per-second numerator. Nondeterministic; reported on stderr
	// and excluded from Render/CSV so stdout stays byte-stable.
	Wall       time.Duration
	WallEvents uint64
}

// Label names the cell for error messages.
func (r MassiveRow) Label() string {
	return fmt.Sprintf("n=%d,policy=%s", r.Population, r.Policy)
}

// EventsPerSec is the cell's measured simulation throughput: engine events
// plus reception verdicts per wall-clock second.
func (r MassiveRow) EventsPerSec() float64 {
	if r.Wall <= 0 {
		return 0
	}
	return float64(r.WallEvents) / r.Wall.Seconds()
}

// MassiveResult is the full sweep.
type MassiveResult struct {
	Config MassiveConfig
	Rows   []MassiveRow
}

// Massive runs the sweep: population x policy cells, each trial a
// region-sharded run at Parallelism workers. Trials run one at a time — a
// single massive trial already saturates the machine through the shard
// pool.
func Massive(cfg MassiveConfig) (MassiveResult, error) {
	if err := cfg.Validate(); err != nil {
		return MassiveResult{}, err
	}
	workers := max(cfg.Parallelism, 1)
	seq := cfg.Run
	seq.Parallelism = 1
	var cells []MassiveRow
	for _, n := range cfg.Populations {
		for _, policy := range cfg.Policies {
			cells = append(cells, MassiveRow{Population: n, Policy: policy})
		}
	}
	type trial struct {
		ctr   shard.Counters
		stats shard.RunStats
		tiles int
		wall  time.Duration
	}
	groups, err := runCells(seq, nil, "massive", cells, cfg.Trials,
		func(c MassiveRow) []string { return []string{strconv.Itoa(c.Population), string(c.Policy)} },
		func(c MassiveRow, src *xrand.Source) (trial, error) {
			start := time.Now()
			ctr, stats, tiles, err := RunMassiveTrial(cfg, c.Population, c.Policy, workers, src)
			if err != nil {
				return trial{}, fmt.Errorf("massive %s: %w", c.Label(), err)
			}
			return trial{ctr, stats, tiles, time.Since(start)}, nil
		}, nil, nil)
	if err != nil {
		return MassiveResult{}, err
	}
	res := MassiveResult{Config: cfg, Rows: cells}
	for ci, trials := range groups {
		row := &res.Rows[ci]
		for _, t := range trials {
			row.Tiles = t.tiles
			row.Counters.Add(&t.ctr)
			row.Windows += t.stats.Windows
			row.Exchanged += t.stats.Exchanged
			row.Wall += t.wall
			row.WallEvents += t.ctr.Events + t.ctr.Verdicts
		}
	}
	return res, nil
}

// RunMassiveTrial executes one region-sharded trial and returns its merged
// counters, driver stats and tile count.
func RunMassiveTrial(cfg MassiveConfig, nodes int, policy WidthPolicyKind, workers int, src *xrand.Source) (shard.Counters, shard.RunStats, int, error) {
	cl, err := shard.NewCluster(cfg.sensorConfig(nodes, policy), src)
	if err != nil {
		return shard.Counters{}, shard.RunStats{}, 0, err
	}
	eng := shard.NewEngine(cfg.FrameAir, workers, cl.Regions()...)
	defer eng.Close()
	eng.Router = cl
	eng.OnBarrier = cl.OnBarrier
	eng.Run(cfg.Duration)
	return cl.Counters(), eng.Stats(), cl.Geom().Tiles(), nil
}

// Check fails on any audited safety violation: a sampled receiver that
// completed a reassembly stitched from two transactions, or a sender that
// reused its previous identifier. Like every audited sweep's Check, the
// CLI turns a non-nil result into a non-zero exit.
func (res MassiveResult) Check() error {
	return checkRows("massive", res.Rows, MassiveRow.Label, func(r MassiveRow) error {
		c := r.Counters
		if c.Misdeliveries > 0 {
			return fmt.Errorf("%d audited misdeliveries", c.Misdeliveries)
		}
		if c.FreshnessViolations > 0 {
			return fmt.Errorf("%d identifier-freshness violations", c.FreshnessViolations)
		}
		return nil
	})
}

// Render renders the sweep as a table. Wall-clock throughput is
// deliberately absent — see PerfNote — so the table is byte-stable at
// every worker count.
func (res MassiveResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Massive population: width tracks T, not N (%v x %d trials, %d/tile, duty %v/%v)\n",
		res.Config.Duration, res.Config.Trials, res.Config.NodesPerTile,
		res.Config.Duty.MeanUp, res.Config.Duty.MeanDown)
	fmt.Fprintf(&b, "%10s %-18s %6s %8s %9s %8s %7s %7s %7s %6s %7s %10s\n",
		"nodes", "policy", "tiles", "awake", "offered", "delivery", "collide", "meanT", "eq4H", "achH", "gap", "exchanged")
	for _, r := range res.Rows {
		c := r.Counters
		delivery := 0.0
		if c.TruthPairs > 0 {
			delivery = float64(c.Delivered) / float64(c.TruthPairs)
		}
		fmt.Fprintf(&b, "%10d %-18s %6d %8.0f %9d %8.4f %7.4f %7.2f %7.2f %6.2f %7.2f %10d\n",
			r.Population, r.Policy, r.Tiles, c.MeanAwake(), c.Offered,
			delivery, c.CollisionRate(), c.MeanT(), c.MeanOptH(), c.MeanWidth(), c.MeanGap(),
			r.Exchanged)
	}
	var audited, mis, fresh int64
	for _, r := range res.Rows {
		audited += r.Counters.AuditedDeliveries
		mis += r.Counters.Misdeliveries
		fresh += r.Counters.FreshnessViolations
	}
	fmt.Fprintf(&b, "audit: %d sampled deliveries, %d misdeliveries, %d freshness violations\n",
		audited, mis, fresh)
	return b.String()
}

// PerfNote is the nondeterministic half of the report — wall clock and
// events per second per cell — kept off stdout so the table and CSV stay
// byte-identical across -parallel settings. The CLI prints it to stderr.
func (res MassiveResult) PerfNote() string {
	var b strings.Builder
	for _, r := range res.Rows {
		fmt.Fprintf(&b, "massive %s: %d windows, %d events+verdicts in %v (%.3gM events/sec)\n",
			r.Label(), r.Windows, r.WallEvents, r.Wall.Round(time.Millisecond), r.EventsPerSec()/1e6)
	}
	return b.String()
}

// CSV renders the deterministic columns for plotting.
func (res MassiveResult) CSV() string {
	var sb strings.Builder
	w := csv.NewWriter(&sb)
	_ = w.Write([]string{"nodes", "policy", "tiles", "mean_awake", "offered", "records",
		"truth_pairs", "delivered", "delivery", "collision_rate", "conflicts",
		"mean_t", "eq4_h", "achieved_h", "h_gap",
		"windows", "exchanged", "audited", "misdeliveries", "freshness_violations", "trials"})
	for _, r := range res.Rows {
		c := r.Counters
		delivery := 0.0
		if c.TruthPairs > 0 {
			delivery = float64(c.Delivered) / float64(c.TruthPairs)
		}
		_ = w.Write([]string{
			strconv.Itoa(r.Population), string(r.Policy), strconv.Itoa(r.Tiles),
			formatFloat(c.MeanAwake()), strconv.FormatInt(c.Offered, 10),
			strconv.FormatInt(c.Records, 10), strconv.FormatInt(c.TruthPairs, 10),
			strconv.FormatInt(c.Delivered, 10), formatFloat(delivery),
			formatFloat(c.CollisionRate()), strconv.FormatInt(c.Conflicts, 10),
			formatFloat(c.MeanT()), formatFloat(c.MeanOptH()),
			formatFloat(c.MeanWidth()), formatFloat(c.MeanGap()),
			strconv.FormatUint(r.Windows, 10), strconv.FormatUint(r.Exchanged, 10),
			strconv.FormatInt(c.AuditedDeliveries, 10), strconv.FormatInt(c.Misdeliveries, 10),
			strconv.FormatInt(c.FreshnessViolations, 10), strconv.Itoa(res.Config.Trials),
		})
	}
	w.Flush()
	return sb.String()
}
