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
	"retri/internal/core"
	"retri/internal/density"
	"retri/internal/dynaddr"
	"retri/internal/flood"
	"retri/internal/metrics"
	"retri/internal/mobility"
	"retri/internal/node"
	"retri/internal/oracle"
	"retri/internal/radio"
	"retri/internal/runner"
	"retri/internal/shard"
	"retri/internal/sim"
	"retri/internal/stats"
	"retri/internal/workload"
	"retri/internal/xrand"
)

// MultihopArm names one protocol arm of the multi-hop regional sweep.
type MultihopArm string

// Arms under test.
const (
	// MultihopFixed runs today's compile-time identifier width end to end
	// over the flood relay: one global H regardless of where a node is.
	MultihopFixed MultihopArm = "fixed"
	// MultihopAdaptive closes the loop regionally: each sender's
	// turnover-aware estimator feeds Equation 4 and the chosen width rides
	// in-band, so dense-core nodes converge on wide identifiers while
	// sparse-edge nodes narrow theirs — divergent widths meeting in the
	// same multi-hop air.
	MultihopAdaptive MultihopArm = "adaptive-turnover"
	// MultihopDynaddr is the conventional baseline: claim-listen-defend
	// short addresses plus address-keyed fragmentation, paying explicit
	// re-allocation traffic every time churn wipes a node's address.
	MultihopDynaddr MultihopArm = "dynaddr"
)

// AllMultihopArms lists the arms in sweep order.
func AllMultihopArms() []MultihopArm {
	return []MultihopArm{MultihopFixed, MultihopAdaptive, MultihopDynaddr}
}

// ParseMultihopArms parses a comma-separated arm list for the CLI.
func ParseMultihopArms(s string) ([]MultihopArm, error) {
	if s == "all" {
		return AllMultihopArms(), nil
	}
	known := map[MultihopArm]bool{MultihopFixed: true, MultihopAdaptive: true, MultihopDynaddr: true}
	var out []MultihopArm
	for _, part := range strings.Split(s, ",") {
		a := MultihopArm(strings.TrimSpace(part))
		if a == "" {
			continue
		}
		if !known[a] {
			return nil, fmt.Errorf("experiment: unknown multihop arm %q (want fixed, adaptive-turnover, dynaddr or all)", a)
		}
		out = append(out, a)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("experiment: empty multihop arm list %q", s)
	}
	return out, nil
}

// widthPolicy maps an AFF arm to its identifier-width policy.
func (a MultihopArm) widthPolicy() WidthPolicyKind {
	if a == MultihopAdaptive {
		return WidthAdaptiveTurnover
	}
	return WidthFixed
}

// MultihopConfig parameterizes the multi-hop regional-dynamics experiment:
// a dense sender cluster roams the core of a large field while sparse
// walkers cover its edge, every frame rides the duplicate-suppressing
// flood relay toward a central sink, and the arms are compared on
// delivery, goodput, per-region width tracking and (for dynaddr) the
// explicit re-allocation traffic churn forces.
type MultihopConfig struct {
	// Seed roots all randomness; trials use derived streams.
	Seed uint64
	// Senders stream packets at the sink (node 0); they are nodes 1..N.
	Senders int
	// CoreSenders of them roam as one dense cluster confined to the
	// central ninth of the field (reference-point group mobility); the
	// rest are independent random-waypoint walkers over the whole field.
	CoreSenders int
	// PacketSize is the application payload in bytes.
	PacketSize int
	// Duration is simulated time per trial.
	Duration time.Duration
	// Trials per arm.
	Trials int
	// Arms are the protocol arms compared.
	Arms []MultihopArm
	// Regions splits the field into a Regions x Regions grid for the
	// per-region achieved-vs-optimal width table.
	Regions int
	// FixedBits is the fixed arm's global identifier width.
	FixedBits int
	// MinBits and MaxBits clamp the adaptive arm, as in DynamicsConfig.
	MinBits, MaxBits int
	// AddrBits is the dynaddr arm's short-address width.
	AddrBits int
	// TTL is the relay hop budget; a fragment is audible within TTL+1
	// hops of its origin.
	TTL int
	// DedupWindow and ForwardJitter parameterize the relay (see
	// flood.RelayConfig).
	DedupWindow   time.Duration
	ForwardJitter time.Duration
	// Area is the deployment region; the sink sits at its center.
	Area mobility.Area
	// Range is the unit-disk radio range. A field several ranges across
	// is what makes the sweep genuinely multi-hop.
	Range float64
	// MinSpeed, MaxSpeed and Pause drive both mobility models.
	MinSpeed, MaxSpeed float64
	Pause              time.Duration
	// GroupSpread is the member offset radius of the core cluster.
	GroupSpread float64
	// Duty duty-cycles every sender: multi-hop churn is the regime the
	// dynaddr baseline pays for and RETRI absorbs.
	Duty mobility.DutyCycle
	// SampleInterval spaces the per-region width probes.
	SampleInterval time.Duration
	// ReassemblyTimeout bounds partial-packet state.
	ReassemblyTimeout time.Duration
	// OracleRetain is the ground-truth tracker's closed-transaction
	// retention, shared by the oracle and the span tracer; it must cover
	// the worst relay latency or late relayed copies would be misread as
	// fresh transactions. Zero selects a safe default.
	OracleRetain time.Duration
	// Params overrides the radio parameters when non-nil.
	Params *radio.Params
	// ShardWindow, when positive, drains each trial under the
	// region-sharded driver exactly as in DynamicsConfig.
	ShardWindow time.Duration
	// Parallelism, Obs and Hooks behave exactly as in DynamicsConfig.
	Parallelism int
	Obs         *Obs
	Hooks       RunHooks
}

// DefaultMultihopConfig is a 12-sender deployment on a 90x90 field with an
// 18-unit radio range — five ranges across, so edge traffic needs the
// relay to reach the sink — with half the senders clustered in the core.
// The radio runs at 250 kb/s (802.15.4-class): under the saturating
// continuous workload the flood needs that headroom for fragments to
// actually propagate TTL hops, which is what lets each region's
// estimators hear the density the omniscient audibility truth charges
// them with. The 5ms forward jitter keeps the relay's lifetime stretch
// (jitter x hops) small against the estimator's idle gap for the same
// reason.
func DefaultMultihopConfig() MultihopConfig {
	params := radio.DefaultParams()
	params.BitRate = 250e3
	return MultihopConfig{
		Seed:              1,
		Senders:           12,
		CoreSenders:       6,
		PacketSize:        48,
		Duration:          2 * time.Minute,
		Trials:            3,
		Arms:              AllMultihopArms(),
		Regions:           3,
		FixedBits:         10,
		MinBits:           4,
		MaxBits:           16,
		AddrBits:          10,
		TTL:               3,
		DedupWindow:       10 * time.Second,
		ForwardJitter:     5 * time.Millisecond,
		Area:              mobility.Area{W: 90, H: 90},
		Range:             18,
		MinSpeed:          1,
		MaxSpeed:          3,
		Pause:             2 * time.Second,
		GroupSpread:       6,
		Duty:              mobility.DutyCycle{MeanUp: 60 * time.Second, MeanDown: 8 * time.Second},
		SampleInterval:    time.Second,
		ReassemblyTimeout: 250 * time.Millisecond,
		OracleRetain:      10 * time.Second,
		Params:            &params,
	}
}

// Validate rejects configurations the trial loop cannot honor.
func (cfg MultihopConfig) Validate() error {
	if cfg.Senders < 1 || cfg.Trials < 1 || len(cfg.Arms) == 0 {
		return fmt.Errorf("experiment: degenerate multihop config (senders=%d trials=%d arms=%d)",
			cfg.Senders, cfg.Trials, len(cfg.Arms))
	}
	if cfg.CoreSenders < 0 || cfg.CoreSenders > cfg.Senders {
		return fmt.Errorf("experiment: multihop core senders %d outside [0, %d]", cfg.CoreSenders, cfg.Senders)
	}
	if cfg.Duration <= 0 || cfg.SampleInterval <= 0 || cfg.SampleInterval > cfg.Duration {
		return fmt.Errorf("experiment: multihop needs 0 < sample interval <= duration, got %v/%v", cfg.SampleInterval, cfg.Duration)
	}
	if cfg.PacketSize < 1 {
		return fmt.Errorf("experiment: multihop packet size %d must be positive", cfg.PacketSize)
	}
	if cfg.Regions < 1 || cfg.Regions > 16 {
		return fmt.Errorf("experiment: multihop region grid %d outside [1, 16]", cfg.Regions)
	}
	if cfg.FixedBits < 1 || cfg.FixedBits > 32 {
		return fmt.Errorf("experiment: fixed width %d outside [1, 32]", cfg.FixedBits)
	}
	if cfg.MinBits < 1 || cfg.MaxBits < cfg.MinBits || cfg.MaxBits > 32 {
		return fmt.Errorf("experiment: adaptive width clamp [%d, %d] invalid", cfg.MinBits, cfg.MaxBits)
	}
	if cfg.AddrBits < 1 || cfg.AddrBits > 16 {
		return fmt.Errorf("experiment: dynaddr address width %d outside [1, 16]", cfg.AddrBits)
	}
	if cfg.TTL < 1 || cfg.TTL > flood.MaxTTL {
		return fmt.Errorf("experiment: multihop ttl %d outside [1, %d]", cfg.TTL, flood.MaxTTL)
	}
	if cfg.DedupWindow <= 0 || cfg.ForwardJitter < 0 || cfg.OracleRetain < 0 {
		return fmt.Errorf("experiment: multihop relay timing (dedup %v, jitter %v, retain %v) invalid",
			cfg.DedupWindow, cfg.ForwardJitter, cfg.OracleRetain)
	}
	if !(cfg.Area.W > 0) || !(cfg.Area.H > 0) || math.IsInf(cfg.Area.W, 0) || math.IsInf(cfg.Area.H, 0) {
		return fmt.Errorf("experiment: multihop area %vx%v invalid", cfg.Area.W, cfg.Area.H)
	}
	if !(cfg.Range > 0) {
		return fmt.Errorf("experiment: multihop radio range %v must be positive", cfg.Range)
	}
	if !(cfg.MinSpeed > 0) || cfg.MaxSpeed < cfg.MinSpeed || cfg.Pause < 0 {
		return fmt.Errorf("experiment: multihop speeds [%v, %v] pause %v invalid", cfg.MinSpeed, cfg.MaxSpeed, cfg.Pause)
	}
	if !(cfg.GroupSpread >= 0) || math.IsInf(cfg.GroupSpread, 0) {
		return fmt.Errorf("experiment: multihop group spread %v invalid", cfg.GroupSpread)
	}
	if err := cfg.Duty.Validate(); err != nil {
		return err
	}
	if cfg.ShardWindow < 0 {
		return fmt.Errorf("experiment: multihop shard window %v must be non-negative", cfg.ShardWindow)
	}
	for _, a := range cfg.Arms {
		if a != MultihopFixed && a != MultihopAdaptive && a != MultihopDynaddr {
			return fmt.Errorf("experiment: unknown multihop arm %q", a)
		}
	}
	return nil
}

// MultihopRegion summarizes width tracking inside one grid cell of the
// field, steady state only. Index is row-major over the Regions x Regions
// grid.
type MultihopRegion struct {
	Index int
	// MeanT is the mean true density (hop-limited audible senders,
	// including self) of senders sampled in this cell.
	MeanT float64
	// AchievedH and OptimalH are the mean width in use and the mean
	// clamped Equation 4 optimum for the true density; Gap is the mean
	// absolute difference.
	AchievedH float64
	OptimalH  float64
	Gap       float64
	// Samples counts (sender, instant) observations folded in.
	Samples int64
}

// MultihopOutcome reports one trial.
type MultihopOutcome struct {
	// Offered counts packets the workload generators handed down;
	// SendFailures counts sends refused (radio down, or ErrNoAddress
	// during a dynaddr claim — the baseline's availability gap).
	Offered      int64
	SendFailures int64
	// TruthDelivered is the sink's ground-truth count (AFF arms only).
	TruthDelivered int64
	// Delivered is what the arm's own sink stack reassembled.
	Delivered int64
	// DeliveredBits / TxBits is the measured goodput efficiency.
	DeliveredBits int64
	TxBits        int64
	CollisionRate float64
	Goodput       float64
	// MeanAchievedH, MeanOptimalH and HGap summarize the steady state
	// across all regions (AFF arms only).
	MeanAchievedH float64
	MeanOptimalH  float64
	HGap          float64
	// Churn tallies duty-cycle membership events.
	Churn mobility.ChurnCounters
	// Relay sums relay counters over every node.
	Relay flood.RelayStats
	// Alloc sums allocator counters over every node (dynaddr arm only).
	Alloc dynaddr.Stats
	// RegionT/Ach/Opt/Gap/N are row-major per-region sums over steady
	// samples (AFF arms only); fixed-length, so trials merge index by
	// index regardless of execution order.
	RegionT   []float64
	RegionAch []float64
	RegionOpt []float64
	RegionGap []float64
	RegionN   []int64
	// Samples is the field-wide width time series.
	Samples []DynPoint
	// Oracle is the trial's conformance report (AFF arms only — the
	// oracle audits the AFF wire format and is always attached to it).
	Oracle *oracle.Report
	// Obs is the trial's private observability capture, nil unless
	// requested.
	Obs *TrialObs
}

// DeliveryRatio is sink deliveries over offered packets.
func (o MultihopOutcome) DeliveryRatio() float64 {
	if o.Offered == 0 {
		return 0
	}
	return float64(o.Delivered) / float64(o.Offered)
}

// MultihopRow aggregates one arm over trials.
type MultihopRow struct {
	Arm MultihopArm
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
	SendFailures   int64
	TruthDelivered int64
	Delivered      int64
	Churn          mobility.ChurnCounters
	Relay          flood.RelayStats
	Alloc          dynaddr.Stats
	// Regions is the per-region width table (AFF arms only), sparse cells
	// omitted.
	Regions []MultihopRegion
	// Series is the trial-averaged width time series.
	Series []DynPoint
	// Oracle is the conformance report merged over trials, nil for the
	// dynaddr arm.
	Oracle *oracle.Report
}

// MultihopResult is the full sweep.
type MultihopResult struct {
	Config MultihopConfig
	Rows   []MultihopRow
}

// Multihop runs the sweep: arm x trials.
func Multihop(cfg MultihopConfig) (MultihopResult, error) {
	if err := cfg.Validate(); err != nil {
		return MultihopResult{}, err
	}
	src := xrand.NewSource(cfg.Seed).Child("multihop")
	type job struct {
		arm MultihopArm
		src *xrand.Source
	}
	var jobs []job
	for _, arm := range cfg.Arms {
		for trial := 0; trial < cfg.Trials; trial++ {
			jobs = append(jobs, job{arm, src.Child(string(arm), fmt.Sprint(trial))})
		}
	}
	outs, err := runner.Map(len(jobs), cfg.Hooks.runnerOptions(cfg.Parallelism), func(i int) (MultihopOutcome, error) {
		return RunMultihopTrial(cfg, jobs[i].arm, jobs[i].src)
	})
	if err != nil {
		return MultihopResult{}, err
	}
	wrapped := make([]TrialOutcome, len(outs))
	for i := range outs {
		wrapped[i].Obs = outs[i].Obs
	}
	if err := foldTrialObs(cfg.Obs, wrapped, func(i int) string {
		return fmt.Sprintf("multihop %s", multihopLabel(jobs[i].arm))
	}); err != nil {
		return MultihopResult{}, err
	}

	res := MultihopResult{Config: cfg}
	cells := cfg.Regions * cfg.Regions
	type accs struct {
		row                          MultihopRow
		del, good, coll, ach, op, gp stats.Accumulator
		regT, regA, regO, regG       []float64
		regN                         []int64
		sumAch, sumOpt, sumAwake     []float64
		trials                       int
	}
	byRow := make(map[MultihopArm]*accs)
	var order []MultihopArm
	for i, out := range outs {
		arm := jobs[i].arm
		a, ok := byRow[arm]
		if !ok {
			a = &accs{row: MultihopRow{Arm: arm}}
			a.regT = make([]float64, cells)
			a.regA = make([]float64, cells)
			a.regO = make([]float64, cells)
			a.regG = make([]float64, cells)
			a.regN = make([]int64, cells)
			byRow[arm] = a
			order = append(order, arm)
		}
		a.del.Add(out.DeliveryRatio())
		a.good.Add(out.Goodput)
		a.coll.Add(out.CollisionRate)
		a.ach.Add(out.MeanAchievedH)
		a.op.Add(out.MeanOptimalH)
		a.gp.Add(out.HGap)
		a.row.Offered += out.Offered
		a.row.SendFailures += out.SendFailures
		a.row.TruthDelivered += out.TruthDelivered
		a.row.Delivered += out.Delivered
		a.row.Churn.Joins += out.Churn.Joins
		a.row.Churn.Leaves += out.Churn.Leaves
		a.row.Churn.Sleeps += out.Churn.Sleeps
		a.row.Churn.Wakes += out.Churn.Wakes
		a.row.Relay.Merge(out.Relay)
		a.row.Alloc.ClaimsSent += out.Alloc.ClaimsSent
		a.row.Alloc.DefendsSent += out.Alloc.DefendsSent
		a.row.Alloc.AnnouncesSent += out.Alloc.AnnouncesSent
		a.row.Alloc.ControlBits += out.Alloc.ControlBits
		a.row.Alloc.Conflicts += out.Alloc.Conflicts
		a.row.Alloc.Acquisitions += out.Alloc.Acquisitions
		if out.Oracle != nil {
			if a.row.Oracle == nil {
				a.row.Oracle = &oracle.Report{}
			}
			a.row.Oracle.Merge(*out.Oracle)
		}
		for c := 0; c < cells && c < len(out.RegionN); c++ {
			a.regT[c] += out.RegionT[c]
			a.regA[c] += out.RegionAch[c]
			a.regO[c] += out.RegionOpt[c]
			a.regG[c] += out.RegionGap[c]
			a.regN[c] += out.RegionN[c]
		}
		// Sampling instants are deterministic, so per-trial series align
		// index by index and average across trials.
		if a.sumAch == nil && len(out.Samples) > 0 {
			n := len(out.Samples)
			a.sumAch = make([]float64, n)
			a.sumOpt = make([]float64, n)
			a.sumAwake = make([]float64, n)
			a.row.Series = make([]DynPoint, n)
			for s, p := range out.Samples {
				a.row.Series[s].At = p.At
			}
		}
		for s, p := range out.Samples {
			a.sumAch[s] += p.AchievedH
			a.sumOpt[s] += p.OptimalH
			a.sumAwake[s] += p.Awake
		}
		a.trials++
	}
	for _, arm := range order {
		a := byRow[arm]
		a.row.Delivery = a.del.Summary()
		a.row.Goodput = a.good.Summary()
		a.row.Collision = a.coll.Summary()
		a.row.AchievedH = a.ach.Summary()
		a.row.OptimalH = a.op.Summary()
		a.row.Gap = a.gp.Summary()
		for c := 0; c < cells; c++ {
			if a.regN[c] == 0 {
				continue
			}
			n := float64(a.regN[c])
			a.row.Regions = append(a.row.Regions, MultihopRegion{
				Index:     c,
				MeanT:     a.regT[c] / n,
				AchievedH: a.regA[c] / n,
				OptimalH:  a.regO[c] / n,
				Gap:       a.regG[c] / n,
				Samples:   a.regN[c],
			})
		}
		for s := range a.row.Series {
			n := float64(a.trials)
			a.row.Series[s].AchievedH = a.sumAch[s] / n
			a.row.Series[s].OptimalH = a.sumOpt[s] / n
			a.row.Series[s].Awake = a.sumAwake[s] / n
		}
		res.Rows = append(res.Rows, a.row)
	}
	return res, nil
}

func multihopLabel(a MultihopArm) string { return "arm=" + string(a) }

// multihopField is the per-trial scaffolding every arm shares: the engine,
// medium, churner, and the reachability and region geometry closures.
type multihopField struct {
	cfg     MultihopConfig
	eng     *sim.Engine
	disk    *radio.UnitDisk
	med     *radio.Medium
	churner *mobility.Churner
}

const multihopSink radio.NodeID = 0

// awake reports whether a node's RAM and radio are up; the sink always is.
func (f *multihopField) awake(id radio.NodeID) bool {
	return id == multihopSink || f.churner.Awake(id)
}

// audible reports hop-limited reachability: whether a frame originated at
// from can reach to within TTL+1 hops through awake relays (any awake
// node forwards, including the sink). This is the multi-hop analogue of
// one-hop unit-disk visibility, and both the oracle's density audit and
// the region probe's true-density count use exactly this predicate.
func (f *multihopField) audible(from, to radio.NodeID) bool {
	if from == to {
		return true
	}
	if !f.awake(from) || !f.awake(to) {
		return false
	}
	if _, ok := f.disk.Position(from); !ok {
		return false
	}
	visited := map[radio.NodeID]bool{from: true}
	frontier := []radio.NodeID{from}
	for depth := 0; depth < f.cfg.TTL+1 && len(frontier) > 0; depth++ {
		var next []radio.NodeID
		for _, u := range frontier {
			for _, nb := range f.disk.Neighbors(u) {
				if visited[nb] || !f.awake(nb) {
					continue
				}
				if nb == to {
					return true
				}
				visited[nb] = true
				next = append(next, nb)
			}
		}
		frontier = next
	}
	return false
}

// regionOf maps a position to its row-major grid cell.
func (f *multihopField) regionOf(p radio.Point) int {
	r := f.cfg.Regions
	cx := int(p.X / f.cfg.Area.W * float64(r))
	cy := int(p.Y / f.cfg.Area.H * float64(r))
	if cx < 0 {
		cx = 0
	}
	if cx >= r {
		cx = r - 1
	}
	if cy < 0 {
		cy = 0
	}
	if cy >= r {
		cy = r - 1
	}
	return cy*r + cx
}

// startMotion wires the trial's mobility: the first CoreSenders roam as
// one cluster confined to the central ninth of the field, the rest walk
// the whole field, and every sender is duty-cycled.
func (f *multihopField) startMotion(src *xrand.Source, register func(id radio.NodeID)) error {
	cfg := f.cfg
	var core []radio.NodeID
	for i := 1; i <= cfg.Senders; i++ {
		id := radio.NodeID(i)
		label := fmt.Sprint(i)
		if i <= cfg.CoreSenders {
			core = append(core, id)
		} else {
			wcfg := mobility.WaypointConfig{
				Area:     cfg.Area,
				MinSpeed: cfg.MinSpeed,
				MaxSpeed: cfg.MaxSpeed,
				Pause:    cfg.Pause,
			}
			if _, err := mobility.StartWaypoint(f.eng, f.disk, id, wcfg, src.Stream("mob", label), cfg.Duration); err != nil {
				return err
			}
		}
		register(id)
		if err := f.churner.StartDutyCycle(id, cfg.Duty, src.Stream("duty", label)); err != nil {
			return err
		}
	}
	if len(core) > 0 {
		// The cluster's reference point roams only the central ninth, so
		// its members stay a persistent dense pocket around the sink while
		// the walkers thin out toward the edges — the density contrast the
		// per-region table measures.
		gcfg := mobility.GroupConfig{
			Waypoint: mobility.WaypointConfig{
				Area:     mobility.Area{W: cfg.Area.W / 3, H: cfg.Area.H / 3},
				Origin:   radio.Point{X: cfg.Area.W / 3, Y: cfg.Area.H / 3},
				MinSpeed: cfg.MinSpeed,
				MaxSpeed: cfg.MaxSpeed,
				Pause:    cfg.Pause,
			},
			Spread: cfg.GroupSpread,
		}
		if _, err := mobility.StartGroup(f.eng, f.disk, core, gcfg, src.Stream("group"), cfg.Duration); err != nil {
			return err
		}
	}
	return nil
}

func (f *multihopField) relayConfig(keyer flood.Keyer) flood.RelayConfig {
	return flood.RelayConfig{
		TTL:           f.cfg.TTL,
		DedupWindow:   f.cfg.DedupWindow,
		ForwardJitter: f.cfg.ForwardJitter,
		Keyer:         keyer,
	}
}

// drain runs the trial's engine to completion, honoring ShardWindow.
func (f *multihopField) drain() {
	if f.cfg.ShardWindow > 0 {
		shard.DrainAdopted(f.eng, f.cfg.ShardWindow)
	} else {
		f.eng.Run()
	}
}

// RunMultihopTrial executes one trial of one arm: cfg.Senders duty-cycled
// mobile streamers flooding toward a central sink across several radio
// ranges, with per-region width probes (AFF arms) or allocation-overhead
// accounting (dynaddr).
func RunMultihopTrial(cfg MultihopConfig, arm MultihopArm, src *xrand.Source) (MultihopOutcome, error) {
	eng := sim.NewEngine()
	params := radio.DefaultParams()
	if cfg.Params != nil {
		params = *cfg.Params
	}
	disk := radio.NewUnitDisk(cfg.Range)
	med := radio.NewMedium(eng, disk, params, src.Stream("medium"))
	trialObs, tracer := newTrialObs(cfg.Obs)
	if tracer != nil {
		med.SetTracer(tracer)
	}
	churner := mobility.NewChurner(eng, cfg.Duration)
	churner.SetDisk(disk)
	churner.SetTracer(tracer)
	f := &multihopField{cfg: cfg, eng: eng, disk: disk, med: med, churner: churner}
	disk.Place(multihopSink, radio.Point{X: cfg.Area.W / 2, Y: cfg.Area.H / 2})

	if arm == MultihopDynaddr {
		return runMultihopDynaddr(f, src, trialObs)
	}
	return runMultihopAFF(f, arm, src, trialObs)
}

// runMultihopAFF is the trial body for the fixed and adaptive arms.
func runMultihopAFF(f *multihopField, arm MultihopArm, src *xrand.Source, trialObs *TrialObs) (MultihopOutcome, error) {
	cfg := f.cfg
	eng, disk, med := f.eng, f.disk, f.med
	policy := arm.widthPolicy()
	affCfg := aff.Config{
		Space:             core.MustSpace(cfg.FixedBits),
		MTU:               params(f).MTU,
		Instrument:        true,
		ReassemblyTimeout: cfg.ReassemblyTimeout,
	}
	if policy.adaptive() {
		affCfg.Space = core.MustSpace(cfg.MaxBits)
		affCfg.AdaptiveWidth = true
	}
	// The oracle is always on for the AFF arms: the tracker strips the
	// relay envelope before decoding, and the oracle judges density
	// audibility by the same hop-limited reachability the relay provides.
	// Retention must outlive the worst relay latency (see
	// truth.Config.Retain).
	retain := cfg.OracleRetain
	if retain == 0 {
		retain = cfg.DedupWindow
	}
	orc, sp, err := attachTruth(med, cfg.Obs, trialObs, truthSpec{
		AFF:     affCfg,
		Oracle:  true,
		Topo:    disk,
		Visible: f.audible,
		Retain:  retain,
		Unwrap:  flood.StripEnvelope,
	})
	if err != nil {
		return MultihopOutcome{}, err
	}

	keyer := flood.AFFKeyer(affCfg)
	newRelay := func(r *radio.Radio, label string) (*flood.Relay, error) {
		return flood.NewRelay(f.relayConfig(keyer), eng, r, src.Stream("relay", label))
	}

	rxRadio := med.MustAttach(multihopSink)
	truth := aff.NewTruthReassembler(affCfg, eng.Now)
	rxEst := density.NewPolicy(policy.estimatorPolicy(), 0, 0, eng.Now)
	rxSel, err := makeSelector(SelListening, affCfg.Space, src.Stream("rx-sel"), rxEst.Window)
	if err != nil {
		return MultihopOutcome{}, err
	}
	rxRelay, err := newRelay(rxRadio, "0")
	if err != nil {
		return MultihopOutcome{}, err
	}
	rxOpts := node.AFFOptions{
		Estimator: rxEst,
		Truth:     truth,
		Engine:    eng,
		OnDeliver: orc.DeliveryAudit(multihopSink),
		Relay:     rxRelay,
	}
	if sp != nil {
		rxOpts.Span = sp
	}
	rx, err := node.NewAFF(rxRadio, affCfg, rxSel, rxOpts)
	if err != nil {
		return MultihopOutcome{}, err
	}

	dataBits := 8 * cfg.PacketSize
	ctls := make(map[radio.NodeID]*adapt.Controller)
	ests := make(map[radio.NodeID]density.TEstimator)
	drivers := make(map[radio.NodeID]*node.AFFDriver)
	radios := []*radio.Radio{rxRadio}
	relays := []*flood.Relay{rxRelay}
	var gens []*workload.Continuous
	for i := 1; i <= cfg.Senders; i++ {
		id := radio.NodeID(i)
		label := fmt.Sprint(i)
		txRadio := med.MustAttach(id)
		radios = append(radios, txRadio)
		est := density.NewPolicy(policy.estimatorPolicy(), 0, 0, eng.Now)
		ests[id] = est
		sel, err := makeSelector(SelListening, affCfg.Space, src.Stream("sel", label), est.Window)
		if err != nil {
			return MultihopOutcome{}, err
		}
		rl, err := newRelay(txRadio, label)
		if err != nil {
			return MultihopOutcome{}, err
		}
		relays = append(relays, rl)
		opts := node.AFFOptions{Estimator: est, ObserveOwn: true, Engine: eng, OnDeliver: orc.DeliveryAudit(id), Relay: rl}
		if sp != nil {
			opts.Span = sp
		}
		if policy.adaptive() {
			actlCfg := adapt.Config{DataBits: dataBits, Min: cfg.MinBits, Max: cfg.MaxBits}
			if sp != nil {
				nid := id
				actlCfg.OnChange = func(from, to int) { sp.NoteWidthChange(nid, from, to) }
			}
			ctl, err := adapt.New(actlCfg, est)
			if err != nil {
				return MultihopOutcome{}, err
			}
			ctls[id] = ctl
			opts.Width = ctl
		}
		d, err := node.NewAFF(txRadio, affCfg, sel, opts)
		if err != nil {
			return MultihopOutcome{}, err
		}
		drivers[id] = d
		gen := workload.NewContinuousMixed(eng, d, []int{cfg.PacketSize}, 0, src.Stream("wl", label))
		gen.Start(cfg.Duration)
		gens = append(gens, gen)
	}
	if err := f.startMotion(src, func(id radio.NodeID) {
		f.churner.Register(id, drivers[id])
	}); err != nil {
		return MultihopOutcome{}, err
	}

	// The per-region probe: each awake placed sender's true density is the
	// oracle's smoothed hop-limited audible-transaction count (the exact
	// quantity its conformance report scores), its clamped Equation 4
	// optimum follows, and both land in the cell under the sender's
	// current position. Steady state is the second half; only steady
	// samples feed the oracle's Probe, so conformance percentiles are not
	// diluted by the warm-up transient.
	widthOf := func(id radio.NodeID) int {
		if ctl, ok := ctls[id]; ok {
			return ctl.Current()
		}
		return cfg.FixedBits
	}
	cells := cfg.Regions * cfg.Regions
	out := MultihopOutcome{
		RegionT:   make([]float64, cells),
		RegionAch: make([]float64, cells),
		RegionOpt: make([]float64, cells),
		RegionGap: make([]float64, cells),
		RegionN:   make([]int64, cells),
	}
	var sumAch, sumOpt, sumGap float64
	var steady int
	half := cfg.Duration / 2
	for at := cfg.SampleInterval; at <= cfg.Duration; at += cfg.SampleInterval {
		at := at
		eng.ScheduleAt(at, func() {
			var ach, opt float64
			n := 0
			for i := 1; i <= cfg.Senders; i++ {
				id := radio.NodeID(i)
				if !f.awake(id) {
					continue
				}
				pos, placed := disk.Position(id)
				if !placed {
					continue
				}
				w := widthOf(id)
				var trueT float64
				var h int
				if at > half {
					trueT, h = orc.Probe(id, ests[id].Estimate(), w, dataBits, cfg.MinBits, cfg.MaxBits)
					sumAch += float64(w)
					sumOpt += float64(h)
					sumGap += math.Abs(float64(w - h))
					steady++
					c := f.regionOf(pos)
					out.RegionT[c] += trueT
					out.RegionAch[c] += float64(w)
					out.RegionOpt[c] += float64(h)
					out.RegionGap[c] += math.Abs(float64(w - h))
					out.RegionN[c]++
				} else {
					// Warm-up samples feed only the time series, from the
					// raw visible count: no Probe, no EMA pollution.
					trueT = float64(orc.VisibleT(id))
					h = oracle.OptimalWidth(dataBits, trueT, cfg.MinBits, cfg.MaxBits)
				}
				ach += float64(w)
				opt += float64(h)
				n++
			}
			p := DynPoint{At: at}
			if n > 0 {
				p.AchievedH = ach / float64(n)
				p.OptimalH = opt / float64(n)
				p.Awake = float64(n)
			}
			out.Samples = append(out.Samples, p)
		})
	}

	f.drain()

	out.TruthDelivered = truth.Stats().Delivered
	out.Delivered = rx.Reassembler().Stats().Delivered
	out.DeliveredBits = rx.Reassembler().Stats().DeliveredBits
	for _, g := range gens {
		out.Offered += g.Stats().PacketsOffered
		out.SendFailures += g.Stats().SendErrors
	}
	for _, r := range radios {
		out.TxBits += r.Meter().TxBits
	}
	for _, rl := range relays {
		out.Relay.Merge(rl.Stats())
	}
	if out.TruthDelivered > 0 {
		lost := out.TruthDelivered - out.Delivered
		if lost < 0 {
			lost = 0
		}
		out.CollisionRate = float64(lost) / float64(out.TruthDelivered)
	}
	if out.TxBits > 0 {
		out.Goodput = float64(out.DeliveredBits) / float64(out.TxBits)
	}
	if steady > 0 {
		out.MeanAchievedH = sumAch / float64(steady)
		out.MeanOptimalH = sumOpt / float64(steady)
		out.HGap = sumGap / float64(steady)
	}
	out.Churn = f.churner.Counters()
	rep := orc.Report()
	out.Oracle = &rep

	if trialObs != nil && trialObs.Metrics != nil {
		label := multihopLabel(arm)
		collectEngine(trialObs.Metrics, eng.Stats())
		collectMultihop(trialObs.Metrics, label, out)
		if snap, ok := rxEst.(density.Snapshotter); ok {
			snap.SnapshotInto(trialObs.Metrics, label)
		}
		out.Oracle.SnapshotInto(trialObs.Metrics, label)
		for _, r := range radios {
			collectEnergy(trialObs.Metrics, r.ID(), r.Meter())
		}
	}
	out.Obs = trialObs
	return out, nil
}

// runMultihopDynaddr is the trial body for the conventional baseline:
// claim-listen-defend short addresses, address-keyed fragmentation, every
// frame (control and data) relayed with the same hop budget as the AFF
// arms. There is no identifier-width story here — the columns that matter
// are the allocation traffic and the availability gap under churn.
func runMultihopDynaddr(f *multihopField, src *xrand.Source, trialObs *TrialObs) (MultihopOutcome, error) {
	cfg := f.cfg
	eng, med := f.eng, f.med
	dcfg := dynaddr.Config{
		AddrBits: cfg.AddrBits,
		// Keepalives at a slow steady rate: enough that defended addresses
		// stay visible across the heard-TTL, honest enough to charge the
		// baseline its standing control overhead. The horizon stops the
		// keepalive chain so the trial's event queue drains.
		AnnounceInterval: 10 * time.Second,
		Horizon:          cfg.Duration,
	}
	keyer := flood.DigestKeyer()

	newNode := func(id radio.NodeID, label string) (*dynaddr.Node, *flood.Relay, *radio.Radio, error) {
		r := med.MustAttach(id)
		n, err := dynaddr.NewNode(eng, r, dcfg, src.Stream("alloc", label))
		if err != nil {
			return nil, nil, nil, err
		}
		rl, err := flood.NewRelay(f.relayConfig(keyer), eng, r, src.Stream("relay", label))
		if err != nil {
			return nil, nil, nil, err
		}
		n.SetRelay(rl)
		return n, rl, r, nil
	}

	sink, sinkRelay, sinkRadio, err := newNode(multihopSink, "0")
	if err != nil {
		return MultihopOutcome{}, err
	}
	sink.Start()
	nodes := []*dynaddr.Node{sink}
	relays := []*flood.Relay{sinkRelay}
	radios := []*radio.Radio{sinkRadio}
	byID := make(map[radio.NodeID]*dynaddr.Node)
	var gens []*workload.Continuous
	for i := 1; i <= cfg.Senders; i++ {
		id := radio.NodeID(i)
		label := fmt.Sprint(i)
		n, rl, r, err := newNode(id, label)
		if err != nil {
			return MultihopOutcome{}, err
		}
		n.Start()
		nodes = append(nodes, n)
		relays = append(relays, rl)
		radios = append(radios, r)
		byID[id] = n
		gen := workload.NewContinuousMixed(eng, n, []int{cfg.PacketSize}, 0, src.Stream("wl", label))
		gen.Start(cfg.Duration)
		gens = append(gens, gen)
	}
	if err := f.startMotion(src, func(id radio.NodeID) {
		f.churner.Register(id, byID[id])
	}); err != nil {
		return MultihopOutcome{}, err
	}

	f.drain()

	out := MultihopOutcome{
		Delivered:     sink.PacketsDelivered(),
		DeliveredBits: sink.Reassembler().Stats().DeliveredBits,
	}
	for _, g := range gens {
		out.Offered += g.Stats().PacketsOffered
		out.SendFailures += g.Stats().SendErrors
	}
	for _, r := range radios {
		out.TxBits += r.Meter().TxBits
	}
	for _, rl := range relays {
		out.Relay.Merge(rl.Stats())
	}
	for _, n := range nodes {
		st := n.Allocator().Stats()
		out.Alloc.ClaimsSent += st.ClaimsSent
		out.Alloc.DefendsSent += st.DefendsSent
		out.Alloc.AnnouncesSent += st.AnnouncesSent
		out.Alloc.ControlBits += st.ControlBits
		out.Alloc.Conflicts += st.Conflicts
		out.Alloc.Acquisitions += st.Acquisitions
	}
	if out.TxBits > 0 {
		out.Goodput = float64(out.DeliveredBits) / float64(out.TxBits)
	}
	out.Churn = f.churner.Counters()

	if trialObs != nil && trialObs.Metrics != nil {
		label := multihopLabel(MultihopDynaddr)
		collectEngine(trialObs.Metrics, eng.Stats())
		collectMultihop(trialObs.Metrics, label, out)
		for _, r := range radios {
			collectEnergy(trialObs.Metrics, r.ID(), r.Meter())
		}
	}
	out.Obs = trialObs
	return out, nil
}

// params resolves the trial's radio parameters.
func params(f *multihopField) radio.Params {
	if f.cfg.Params != nil {
		return *f.cfg.Params
	}
	return radio.DefaultParams()
}

// collectMultihop records one trial's counters and steady-state gauges.
func collectMultihop(reg *metrics.Registry, label string, out MultihopOutcome) {
	reg.Counter("mh_offered_total", label).Add(out.Offered)
	reg.Counter("mh_send_failures_total", label).Add(out.SendFailures)
	reg.Counter("mh_truth_delivered_total", label).Add(out.TruthDelivered)
	reg.Counter("mh_delivered_total", label).Add(out.Delivered)
	reg.Counter("mh_delivered_bits_total", label).Add(out.DeliveredBits)
	reg.Counter("mh_tx_bits_total", label).Add(out.TxBits)
	reg.Counter("mh_relay_forwarded_total", label).Add(out.Relay.Forwarded)
	reg.Counter("mh_relay_forwarded_bits_total", label).Add(out.Relay.ForwardedBits)
	reg.Counter("mh_relay_suppressed_total", label).Add(out.Relay.Suppressed)
	reg.Counter("mh_relay_expired_total", label).Add(out.Relay.Expired)
	reg.Counter("mh_relay_congested_total", label).Add(out.Relay.Congested)
	reg.Counter("mh_alloc_claims_total", label).Add(out.Alloc.ClaimsSent)
	reg.Counter("mh_alloc_control_bits_total", label).Add(out.Alloc.ControlBits)
	reg.Counter("mh_alloc_acquisitions_total", label).Add(out.Alloc.Acquisitions)
	reg.Counter("churn_sleeps_total", label).Add(out.Churn.Sleeps)
	reg.Counter("churn_wakes_total", label).Add(out.Churn.Wakes)
	reg.Gauge("mh_achieved_h_steady", label).SetMax(out.MeanAchievedH)
	reg.Gauge("mh_optimal_h_steady", label).SetMax(out.MeanOptimalH)
	reg.Gauge("mh_h_gap_steady", label).SetMax(out.HGap)
}

// Render renders the sweep: the arm table, the per-region width table and
// the oracle conformance table.
func (res MultihopResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Multi-hop regional dynamics (%d senders, %d core, %v x %d trials, %gx%g area, range %g, ttl %d)\n",
		res.Config.Senders, res.Config.CoreSenders, res.Config.Duration, res.Config.Trials,
		res.Config.Area.W, res.Config.Area.H, res.Config.Range, res.Config.TTL)
	fmt.Fprintf(&b, "%-17s %18s %8s %8s %6s %6s %12s %9s %9s %8s %10s %11s %8s\n",
		"arm", "delivery", "goodput", "collide", "achH", "optH", "gap",
		"fwd", "supp", "cong", "allocMsgs", "allocBits", "sendFail")
	for _, r := range res.Rows {
		allocMsgs := r.Alloc.ClaimsSent + r.Alloc.DefendsSent + r.Alloc.AnnouncesSent
		fmt.Fprintf(&b, "%-17s %9.4f ± %.4f %8.4f %8.4f %6.2f %6.2f %5.2f ± %.2f %9d %9d %8d %10d %11d %8d\n",
			r.Arm,
			r.Delivery.Mean, r.Delivery.StdDev,
			r.Goodput.Mean, r.Collision.Mean,
			r.AchievedH.Mean, r.OptimalH.Mean,
			r.Gap.Mean, r.Gap.StdDev,
			r.Relay.Forwarded, r.Relay.Suppressed, r.Relay.Congested,
			allocMsgs, r.Alloc.ControlBits, r.SendFailures)
	}
	hasRegions := false
	for _, r := range res.Rows {
		if len(r.Regions) > 0 {
			hasRegions = true
			break
		}
	}
	if hasRegions {
		fmt.Fprintf(&b, "\nPer-region width tracking (%dx%d grid, steady state; achieved vs clamped Eq. 4 optimum for the true hop-limited density)\n",
			res.Config.Regions, res.Config.Regions)
		fmt.Fprintf(&b, "%-17s %-8s %8s %8s %8s %8s %9s\n",
			"arm", "region", "meanT", "achH", "optH", "|gap|", "samples")
		for _, r := range res.Rows {
			for _, reg := range r.Regions {
				fmt.Fprintf(&b, "%-17s %d,%-6d %8.2f %8.2f %8.2f %8.2f %9d\n",
					r.Arm, reg.Index/res.Config.Regions, reg.Index%res.Config.Regions,
					reg.MeanT, reg.AchievedH, reg.OptimalH, reg.Gap, reg.Samples)
			}
		}
	}
	hasOracle := false
	for _, r := range res.Rows {
		if r.Oracle != nil {
			hasOracle = true
			break
		}
	}
	if hasOracle {
		fmt.Fprintf(&b, "\nOracle conformance (omniscient, relay-aware; gaps in bits vs Eq. 4 optimum)\n")
		fmt.Fprintf(&b, "%-17s %8s %8s %8s %8s %9s %8s %12s\n",
			"arm", "estP50", "estP95", "|gap|", "gapP95", "audited", "collide", "violations")
		for _, r := range res.Rows {
			o := r.Oracle
			if o == nil {
				continue
			}
			fmt.Fprintf(&b, "%-17s %8.2f %8.2f %8.2f %8.2f %9d %8d %12s\n",
				r.Arm,
				o.EstErrorPercentile(50), o.EstErrorPercentile(95),
				o.MeanAbsWidthGap(), o.WidthGapPercentile(95),
				o.PacketsAudited, o.CollisionEvents,
				fmt.Sprintf("%d/%d/%d", o.ConservationViolations, o.Misdeliveries, o.FreshnessViolations))
		}
	}
	return b.String()
}

// CSV renders the sweep for plotting. Summary records (kind=summary) carry
// one row per arm, region records (kind=region) one row per populated grid
// cell, and time-series records (kind=h_t) the trial-averaged field-wide
// widths per sample instant.
func (res MultihopResult) CSV() string {
	var sb strings.Builder
	w := csv.NewWriter(&sb)
	_ = w.Write([]string{"kind", "arm", "region", "t_seconds",
		"delivery", "delivery_stddev", "goodput", "collision_rate",
		"achieved_h", "optimal_h", "h_gap", "h_gap_stddev", "mean_t", "awake", "samples",
		"offered", "send_failures", "truth_delivered", "delivered",
		"relay_forwarded", "relay_suppressed", "relay_congested",
		"alloc_msgs", "alloc_bits", "alloc_conflicts", "alloc_acquisitions",
		"sleeps", "wakes", "trials"})
	for _, r := range res.Rows {
		allocMsgs := r.Alloc.ClaimsSent + r.Alloc.DefendsSent + r.Alloc.AnnouncesSent
		_ = w.Write([]string{"summary", string(r.Arm), "", "",
			formatFloat(r.Delivery.Mean), formatFloat(r.Delivery.StdDev),
			formatFloat(r.Goodput.Mean), formatFloat(r.Collision.Mean),
			formatFloat(r.AchievedH.Mean), formatFloat(r.OptimalH.Mean),
			formatFloat(r.Gap.Mean), formatFloat(r.Gap.StdDev), "", "", "",
			strconv.FormatInt(r.Offered, 10), strconv.FormatInt(r.SendFailures, 10),
			strconv.FormatInt(r.TruthDelivered, 10), strconv.FormatInt(r.Delivered, 10),
			strconv.FormatInt(r.Relay.Forwarded, 10), strconv.FormatInt(r.Relay.Suppressed, 10),
			strconv.FormatInt(r.Relay.Congested, 10),
			strconv.FormatInt(allocMsgs, 10), strconv.FormatInt(r.Alloc.ControlBits, 10),
			strconv.FormatInt(r.Alloc.Conflicts, 10), strconv.FormatInt(r.Alloc.Acquisitions, 10),
			strconv.FormatInt(r.Churn.Sleeps, 10), strconv.FormatInt(r.Churn.Wakes, 10),
			strconv.Itoa(r.Delivery.N),
		})
	}
	for _, r := range res.Rows {
		for _, reg := range r.Regions {
			_ = w.Write([]string{"region", string(r.Arm), strconv.Itoa(reg.Index), "",
				"", "", "", "",
				formatFloat(reg.AchievedH), formatFloat(reg.OptimalH),
				formatFloat(reg.Gap), "", formatFloat(reg.MeanT), "",
				strconv.FormatInt(reg.Samples, 10),
				"", "", "", "", "", "", "", "", "", "", "", "", "", "",
			})
		}
	}
	for _, r := range res.Rows {
		for _, p := range r.Series {
			_ = w.Write([]string{"h_t", string(r.Arm), "",
				formatFloat(p.At.Seconds()),
				"", "", "", "",
				formatFloat(p.AchievedH), formatFloat(p.OptimalH), "", "", "",
				formatFloat(p.Awake), "",
				"", "", "", "", "", "", "", "", "", "", "", "", "", "",
			})
		}
	}
	w.Flush()
	return sb.String()
}
