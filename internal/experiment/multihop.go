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
	"retri/internal/dynaddr"
	"retri/internal/flood"
	"retri/internal/metrics"
	"retri/internal/mobility"
	"retri/internal/oracle"
	"retri/internal/radio"
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
	return parseList(s, "multihop arm", AllMultihopArms(), AllMultihopArms())
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
	Run
	// Senders stream packets at the sink (node 0); they are nodes 1..N.
	Senders int
	// CoreSenders of them roam as one dense cluster confined to the
	// central ninth of the field (reference-point group mobility); the
	// rest are independent random-waypoint walkers over the whole field.
	CoreSenders int
	// PacketSize is the application payload in bytes.
	PacketSize int
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
	// Obs behaves exactly as in Figure4Config.
	Obs *Obs
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
		Run:               Run{Seed: 1, Duration: 2 * time.Minute},
		Senders:           12,
		CoreSenders:       6,
		PacketSize:        48,
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
	if err := cfg.Run.Validate(); err != nil {
		return err
	}
	if cfg.Senders < 1 || cfg.Trials < 1 || len(cfg.Arms) == 0 {
		return fmt.Errorf("experiment: degenerate multihop config (senders=%d trials=%d arms=%d)",
			cfg.Senders, cfg.Trials, len(cfg.Arms))
	}
	if cfg.CoreSenders < 0 || cfg.CoreSenders > cfg.Senders {
		return fmt.Errorf("experiment: multihop core senders %d outside [0, %d]", cfg.CoreSenders, cfg.Senders)
	}
	if cfg.SampleInterval <= 0 || cfg.SampleInterval > cfg.Duration {
		return fmt.Errorf("experiment: multihop needs 0 < sample interval <= duration, got %v/%v", cfg.SampleInterval, cfg.Duration)
	}
	if cfg.PacketSize < 1 {
		return fmt.Errorf("experiment: multihop packet size %d must be positive", cfg.PacketSize)
	}
	if cfg.Regions < 1 || cfg.Regions > 16 {
		return fmt.Errorf("experiment: multihop region grid %d outside [1, 16]", cfg.Regions)
	}
	if err := validateWidthField("multihop", cfg.FixedBits, cfg.MinBits, cfg.MaxBits, cfg.Area, cfg.Range); err != nil {
		return err
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
	if !(cfg.MinSpeed > 0) || cfg.MaxSpeed < cfg.MinSpeed || cfg.Pause < 0 {
		return fmt.Errorf("experiment: multihop speeds [%v, %v] pause %v invalid", cfg.MinSpeed, cfg.MaxSpeed, cfg.Pause)
	}
	if !(cfg.GroupSpread >= 0) || math.IsInf(cfg.GroupSpread, 0) {
		return fmt.Errorf("experiment: multihop group spread %v invalid", cfg.GroupSpread)
	}
	if err := cfg.Duty.Validate(); err != nil {
		return err
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
func (o MultihopOutcome) DeliveryRatio() float64 { return ratio(o.Delivered, o.Offered) }

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

// Check fails on any wire-format violation the oracle saw on the relayed
// wire. Every AFF arm must carry a report; the dynaddr arm carries none.
func (res MultihopResult) Check() error {
	return checkRows("multihop", res.Rows, func(r MultihopRow) string { return string(r.Arm) },
		func(r MultihopRow) error { return checkReport(r.Oracle, r.Arm != MultihopDynaddr) })
}

// Multihop runs the sweep: arm x trials.
func Multihop(cfg MultihopConfig) (MultihopResult, error) {
	if err := cfg.Validate(); err != nil {
		return MultihopResult{}, err
	}
	groups, err := runCells(cfg.Run, cfg.Obs, "multihop", cfg.Arms, cfg.Trials,
		func(arm MultihopArm) []string { return []string{string(arm)} },
		func(arm MultihopArm, src *xrand.Source) (MultihopOutcome, error) {
			return RunMultihopTrial(cfg, arm, src)
		},
		func(o MultihopOutcome) *TrialObs { return o.Obs },
		func(arm MultihopArm) string { return "multihop " + multihopLabel(arm) })
	if err != nil {
		return MultihopResult{}, err
	}

	res := MultihopResult{Config: cfg}
	cells := cfg.Regions * cfg.Regions
	for ai, outs := range groups {
		row := MultihopRow{Arm: cfg.Arms[ai]}
		var del, good, coll, ach, opt, gap stats.Accumulator
		region := make([]MultihopRegion, cells)
		for _, out := range outs {
			del.Add(out.DeliveryRatio())
			good.Add(out.Goodput)
			coll.Add(out.CollisionRate)
			ach.Add(out.MeanAchievedH)
			opt.Add(out.MeanOptimalH)
			gap.Add(out.HGap)
			row.Offered += out.Offered
			row.SendFailures += out.SendFailures
			row.TruthDelivered += out.TruthDelivered
			row.Delivered += out.Delivered
			row.Churn.Add(out.Churn)
			row.Relay.Merge(out.Relay)
			row.Alloc.Add(out.Alloc)
			row.Oracle = mergeReport(row.Oracle, out.Oracle)
			for c := 0; c < cells && c < len(out.RegionN); c++ {
				region[c].MeanT += out.RegionT[c]
				region[c].AchievedH += out.RegionAch[c]
				region[c].OptimalH += out.RegionOpt[c]
				region[c].Gap += out.RegionGap[c]
				region[c].Samples += out.RegionN[c]
			}
		}
		row.Delivery = del.Summary()
		row.Goodput = good.Summary()
		row.Collision = coll.Summary()
		row.AchievedH = ach.Summary()
		row.OptimalH = opt.Summary()
		row.Gap = gap.Summary()
		for c, reg := range region {
			if reg.Samples == 0 {
				continue
			}
			n := float64(reg.Samples)
			row.Regions = append(row.Regions, MultihopRegion{
				Index:     c,
				MeanT:     reg.MeanT / n,
				AchievedH: reg.AchievedH / n,
				OptimalH:  reg.OptimalH / n,
				Gap:       reg.Gap / n,
				Samples:   reg.Samples,
			})
		}
		row.Series = widthSeries(outs, func(o MultihopOutcome) []DynPoint { return o.Samples })
		res.Rows = append(res.Rows, row)
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

	// audible's search state, kept so a search allocates nothing once
	// the buffers have grown: a node is visited in the current search
	// iff its mark equals search.
	marks          []uint32
	search         uint32
	frontier, next []radio.NodeID
	neighbors      []radio.NodeID
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
	if f.search++; f.search == 0 {
		clear(f.marks)
		f.search = 1
	}
	f.marks[from] = f.search
	f.frontier = append(f.frontier[:0], from)
	for depth := 0; depth < f.cfg.TTL+1 && len(f.frontier) > 0; depth++ {
		f.next = f.next[:0]
		for _, u := range f.frontier {
			f.neighbors = f.disk.NeighborsAppend(u, f.neighbors[:0])
			for _, nb := range f.neighbors {
				if f.marks[nb] == f.search || !f.awake(nb) {
					continue
				}
				if nb == to {
					return true
				}
				f.marks[nb] = f.search
				f.next = append(f.next, nb)
			}
		}
		f.frontier, f.next = f.next, f.frontier
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
	trialObs, tracer := newTrialObs(cfg.Obs, med)
	churner := mobility.NewChurner(eng, cfg.Duration)
	churner.SetDisk(disk)
	churner.SetTracer(tracer)
	f := &multihopField{cfg: cfg, eng: eng, disk: disk, med: med, churner: churner,
		marks: make([]uint32, cfg.Senders+1)}
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
	affCfg := widthAFF(policy, cfg.FixedBits, cfg.MaxBits, med.Params().MTU, cfg.ReassemblyTimeout)
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

	dataBits := 8 * cfg.PacketSize
	stacks := sensors{eng: eng, aff: affCfg, policy: policy, orc: orc, sp: sp,
		width: adapt.Config{DataBits: dataBits, Min: cfg.MinBits, Max: cfg.MaxBits}}
	keyer := flood.AFFKeyer(affCfg)
	var relays []*flood.Relay
	attach := func(id radio.NodeID, label string) (*radio.Radio, *flood.Relay, error) {
		r := med.MustAttach(id)
		rl, err := flood.NewRelay(f.relayConfig(keyer), eng, r, src.Stream("relay", label))
		relays = append(relays, rl)
		return r, rl, err
	}

	rxRadio, rxRelay, err := attach(multihopSink, "0")
	if err != nil {
		return MultihopOutcome{}, err
	}
	truth := aff.NewTruthReassembler(affCfg, eng.Now)
	rx, err := stacks.sink(rxRadio, src.Stream("rx-sel"), truth, rxRelay)
	if err != nil {
		return MultihopOutcome{}, err
	}

	senders := make([]sensor, cfg.Senders+1)
	radios := []*radio.Radio{rxRadio}
	var gens []*workload.Continuous
	for i := 1; i <= cfg.Senders; i++ {
		label := fmt.Sprint(i)
		txRadio, rl, err := attach(radio.NodeID(i), label)
		if err != nil {
			return MultihopOutcome{}, err
		}
		radios = append(radios, txRadio)
		n, err := stacks.sender(txRadio, src.Stream("sel", label), rl)
		if err != nil {
			return MultihopOutcome{}, err
		}
		senders[i] = n
		gen := workload.NewContinuousMixed(eng, n.drv, []int{cfg.PacketSize}, 0, src.Stream("wl", label))
		gen.Start(cfg.Duration)
		gens = append(gens, gen)
	}
	if err := f.startMotion(src, func(id radio.NodeID) {
		f.churner.Register(id, senders[id].drv)
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
	cells := cfg.Regions * cfg.Regions
	out := MultihopOutcome{
		RegionT:   make([]float64, cells),
		RegionAch: make([]float64, cells),
		RegionOpt: make([]float64, cells),
		RegionGap: make([]float64, cells),
		RegionN:   make([]int64, cells),
	}
	probe := probeWidths(eng, cfg.SampleInterval, cfg.Duration, cfg.Senders, func(id radio.NodeID, steady bool) (w, h int, ok bool) {
		if !f.awake(id) {
			return 0, 0, false
		}
		pos, placed := disk.Position(id)
		if !placed {
			return 0, 0, false
		}
		w = senders[id].widthOr(cfg.FixedBits)
		if !steady {
			// Warm-up samples feed only the time series, from the raw
			// visible count: no Probe, no EMA pollution.
			return w, oracle.OptimalWidth(dataBits, float64(orc.VisibleT(id)), cfg.MinBits, cfg.MaxBits), true
		}
		trueT, h := orc.Probe(id, senders[id].est.Estimate(), w, dataBits, cfg.MinBits, cfg.MaxBits)
		c := f.regionOf(pos)
		out.RegionT[c] += trueT
		out.RegionAch[c] += float64(w)
		out.RegionOpt[c] += float64(h)
		out.RegionGap[c] += math.Abs(float64(w - h))
		out.RegionN[c]++
		return w, h, true
	})

	eng.Run()

	out.TruthDelivered = truth.Stats().Delivered
	out.Delivered = rx.drv.Reassembler().Stats().Delivered
	out.DeliveredBits = rx.drv.Reassembler().Stats().DeliveredBits
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
	out.CollisionRate = idLoss(out.TruthDelivered, out.Delivered)
	out.Goodput = ratio(out.DeliveredBits, out.TxBits)
	out.Samples = probe.samples
	out.MeanAchievedH, out.MeanOptimalH, out.HGap = probe.means()
	out.Churn = f.churner.Counters()
	rep := orc.Report()
	out.Oracle = &rep

	if trialObs != nil && trialObs.Metrics != nil {
		label := multihopLabel(arm)
		collectTrial(trialObs.Metrics, eng.Stats(), radios)
		collectMultihop(trialObs.Metrics, label, out)
		if snap, ok := rx.est.(density.Snapshotter); ok {
			snap.SnapshotInto(trialObs.Metrics, label)
		}
		out.Oracle.SnapshotInto(trialObs.Metrics, label)
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

	eng.Run()

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
		out.Alloc.Add(n.Allocator().Stats())
	}
	out.Goodput = ratio(out.DeliveredBits, out.TxBits)
	out.Churn = f.churner.Counters()

	if trialObs != nil && trialObs.Metrics != nil {
		label := multihopLabel(MultihopDynaddr)
		collectTrial(trialObs.Metrics, eng.Stats(), radios)
		collectMultihop(trialObs.Metrics, label, out)
	}
	out.Obs = trialObs
	return out, nil
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
	if anyOracle(res.Rows, func(r MultihopRow) *oracle.Report { return r.Oracle }) {
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
				o.PacketsAudited, o.CollisionEvents, violations(o))
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
