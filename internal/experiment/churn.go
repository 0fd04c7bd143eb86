package experiment

import (
	"fmt"
	"strings"
	"time"

	"retri/internal/aff"
	"retri/internal/core"
	"retri/internal/dynaddr"
	"retri/internal/node"
	"retri/internal/radio"
	"retri/internal/sim"
	"retri/internal/workload"
	"retri/internal/xrand"
)

// ChurnConfig parameterizes the Section 2.3 argument made measurable:
// under node dynamics, a dynamic address-assignment protocol pays control
// overhead and unavailability on every join, while AFF nodes simply start
// talking.
type ChurnConfig struct {
	Run
	// Nodes is the population of churning senders.
	Nodes int
	// Lifetime is the mean exponential up-time before a node is replaced
	// by a fresh one needing configuration.
	Lifetime time.Duration
	// DataInterval spaces each node's periodic data packets.
	DataInterval time.Duration
	// PacketSize is the data packet in bytes (small, per the paper's
	// low-data-rate regime).
	PacketSize int
	// AddrBits sizes the dynamic allocator's address space and the AFF
	// pool alike, so the data-plane header cost is comparable.
	AddrBits int
}

// DefaultChurnConfig returns a sensible churn scenario.
func DefaultChurnConfig() ChurnConfig {
	return ChurnConfig{
		Run:          Run{Seed: 1, Duration: 5 * time.Minute},
		Nodes:        8,
		Lifetime:     time.Minute,
		DataInterval: 2 * time.Second,
		PacketSize:   4,
		AddrBits:     10,
	}
}

// ChurnOutcome reports one scheme's performance under churn.
type ChurnOutcome struct {
	Scheme string
	// UsefulBits is data delivered at the always-up sink.
	UsefulBits int64
	// OnAirBits is all bits transmitted network-wide (incl. MAC framing).
	OnAirBits int64
	// ControlBits is allocation-protocol traffic (zero for AFF).
	ControlBits int64
	// SendFailures counts data packets refused because the node had no
	// address yet (zero for AFF).
	SendFailures int64
	// PacketsDelivered counts sink deliveries.
	PacketsDelivered int64
	// Rejoins counts node replacements that occurred.
	Rejoins int64
}

// E is measured Equation 1 efficiency.
func (o ChurnOutcome) E() float64 {
	if o.OnAirBits == 0 {
		return 0
	}
	return float64(o.UsefulBits) / float64(o.OnAirBits)
}

// RunChurnTrial measures one scheme ("dynaddr" or "aff") under churn.
func RunChurnTrial(cfg ChurnConfig, scheme string, src *xrand.Source) (ChurnOutcome, error) {
	if scheme != "dynaddr" && scheme != "aff" {
		return ChurnOutcome{}, fmt.Errorf("experiment: unknown churn scheme %q", scheme)
	}
	eng := sim.NewEngine()
	params := radio.DefaultParams()
	med := radio.NewMedium(eng, radio.FullMesh{}, params, src.Stream("medium"))
	out := ChurnOutcome{Scheme: scheme}

	affSpace := core.MustSpace(cfg.AddrBits)
	affCfg := aff.Config{Space: affSpace, MTU: params.MTU, ReassemblyTimeout: time.Second}
	dynCfg := dynaddr.Config{AddrBits: cfg.AddrBits}

	// Always-up sink.
	const sinkID radio.NodeID = 0
	sinkRadio := med.MustAttach(sinkID)
	var sinkDelivered func() (bits, packets int64)
	switch scheme {
	case "aff":
		sel := core.NewUniformSelector(affSpace, src.Stream("sink-sel"))
		d, err := node.NewAFF(sinkRadio, affCfg, sel, node.AFFOptions{})
		if err != nil {
			return ChurnOutcome{}, err
		}
		sinkDelivered = func() (int64, int64) {
			st := d.Reassembler().Stats()
			return st.DeliveredBits, st.Delivered
		}
	case "dynaddr":
		n, err := dynaddr.NewNode(eng, sinkRadio, dynCfg, src.Stream("sink-rng"))
		if err != nil {
			return ChurnOutcome{}, err
		}
		n.Start()
		sinkDelivered = func() (int64, int64) {
			st := n.Reassembler().Stats()
			return st.DeliveredBits, st.Delivered
		}
	}

	// Churning senders: each slot holds one live incarnation at a time;
	// on death a fresh incarnation joins immediately.
	type slot struct {
		r    *radio.Radio
		gen  *workload.Periodic
		dyn  *dynaddr.Node
		incs int
	}
	slots := make([]*slot, cfg.Nodes)

	var join func(s *slot, slotIdx int)
	join = func(s *slot, slotIdx int) {
		if eng.Now() >= cfg.Duration {
			return
		}
		label := fmt.Sprintf("%d-%d", slotIdx, s.incs)
		s.incs++
		out.Rejoins++

		var drv workload.Driver
		switch scheme {
		case "aff":
			sel := core.NewUniformSelector(affSpace, src.Stream("sel", label))
			d, err := node.NewAFF(s.r, affCfg, sel, node.AFFOptions{})
			if err != nil {
				return
			}
			drv = d
		case "dynaddr":
			n, err := dynaddr.NewNode(eng, s.r, dynCfg, src.Stream("rng", label))
			if err != nil {
				return
			}
			n.Start()
			s.dyn = n
			drv = n
		}
		gen := workload.NewPeriodic(eng, drv, cfg.PacketSize, cfg.DataInterval, cfg.DataInterval/4, src.Stream("wl", label))
		gen.Start(cfg.Duration)
		s.gen = gen

		// Schedule this incarnation's death and replacement.
		life := time.Duration(src.Stream("life", label).ExpFloat64() * float64(cfg.Lifetime))
		eng.Schedule(life, func() {
			gen.Stop()
			out.SendFailures += gen.Stats().SendErrors
			if s.dyn != nil {
				s.dyn.Allocator().Release()
				out.ControlBits += s.dyn.Allocator().Stats().ControlBits
				s.dyn = nil
			}
			join(s, slotIdx)
		})
	}

	for i := 0; i < cfg.Nodes; i++ {
		s := &slot{r: med.MustAttach(radio.NodeID(i + 1))}
		slots[i] = s
		join(s, i)
	}
	// The first joins count as initial configuration, not churn.
	out.Rejoins -= int64(cfg.Nodes)

	eng.RunUntil(cfg.Duration)

	// Collect remaining accounting from live incarnations.
	for _, s := range slots {
		if s.gen != nil {
			out.SendFailures += s.gen.Stats().SendErrors
		}
		if s.dyn != nil {
			out.ControlBits += s.dyn.Allocator().Stats().ControlBits
		}
		out.OnAirBits += s.r.Meter().TxBits
	}
	out.OnAirBits += sinkRadio.Meter().TxBits
	out.UsefulBits, out.PacketsDelivered = sinkDelivered()
	return out, nil
}

// ChurnAblationResult sweeps mean lifetime for both schemes.
type ChurnAblationResult struct {
	Config    ChurnConfig
	Lifetimes []time.Duration
	// Outcomes[scheme][i] corresponds to Lifetimes[i].
	Outcomes map[string][]ChurnOutcome
}

// AblationDynAddrChurn compares AFF with dynamic address allocation across
// node lifetimes: the shorter the lifetime, the more the allocator's
// control traffic and configuration latency cost.
func AblationDynAddrChurn(cfg ChurnConfig, lifetimes []time.Duration) (ChurnAblationResult, error) {
	if err := cfg.Run.Validate(); err != nil {
		return ChurnAblationResult{}, err
	}
	res := ChurnAblationResult{
		Config:    cfg,
		Lifetimes: lifetimes,
		Outcomes:  map[string][]ChurnOutcome{"aff": nil, "dynaddr": nil},
	}
	schemes := []string{"aff", "dynaddr"}
	// One trial per (lifetime, scheme) cell, lifetime-major.
	outs, err := runTrials(cfg.Run, nil, "ablation-churn", len(lifetimes)*len(schemes),
		func(i int, src *xrand.Source) (ChurnOutcome, error) {
			run := cfg
			run.Lifetime = lifetimes[i/len(schemes)]
			scheme := schemes[i%len(schemes)]
			return RunChurnTrial(run, scheme, src.Child(scheme, run.Lifetime.String()))
		}, nil, nil)
	if err != nil {
		return ChurnAblationResult{}, err
	}
	for i, out := range outs {
		scheme := schemes[i%len(schemes)]
		res.Outcomes[scheme] = append(res.Outcomes[scheme], out)
	}
	return res, nil
}

// Render renders the churn ablation as a table.
func (r ChurnAblationResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Dynamic-allocation churn ablation (%d nodes, %v, %dB packets every %v)\n",
		r.Config.Nodes, r.Config.Duration, r.Config.PacketSize, r.Config.DataInterval)
	fmt.Fprintf(&b, "%10s %12s %12s %14s %14s\n", "lifetime", "AFF E", "dynaddr E", "control bits", "send failures")
	for i, life := range r.Lifetimes {
		affOut := r.Outcomes["aff"][i]
		dynOut := r.Outcomes["dynaddr"][i]
		fmt.Fprintf(&b, "%10v %12.4f %12.4f %14d %14d\n",
			life, affOut.E(), dynOut.E(), dynOut.ControlBits, dynOut.SendFailures)
	}
	return b.String()
}
