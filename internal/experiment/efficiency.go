package experiment

import (
	"fmt"
	"math/rand/v2"
	"time"

	"retri/internal/aff"
	"retri/internal/core"
	"retri/internal/density"
	"retri/internal/energy"
	"retri/internal/node"
	"retri/internal/radio"
	"retri/internal/sim"
	"retri/internal/staticaddr"
	"retri/internal/workload"
	"retri/internal/xrand"
)

// Scheme identifies a fragmentation stack for efficiency measurements.
type Scheme struct {
	// Kind is "aff" or "static".
	Kind string
	// Bits is the identifier width: RETRI pool bits for AFF, address
	// bits for static.
	Bits int
	// Selector applies to AFF (default uniform).
	Selector SelectorKind
}

// AFFScheme returns an AFF scheme with the given identifier width.
func AFFScheme(bits int, sel SelectorKind) Scheme {
	if sel == "" {
		sel = SelUniform
	}
	return Scheme{Kind: "aff", Bits: bits, Selector: sel}
}

// StaticScheme returns a static-addressing scheme with the given address
// width.
func StaticScheme(addrBits int) Scheme {
	return Scheme{Kind: "static", Bits: addrBits}
}

// Label renders the scheme for tables.
func (s Scheme) Label() string {
	if s.Kind == "static" {
		return staticLabel(s.Bits)
	}
	return fmt.Sprintf("AFF %d-bit (%s)", s.Bits, s.Selector)
}

// EfficiencyConfig parameterizes a measured-efficiency trial: several
// transmitters streaming packets at one sink, with Equation 1 evaluated
// from the actual meters — useful bits delivered at the sink over total
// bits put on the air.
type EfficiencyConfig struct {
	Run
	Transmitters int
	PacketSize   int
	Scheme       Scheme
	// MAC is the framing profile; per-frame overhead counts toward
	// on-air totals (the Section 4.4 ablation knob).
	MAC energy.MACProfile
}

// DefaultEfficiencyConfig mirrors the Figure 4 workload with RPC framing.
func DefaultEfficiencyConfig(scheme Scheme) EfficiencyConfig {
	return EfficiencyConfig{
		Run:          Run{Seed: 1, Duration: time.Minute},
		Transmitters: 5,
		PacketSize:   80,
		Scheme:       scheme,
		MAC:          energy.RPCProfile(),
	}
}

// EfficiencyOutcome reports one trial's Equation 1 measurements.
type EfficiencyOutcome struct {
	Scheme Scheme
	// UsefulBits is data delivered at the sink.
	UsefulBits int64
	// OnAirBits is every bit transmitted network-wide, including MAC
	// framing.
	OnAirBits int64
	// ProtocolBits is OnAirBits minus MAC framing — the quantity the
	// analytic model prices.
	ProtocolBits int64
	// PacketsDelivered and PacketsOffered count sink deliveries and
	// generator sends.
	PacketsDelivered int64
	PacketsOffered   int64
	// Joules is the network-wide energy spent under the default model.
	Joules float64
}

// E is measured Equation 1 efficiency including MAC framing.
func (o EfficiencyOutcome) E() float64 {
	if o.OnAirBits == 0 {
		return 0
	}
	return float64(o.UsefulBits) / float64(o.OnAirBits)
}

// EProtocol is measured efficiency over protocol bits only (comparable to
// the analytic model, which prices no MAC).
func (o EfficiencyOutcome) EProtocol() float64 {
	if o.ProtocolBits == 0 {
		return 0
	}
	return float64(o.UsefulBits) / float64(o.ProtocolBits)
}

// RunEfficiencyTrial measures one scheme under the standard workload.
func RunEfficiencyTrial(cfg EfficiencyConfig, src *xrand.Source) (EfficiencyOutcome, error) {
	if src == nil {
		src = xrand.NewSource(cfg.Seed).Child("efficiency")
	}
	eng := sim.NewEngine()
	params := radio.DefaultParams()
	params.MAC = cfg.MAC
	med := radio.NewMedium(eng, radio.FullMesh{}, params, src.Stream("medium"))

	const sinkID radio.NodeID = 0
	sinkRadio := med.MustAttach(sinkID)
	sink, err := buildDriver(cfg.Scheme, sinkRadio, params.MTU, 250*time.Millisecond, false, src.Stream("sel", "sink"), node.AFFOptions{})
	if err != nil {
		return EfficiencyOutcome{}, err
	}

	var offered int64
	txRadios := make([]*radio.Radio, 0, cfg.Transmitters)
	gens := make([]*workload.Continuous, 0, cfg.Transmitters)
	for i := 1; i <= cfg.Transmitters; i++ {
		label := fmt.Sprint(i)
		r := med.MustAttach(radio.NodeID(i))
		txRadios = append(txRadios, r)
		d, err := buildDriver(cfg.Scheme, r, params.MTU, 250*time.Millisecond, false, src.Stream("sel", label), node.AFFOptions{})
		if err != nil {
			return EfficiencyOutcome{}, err
		}
		gen := workload.NewContinuous(eng, d, cfg.PacketSize, 0, src.Stream("wl", label))
		gen.Start(cfg.Duration)
		gens = append(gens, gen)
	}

	eng.Run()

	out := EfficiencyOutcome{Scheme: cfg.Scheme}
	var total energy.Meter
	for _, r := range txRadios {
		m := r.Meter()
		out.OnAirBits += m.TxBits
		out.ProtocolBits += m.TxBits - int64(params.MAC.PerFrameOverhead)*m.TxFrames
		total.Add(m)
	}
	total.Add(sinkRadio.Meter())
	out.Joules = energy.DefaultModel().Joules(total)
	for _, g := range gens {
		offered += g.Stats().PacketsOffered
	}
	out.PacketsOffered = offered
	out.UsefulBits = sinkDeliveredBits(sink)
	out.PacketsDelivered = sink.PacketsDelivered()
	return out, nil
}

// buildDriver constructs the scheme's stack on a radio. Static addresses
// are the radio's node ID — a dense, optimal allocation, the strongest
// version of the baseline. AFF nodes run the scheme's selector on a
// density estimate, plus whatever taps opts carries (engine-timed expiry,
// delivery audit, span tracer); instrument adds the Truth trailer.
func buildDriver(s Scheme, r *radio.Radio, mtu int, timeout time.Duration, instrument bool, rng *rand.Rand, opts node.AFFOptions) (node.Driver, error) {
	switch s.Kind {
	case "static":
		return node.NewStatic(r, staticaddr.Config{
			AddrBits:          s.Bits,
			MTU:               mtu,
			ReassemblyTimeout: timeout,
		}, uint64(r.ID()))
	case "aff":
		cfg, err := schemeAFF(s, mtu, timeout, instrument)
		if err != nil {
			return nil, err
		}
		est := density.New(0, 0, r.Now)
		sel, err := makeSelector(selectorOrDefault(s.Selector), cfg.Space, rng, est.Window)
		if err != nil {
			return nil, err
		}
		opts.Estimator = est
		opts.ObserveOwn = s.Selector == SelListening || s.Selector == SelListeningNotify
		return node.NewAFF(r, cfg, sel, opts)
	default:
		return nil, fmt.Errorf("experiment: unknown scheme kind %q", s.Kind)
	}
}

// schemeAFF is an AFF scheme's wire format. A trial's ground truth must
// share it exactly or it cannot decode what it overhears.
func schemeAFF(s Scheme, mtu int, timeout time.Duration, instrument bool) (aff.Config, error) {
	space, err := core.NewSpace(s.Bits)
	if err != nil {
		return aff.Config{}, err
	}
	return aff.Config{Space: space, MTU: mtu, Instrument: instrument, ReassemblyTimeout: timeout}, nil
}

func selectorOrDefault(k SelectorKind) SelectorKind {
	if k == "" {
		return SelUniform
	}
	return k
}

// sinkDeliveredBits extracts delivered payload bits from either driver.
func sinkDeliveredBits(d node.Driver) int64 {
	switch dd := d.(type) {
	case *node.AFFDriver:
		return dd.Reassembler().Stats().DeliveredBits
	case *node.StaticDriver:
		return dd.Reassembler().Stats().DeliveredBits
	default:
		return 0
	}
}
