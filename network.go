package retri

import (
	"bytes"
	"fmt"
	"time"

	"retri/internal/aff"
	"retri/internal/core"
	"retri/internal/density"
	"retri/internal/energy"
	"retri/internal/node"
	"retri/internal/radio"
	"retri/internal/sim"
	"retri/internal/trace"
	"retri/internal/xrand"
)

// Network is a simulated broadcast sensor network whose nodes exchange
// packets through the AFF fragmentation service. It wraps the
// discrete-event engine, the radio medium, and per-node protocol stacks
// behind a small API.
type Network struct {
	eng  *sim.Engine
	med  *radio.Medium
	src  *xrand.Source
	opts networkOptions
}

type networkOptions struct {
	seed    uint64
	idBits  int
	listen  bool
	params  radio.Params
	topo    radio.Topology
	timeout time.Duration
}

// Option configures a Network.
type Option interface {
	apply(*networkOptions)
}

type optionFunc func(*networkOptions)

func (f optionFunc) apply(o *networkOptions) { f(o) }

// WithSeed fixes the master random seed; identical seeds reproduce runs
// exactly.
func WithSeed(seed uint64) Option {
	return optionFunc(func(o *networkOptions) { o.seed = seed })
}

// WithIdentifierBits sets the RETRI pool width for all nodes (default 9,
// the paper's Figure 1 optimum for T=16 with 16-bit data).
func WithIdentifierBits(bits int) Option {
	return optionFunc(func(o *networkOptions) { o.idBits = bits })
}

// WithListening enables the listening heuristic on every node: selectors
// avoid identifiers heard within the adaptive 2T window.
func WithListening() Option {
	return optionFunc(func(o *networkOptions) { o.listen = true })
}

// WithRadioParams overrides the radio defaults (27-byte MTU, 40kbit/s,
// CSMA, RPC-like framing).
func WithRadioParams(p radio.Params) Option {
	return optionFunc(func(o *networkOptions) { o.params = p })
}

// WithTopology overrides the full-mesh default (e.g. a unit-disk layout).
func WithTopology(t radio.Topology) Option {
	return optionFunc(func(o *networkOptions) { o.topo = t })
}

// WithReassemblyTimeout sets how long partial packets are held before
// eviction (default 30s).
func WithReassemblyTimeout(d time.Duration) Option {
	return optionFunc(func(o *networkOptions) { o.timeout = d })
}

// RadioParams re-exports the medium configuration for WithRadioParams.
type RadioParams = radio.Params

// DefaultRadioParams returns the paper-calibrated radio: 27-byte frames at
// 40 kbit/s with RPC-like framing and CSMA.
func DefaultRadioParams() RadioParams { return radio.DefaultParams() }

// Topology re-exports the connectivity interface for WithTopology.
type Topology = radio.Topology

// Topology constructors.
var (
	// NewFullMesh connects everyone (the paper's testbed).
	NewFullMesh = func() Topology { return radio.FullMesh{} }
)

// Point is a 2-D position for unit-disk topologies.
type Point = radio.Point

// NewUnitDisk returns a position-based topology with the given range;
// place nodes with its Place method before (or while) the simulation runs.
func NewUnitDisk(radioRange float64) *radio.UnitDisk { return radio.NewUnitDisk(radioRange) }

// NewShadowed returns a unit-disk topology with per-link log-normal
// shadowing (sigma in dB): irregular, reproducible coverage instead of
// perfect circles.
func NewShadowed(radioRange, sigmaDB float64, seed uint64) *radio.Shadowed {
	return radio.NewShadowed(radioRange, sigmaDB, seed)
}

// NewNetwork builds an empty network.
func NewNetwork(opts ...Option) *Network {
	o := networkOptions{
		seed:   1,
		idBits: 9,
		params: radio.DefaultParams(),
		topo:   radio.FullMesh{},
	}
	for _, opt := range opts {
		opt.apply(&o)
	}
	src := xrand.NewSource(o.seed)
	eng := sim.NewEngine()
	med := radio.NewMedium(eng, o.topo, o.params, src.Stream("medium"))
	return &Network{eng: eng, med: med, src: src, opts: o}
}

// Node is one sensor node: a radio plus the AFF stack.
type Node struct {
	id     radio.NodeID
	driver *node.AFFDriver
	net    *Network
}

// AddNode attaches a node with the network-wide defaults. IDs are
// simulation bookkeeping only; they never appear on the air.
func (n *Network) AddNode(id int) (*Node, error) {
	r, err := n.med.Attach(radio.NodeID(id))
	if err != nil {
		return nil, err
	}
	space, err := core.NewSpace(n.opts.idBits)
	if err != nil {
		return nil, err
	}
	label := fmt.Sprint(id)
	est := density.New(0, 0, n.eng.Now)
	var sel core.Selector
	if n.opts.listen {
		sel = core.NewListeningSelector(space, n.src.Stream("sel", label), est.Window)
	} else {
		sel = core.NewUniformSelector(space, n.src.Stream("sel", label))
	}
	d, err := node.NewAFF(r, aff.Config{
		Space:             space,
		MTU:               n.opts.params.MTU,
		ReassemblyTimeout: n.opts.timeout,
	}, sel, node.AFFOptions{
		Estimator:  est,
		ObserveOwn: n.opts.listen,
	})
	if err != nil {
		return nil, err
	}
	return &Node{id: radio.NodeID(id), driver: d, net: n}, nil
}

// Run executes the simulation until no events remain.
func (n *Network) Run() { n.eng.Run() }

// RunFor executes the simulation for a span of virtual time.
func (n *Network) RunFor(d time.Duration) { n.eng.RunFor(d) }

// Now returns the current virtual time.
func (n *Network) Now() time.Duration { return n.eng.Now() }

// Schedule runs fn after a virtual delay; use it to script traffic.
func (n *Network) Schedule(d time.Duration, fn func()) { n.eng.Schedule(d, fn) }

// Counters returns medium-wide frame statistics.
func (n *Network) Counters() radio.Counters { return n.med.Counters() }

// Tracer consumes structured simulation events; see NewTraceRing.
type Tracer = trace.Tracer

// TraceEvent is one structured simulation event.
type TraceEvent = trace.Event

// NewTraceRing returns a flight recorder keeping the last n events; attach
// it with SetTracer and inspect with its Events or Dump methods.
func NewTraceRing(n int) *trace.Ring { return trace.NewRing(n) }

// SetTracer streams radio-level events (frames sent, delivered, collided,
// lost) to t; nil disables tracing.
func (n *Network) SetTracer(t Tracer) { n.med.SetTracer(t) }

// ID returns the node's simulation ID.
func (nd *Node) ID() int { return int(nd.id) }

// Send fragments and broadcasts a packet (up to 64 KiB) under a fresh
// RETRI identifier.
func (nd *Node) Send(p []byte) error { return nd.driver.SendPacket(p) }

// OnPacket installs the delivery callback for reassembled packets. Each
// packet is the callback's to keep.
func (nd *Node) OnPacket(fn func(p []byte)) {
	if fn == nil {
		nd.driver.SetPacketHandler(nil)
		return
	}
	// The stack lends its delivery buffer for the call only.
	nd.driver.SetPacketHandler(func(p []byte) { fn(bytes.Clone(p)) })
}

// Sent reports packets this node has transmitted.
func (nd *Node) Sent() int64 { return nd.driver.PacketsSent() }

// Delivered reports packets this node has reassembled and delivered.
func (nd *Node) Delivered() int64 { return nd.driver.PacketsDelivered() }

// Collisions reports transactions this node dropped due to identifier
// conflicts.
func (nd *Node) Collisions() int64 { return nd.driver.Reassembler().Stats().Conflicts }

// Energy returns the node's radio energy meter.
func (nd *Node) Energy() energy.Meter { return nd.driver.Radio().Meter() }

// SetUp powers the node's radio on or off (node churn).
func (nd *Node) SetUp(up bool) { nd.driver.Radio().SetUp(up) }
