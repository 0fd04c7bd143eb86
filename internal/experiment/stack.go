package experiment

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"time"

	"retri/internal/adapt"
	"retri/internal/aff"
	"retri/internal/arq"
	"retri/internal/core"
	"retri/internal/density"
	"retri/internal/flood"
	"retri/internal/mobility"
	"retri/internal/node"
	"retri/internal/oracle"
	"retri/internal/radio"
	"retri/internal/sim"
	"retri/internal/span"
)

// validateWidthField checks the config shared by the width-policy sweeps
// on a unit-disk field (dynamics, chaos, multihop): the fixed arm's width,
// the adaptive arm's clamp, the deployment area and the radio range.
func validateWidthField(sweep string, fixedBits, minBits, maxBits int, area mobility.Area, rangeM float64) error {
	if fixedBits < 1 || fixedBits > 32 {
		return fmt.Errorf("experiment: fixed width %d outside [1, 32]", fixedBits)
	}
	if minBits < 1 || maxBits < minBits || maxBits > 32 {
		return fmt.Errorf("experiment: adaptive width clamp [%d, %d] invalid", minBits, maxBits)
	}
	if !(area.W > 0) || !(area.H > 0) || math.IsInf(area.W, 0) || math.IsInf(area.H, 0) {
		return fmt.Errorf("experiment: %s area %vx%v invalid", sweep, area.W, area.H)
	}
	if !(rangeM > 0) {
		return fmt.Errorf("experiment: %s radio range %v must be positive", sweep, rangeM)
	}
	return nil
}

// widthAFF is the instrumented AFF wire format of one width-policy arm:
// fixed arms draw fixedBits-wide identifiers, adaptive arms open the
// maxBits pool and carry each transaction's width in-band.
func widthAFF(policy WidthPolicyKind, fixedBits, maxBits, mtu int, timeout time.Duration) aff.Config {
	cfg := aff.Config{
		Space:             core.MustSpace(fixedBits),
		MTU:               mtu,
		Instrument:        true,
		ReassemblyTimeout: timeout,
	}
	if policy.adaptive() {
		cfg.Space = core.MustSpace(maxBits)
		cfg.AdaptiveWidth = true
	}
	return cfg
}

// sensors builds one width-policy arm's listening AFF stack on every node
// of a trial: an estimator for the arm's policy, a listening selector on
// its window, engine-timed reassembly expiry, the oracle's delivery audit
// and the span tracer, and on adaptive senders an adapt controller.
type sensors struct {
	eng    *sim.Engine
	aff    aff.Config
	policy WidthPolicyKind
	// width configures adaptive senders' controllers; each node's
	// OnChange reports to the span tracer.
	width adapt.Config
	orc   *oracle.Oracle
	sp    *span.Tracer
}

// sensor is one node's stack.
type sensor struct {
	drv *node.AFFDriver
	est density.TEstimator
	// ctl is nil on fixed arms and on stacks built by sink.
	ctl *adapt.Controller
}

// widthOr is the width the node currently draws: its controller's, or
// fixed on a fixed arm.
func (s sensor) widthOr(fixed int) int {
	if s.ctl != nil {
		return s.ctl.Current()
	}
	return fixed
}

// sink builds a receiving stack: it neither observes its own draws nor
// sizes them, and runs truth (when set) beside the reassembler under test.
// relay is nil on single-hop fields.
func (s sensors) sink(r *radio.Radio, rng *rand.Rand, truth *aff.TruthReassembler, relay *flood.Relay) (sensor, error) {
	return s.build(r, rng, node.AFFOptions{Truth: truth}, relay)
}

// sender builds a sending stack: it observes its own draws and, on an
// adaptive arm, sizes each transaction with a controller.
func (s sensors) sender(r *radio.Radio, rng *rand.Rand, relay *flood.Relay) (sensor, error) {
	return s.build(r, rng, node.AFFOptions{ObserveOwn: true}, relay)
}

func (s sensors) build(r *radio.Radio, rng *rand.Rand, opts node.AFFOptions, relay *flood.Relay) (sensor, error) {
	n := sensor{est: density.NewPolicy(s.policy.estimatorPolicy(), 0, 0, s.eng.Now)}
	sel := core.NewListeningSelector(s.aff.Space, rng, n.est.Window)
	opts.Estimator = n.est
	opts.Engine = s.eng
	opts.OnDeliver = s.orc.DeliveryAudit(r.ID())
	// Interface fields stay nil rather than holding typed nil pointers.
	if s.sp != nil {
		opts.Span = s.sp
	}
	if relay != nil {
		opts.Relay = relay
	}
	if opts.ObserveOwn && s.policy.adaptive() {
		wcfg := s.width
		if sp := s.sp; sp != nil {
			id := r.ID()
			wcfg.OnChange = func(from, to int) { sp.NoteWidthChange(id, from, to) }
		}
		ctl, err := adapt.New(wcfg, n.est)
		if err != nil {
			return sensor{}, err
		}
		n.ctl, opts.Width = ctl, ctl
	}
	var err error
	n.drv, err = node.NewAFF(r, s.aff, sel, opts)
	return n, err
}

// arqStar is the recovery and chaos workload: senders offer packets through
// ARQ endpoints to one sink on a jittered period, and the sink's unique
// deliveries yield send-to-delivery latencies.
type arqStar struct {
	eng      *sim.Engine
	arq      arq.Config
	reliable bool
	sp       *span.Tracer

	sink      *arq.Endpoint
	senders   []*arq.Endpoint
	offered   int64
	sendAt    map[arqKey]time.Duration
	latencies []time.Duration
}

type arqKey struct{ token, seq uint32 }

// endpoint wraps d in an ARQ endpoint with the star's config adjusted by
// role: senders retransmit on reliable rows, the sink acks on them.
func (s *arqStar) endpoint(d node.Driver, token uint32, rng *rand.Rand, sender bool) (*arq.Endpoint, error) {
	cfg := s.arq
	cfg.Reliable = sender && s.reliable
	cfg.Ack = !sender && s.reliable
	ep, err := arq.NewEndpoint(s.eng, d, token, cfg, rng)
	if err == nil && s.sp != nil {
		ep.SetAttemptObserver(s.sp)
	}
	return ep, err
}

// attachSink makes d the sink. Each unique delivery records its latency
// and then, when tap is set, reports its time to tap.
func (s *arqStar) attachSink(d node.Driver, token uint32, rng *rand.Rand, tap func(now time.Duration)) error {
	ep, err := s.endpoint(d, token, rng, false)
	if err != nil {
		return err
	}
	s.sink = ep
	s.sendAt = make(map[arqKey]time.Duration)
	ep.SetDeliver(func(token, seq uint32, _ []byte) {
		now := s.eng.Now()
		if t0, ok := s.sendAt[arqKey{token, seq}]; ok {
			s.latencies = append(s.latencies, now-t0)
		}
		if tap != nil {
			tap(now)
		}
	})
	return nil
}

// attachSender makes d a sender: one random size-byte packet every
// interval up to horizon, each delayed by up to interval/4 of jitter from
// wl. Call attachSink first.
func (s *arqStar) attachSender(d node.Driver, token uint32, rng, wl *rand.Rand, size int, interval, horizon time.Duration) error {
	ep, err := s.endpoint(d, token, rng, true)
	if err != nil {
		return err
	}
	s.senders = append(s.senders, ep)
	// One callback and one payload buffer serve every packet: Send
	// copies the payload.
	payload := make([]byte, size)
	send := func() {
		for b := range payload {
			payload[b] = byte(wl.Uint32())
		}
		s.offered++
		if seq, err := ep.Send(payload); err == nil {
			s.sendAt[arqKey{token, seq}] = s.eng.Now()
		}
	}
	for t := interval; t <= horizon; t += interval {
		s.eng.ScheduleAt(t+time.Duration(wl.Int64N(int64(interval/4))), send)
	}
	return nil
}

// counters sums every endpoint's counters, sink first.
func (s *arqStar) counters() arq.Counters {
	c := s.sink.Counters()
	for _, ep := range s.senders {
		c.Add(ep.Counters())
	}
	return c
}

// latency returns the mean and 95th-percentile send-to-delivery latency,
// zero when nothing was delivered.
func (s *arqStar) latency() (mean, p95 time.Duration) {
	l := s.latencies
	if len(l) == 0 {
		return 0, 0
	}
	sort.Slice(l, func(i, j int) bool { return l[i] < l[j] })
	var sum time.Duration
	for _, v := range l {
		sum += v
	}
	return sum / time.Duration(len(l)), l[(len(l)*95)/100]
}
