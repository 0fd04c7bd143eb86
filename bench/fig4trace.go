package bench

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"sort"
	"strconv"
	"time"

	"retri/internal/aff"
	"retri/internal/core"
	"retri/internal/density"
	"retri/internal/experiment"
	"retri/internal/frame"
	"retri/internal/node"
	"retri/internal/radio"
	"retri/internal/sim"
	wl "retri/internal/workload"
	"retri/internal/xrand"
)

// The figure-4 traced trial re-assembles experiment.RunCollisionTrial from
// the public constructors with timing decorators around each layer
// boundary. Decorators draw no randomness, schedule nothing and forward
// every optional interface the stack type-asserts, so the trial's outcome
// is identical to the undecorated one (see the fidelity tests).

// span accumulates timed calls into one layer.
type span struct {
	calls int64
	ns    int64
}

func (s *span) since(start time.Time) {
	s.calls++
	s.ns += int64(time.Since(start))
}

func (s span) perCall() float64 {
	if s.calls == 0 {
		return 0
	}
	return float64(s.ns) / float64(s.calls)
}

// fig4Spans is one decorated run's accumulators.
type fig4Spans struct {
	send, next, observe, estimate, connected, run span
	// sendMallocs over sendSampled sampled SendPacket calls.
	sendMallocs, sendSampled int64
	events                   uint64
}

// sendAllocEvery spaces the SendPacket calls whose allocations are counted:
// runtime.ReadMemStats stops the world, too costly for every call.
const sendAllocEvery = 16

type timedSelector struct {
	inner         core.Selector
	next, observe *span
}

func (s timedSelector) Next() uint64 {
	t := time.Now()
	id := s.inner.Next()
	s.next.since(t)
	return id
}

func (s timedSelector) NextWidth(bits int) uint64 {
	t := time.Now()
	id := s.inner.NextWidth(bits)
	s.next.since(t)
	return id
}

func (s timedSelector) Observe(id uint64) {
	t := time.Now()
	s.inner.Observe(id)
	s.observe.since(t)
}

func (s timedSelector) ObserveWidth(bits int, id uint64) {
	t := time.Now()
	s.inner.ObserveWidth(bits, id)
	s.observe.since(t)
}

func (s timedSelector) Space() core.Space { return s.inner.Space() }
func (s timedSelector) Name() string      { return s.inner.Name() }

// Reset forwards the crash path's optional interface.
func (s timedSelector) Reset() {
	if r, ok := s.inner.(interface{ Reset() }); ok {
		r.Reset()
	}
}

type timedEstimator struct {
	inner   density.TEstimator
	observe *span
}

func (e timedEstimator) Observe(id uint64) {
	t := time.Now()
	e.inner.Observe(id)
	e.observe.since(t)
}

func (e timedEstimator) Estimate() float64 { return e.inner.Estimate() }
func (e timedEstimator) Window() int       { return e.inner.Window() }

func (e timedEstimator) Reset() {
	if r, ok := e.inner.(interface{ Reset() }); ok {
		r.Reset()
	}
}

// completingEstimator keeps density.CompletionObserver visible to
// node.NewAFF's type assertion when the wrapped estimator has it.
type completingEstimator struct {
	timedEstimator
	co density.CompletionObserver
}

func (e completingEstimator) ObserveComplete(id uint64) { e.co.ObserveComplete(id) }

func wrapEstimator(inner density.TEstimator, observe *span) density.TEstimator {
	te := timedEstimator{inner: inner, observe: observe}
	if co, ok := inner.(density.CompletionObserver); ok {
		return completingEstimator{te, co}
	}
	return te
}

// timedDriver decorates the workload generator's driver: it times
// SendPacket and keeps a copy of every packet for the fragmenter replay.
type timedDriver struct {
	inner   wl.Driver
	sp      *fig4Spans
	packets *[][]byte
}

func (d timedDriver) SendPacket(p []byte) error {
	*d.packets = append(*d.packets, append([]byte(nil), p...))
	if (d.sp.send.calls+d.sp.sendSampled)%sendAllocEvery == 0 {
		// Sampled calls are not timed: the stop-the-world and the flushed
		// allocation caches would inflate them.
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := d.inner.SendPacket(p)
		runtime.ReadMemStats(&after)
		d.sp.sendMallocs += int64(after.Mallocs - before.Mallocs)
		d.sp.sendSampled++
		return err
	}
	t := time.Now()
	err := d.inner.SendPacket(p)
	d.sp.send.since(t)
	return err
}

func (d timedDriver) Radio() *radio.Radio { return d.inner.Radio() }

type timedTopology struct {
	inner radio.Topology
	acc   *span
}

func (t timedTopology) Connected(from, to radio.NodeID) bool {
	s := time.Now()
	ok := t.inner.Connected(from, to)
	t.acc.since(s)
	return ok
}

// capturedFrame is one frame delivered to the receiver under test.
type capturedFrame struct {
	at      time.Duration
	payload []byte
}

// deliveryTap is a passive radio.FrameObserver copying what one node
// receives.
type deliveryTap struct {
	to     radio.NodeID
	now    func() time.Duration
	frames []capturedFrame
}

func (d *deliveryTap) FrameSent(radio.Frame) {}

func (d *deliveryTap) FrameDelivered(to radio.NodeID, f radio.Frame, _ bool) {
	if to == d.to {
		d.frames = append(d.frames, capturedFrame{d.now(), append([]byte(nil), f.Payload...)})
	}
}

// fig4Capture is what one decorated trial leaves for the replay.
type fig4Capture struct {
	affCfg  aff.Config
	frames  []capturedFrame
	packets [][]byte
	// delivered is the live receiver's delivered count.
	delivered int64
}

func newSelector(kind experiment.SelectorKind, space core.Space, rng *rand.Rand, window core.WindowFunc) (core.Selector, error) {
	switch kind {
	case experiment.SelUniform:
		return core.NewUniformSelector(space, rng), nil
	case experiment.SelListening:
		return core.NewListeningSelector(space, rng, window), nil
	default:
		return nil, fmt.Errorf("bench: decorated figure-4 trial supports uniform and listening, not %q", kind)
	}
}

// tracedCollisionTrial is experiment.RunCollisionTrial for the workload's
// config (full mesh, default radio, EMA estimator, continuous senders)
// with every layer boundary decorated.
func tracedCollisionTrial(cfg experiment.Figure4Config, kind experiment.SelectorKind, bits int, src *xrand.Source, sp *fig4Spans) (experiment.TrialOutcome, fig4Capture, error) {
	eng := sim.NewEngine()
	params := radio.DefaultParams()
	const receiverID radio.NodeID = 0
	med := radio.NewMedium(eng, timedTopology{radio.FullMesh{}, &sp.connected}, params, src.Stream("medium"))
	tap := &deliveryTap{to: receiverID, now: eng.Now}
	med.SetFrameObserver(tap)

	affCfg := aff.Config{
		Space:             core.MustSpace(bits),
		MTU:               params.MTU,
		Instrument:        true,
		ReassemblyTimeout: cfg.ReassemblyTimeout,
	}
	capture := fig4Capture{affCfg: affCfg}
	rxRadio := med.MustAttach(receiverID)
	truth := aff.NewTruthReassembler(affCfg, eng.Now)
	rxEst := wrapEstimator(density.New(0, 0, eng.Now), &sp.estimate)
	rxSel, err := newSelector(kind, affCfg.Space, src.Stream("rx-sel"), rxEst.Window)
	if err != nil {
		return experiment.TrialOutcome{}, capture, err
	}
	rx, err := node.NewAFF(rxRadio, affCfg, timedSelector{rxSel, &sp.next, &sp.observe}, node.AFFOptions{
		Estimator: rxEst,
		Truth:     truth,
	})
	if err != nil {
		return experiment.TrialOutcome{}, capture, err
	}
	for i := 1; i <= cfg.Transmitters; i++ {
		label := strconv.Itoa(i)
		txRadio := med.MustAttach(radio.NodeID(i))
		est := wrapEstimator(density.New(0, 0, eng.Now), &sp.estimate)
		sel, err := newSelector(kind, affCfg.Space, src.Stream("sel", label), est.Window)
		if err != nil {
			return experiment.TrialOutcome{}, capture, err
		}
		d, err := node.NewAFF(txRadio, affCfg, timedSelector{sel, &sp.next, &sp.observe}, node.AFFOptions{
			Estimator:  est,
			ObserveOwn: kind == experiment.SelListening,
		})
		if err != nil {
			return experiment.TrialOutcome{}, capture, err
		}
		gen := wl.NewContinuousMixed(eng, timedDriver{d, sp, &capture.packets}, []int{cfg.PacketSize}, 0, src.Stream("wl", label))
		gen.Start(cfg.Duration)
	}

	start := time.Now()
	eng.Run()
	sp.run.since(start)
	sp.events += eng.Stats().Processed

	out := experiment.TrialOutcome{
		TruthDelivered: truth.Stats().Delivered,
		AFFDelivered:   rx.Reassembler().Stats().Delivered,
		EstimatedT:     rxEst.Estimate(),
	}
	if out.TruthDelivered > 0 {
		lost := out.TruthDelivered - out.AFFDelivered
		if lost < 0 {
			lost = 0
		}
		out.CollisionRate = float64(lost) / float64(out.TruthDelivered)
	}
	capture.frames = tap.frames
	capture.delivered = out.AFFDelivered
	return out, capture, nil
}

// fig4TraceBits is the identifier width of the decorated trials: mid-sweep,
// where collisions are common but not saturating.
const fig4TraceBits = 6

// fig4TraceTrial returns the source the sweep gives the first trial of a
// selector at fig4TraceBits, so the decorated trial replays it exactly.
func fig4TraceTrial(seed uint64, kind experiment.SelectorKind) *xrand.Source {
	return xrand.NewSource(seed).Child("figure4").Child(string(kind), strconv.Itoa(fig4TraceBits), "0")
}

// replayPasses is how many times each replay runs; the median pass counts.
const replayPasses = 5

// replay times fn over n calls per pass and counts its allocations.
func replay(n int, fn func() error) (nsPerCall, allocsPerCall float64, err error) {
	if n == 0 {
		return 0, 0, nil
	}
	var passes []float64
	var allocs float64
	for p := 0; p < replayPasses; p++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		if err := fn(); err != nil {
			return 0, 0, err
		}
		elapsed := time.Since(start)
		runtime.ReadMemStats(&after)
		passes = append(passes, float64(elapsed.Nanoseconds())/float64(n))
		allocs = float64(after.Mallocs-before.Mallocs) / float64(n)
	}
	sort.Float64s(passes)
	return passes[len(passes)/2], allocs, nil
}

// replayIngest feeds captured frames through a fresh reassembler on the
// captured clock and returns what it delivered.
func replayIngest(c fig4Capture) int64 {
	var now time.Duration
	r := aff.NewReassembler(c.affCfg, func() time.Duration { return now }, func(aff.Packet) {})
	for _, f := range c.frames {
		now = f.at
		r.Ingest(f.payload)
	}
	return r.Stats().Delivered
}

// decorateFig4 runs the decorated uniform and listening trials and the
// codec, reassembly and fragmentation replays of what they captured.
func decorateFig4(seed uint64, sz size, layers map[string]float64) error {
	cfg := fig4Config(seed, sz)
	var sp fig4Spans
	var captures []fig4Capture
	for _, kind := range []experiment.SelectorKind{experiment.SelUniform, experiment.SelListening} {
		_, c, err := tracedCollisionTrial(cfg, kind, fig4TraceBits, fig4TraceTrial(seed, kind), &sp)
		if err != nil {
			return err
		}
		captures = append(captures, c)
	}
	var frames, packets int
	for _, c := range captures {
		frames += len(c.frames)
		packets += len(c.packets)
	}
	decode, decodeAllocs, err := replay(frames, func() error {
		for _, c := range captures {
			codec := frame.AFFCodec{IDBits: c.affCfg.Space.Bits(), Instrument: c.affCfg.Instrument, InBandWidth: c.affCfg.AdaptiveWidth}
			for _, f := range c.frames {
				if _, err := codec.Decode(f.payload); err != nil {
					return fmt.Errorf("bench: replayed frame does not decode: %w", err)
				}
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	ingest, ingestAllocs, err := replay(frames, func() error {
		for _, c := range captures {
			if got := replayIngest(c); got != c.delivered {
				return fmt.Errorf("bench: reassembly replay delivered %d packets, the live receiver %d", got, c.delivered)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	fragment, fragmentAllocs, err := replay(packets, func() error {
		for _, c := range captures {
			sel := core.NewUniformSelector(c.affCfg.Space, rand.New(rand.NewPCG(seed, 1)))
			fr, err := aff.NewFragmenter(c.affCfg, sel, 1)
			if err != nil {
				return err
			}
			for _, p := range c.packets {
				if _, err := fr.Fragment(p); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	layers["frame.decode_ns"] = decode
	layers["frame.decode_allocs"] = decodeAllocs
	layers["aff.ingest_ns"] = ingest
	layers["aff.ingest_allocs"] = ingestAllocs
	layers["aff.fragment_ns"] = fragment
	layers["aff.fragment_allocs"] = fragmentAllocs
	layers["node.send_ns"] = sp.send.perCall()
	layers["node.send_allocs"] = ratio(sp.sendMallocs, sp.sendSampled)
	layers["core.next_ns"] = sp.next.perCall()
	layers["core.observe_ns"] = sp.observe.perCall()
	layers["density.observe_ns"] = sp.estimate.perCall()
	layers["radio.connected_ns"] = sp.connected.perCall()
	layers["sim.run_ms"] = float64(sp.run.ns) / 1e6
	layers["sim.ns_per_event"] = ratio(sp.run.ns, int64(sp.events))
	return nil
}
