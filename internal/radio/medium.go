// Package radio simulates the broadcast wireless medium the paper's
// implementation ran on: short fixed-size frames, half-duplex radios, RF
// collisions, random loss, and a choice of trivial MACs.
//
// The model is deliberately simple — the class of radio the paper targets
// (Radiometrix RPC and kin) has "extremely simple MACs and framing"
// (Section 4.4). A frame transmitted by node u occupies the channel, as
// heard by each receiver v in range of u, for its airtime. v receives the
// frame unless (a) another in-range transmission overlapped it at v (RF
// collision), (b) v itself transmitted during the window (half-duplex
// miss), (c) v was down or not listening, or (d) an independent random
// loss draw failed.
package radio

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"slices"
	"time"

	"retri/internal/energy"
	"retri/internal/poison"
	"retri/internal/sim"
	"retri/internal/trace"
)

// MACKind selects the channel-access discipline.
type MACKind int

const (
	// CSMA senses the carrier before transmitting and backs off randomly
	// while the channel is busy (as heard at the transmitter).
	CSMA MACKind = iota + 1
	// ALOHA transmits immediately regardless of channel state.
	ALOHA
)

// LossModel decides whether an otherwise-receivable frame is lost on the
// directed link from→to. It replaces the i.i.d. FrameLoss draw when set,
// allowing correlated loss processes (e.g. a Gilbert–Elliott burst
// channel, internal/faults). The medium consults it once per (frame,
// receiver) pair in attachment order, so a deterministic implementation
// keeps the whole run deterministic.
type LossModel interface {
	Drop(from, to NodeID, at time.Duration) bool
}

// Corrupter may damage a frame's payload on its way to one receiver. It
// must return a private copy when it mutates (the same payload bytes are
// delivered to every other receiver) and report whether it did. Corrupted
// frames are still delivered — catching them is the checksum layer's job.
type Corrupter interface {
	Corrupt(payload []byte) ([]byte, bool)
}

// Params configures a Medium.
type Params struct {
	// MTU is the maximum frame payload in bytes (the paper's RPC radio:
	// 27 bytes).
	MTU int
	// BitRate is the on-air rate in bits per second.
	BitRate float64
	// FrameLoss is the independent per-receiver probability that an
	// otherwise-receivable frame is lost. Ignored when Loss is set.
	FrameLoss float64
	// Loss, when non-nil, replaces the FrameLoss coin flip with a
	// correlated loss process (fault injection).
	Loss LossModel
	// Corrupt, when non-nil, may flip bits in delivered payloads (fault
	// injection); corrupted deliveries are counted and traced.
	Corrupt Corrupter
	// MAC is the per-frame framing overhead profile (airtime and energy).
	MAC energy.MACProfile
	// Access selects CSMA or ALOHA.
	Access MACKind
	// Contention is the CSMA contention window: every transmission
	// attempt (including a sender's next frame) is delayed by a uniform
	// draw from [0, Contention), so contending nodes interleave fairly
	// frame by frame, as the paper's testbed radios did. Zero selects a
	// 4ms default.
	Contention time.Duration
	// SenseDelay is the carrier-sense blind spot: a transmission younger
	// than this is not yet audible to other carrier sensors, so two
	// attempts within SenseDelay of each other produce a real RF
	// collision. Zero selects a 25µs default (one bit time at 40kbit/s).
	SenseDelay time.Duration
}

// DefaultParams models the paper's testbed radio: 27-byte frames at
// 40 kbit/s with RPC-like framing and CSMA access, no random loss.
func DefaultParams() Params {
	return Params{
		MTU:     27,
		BitRate: 40e3,
		MAC:     energy.RPCProfile(),
		Access:  CSMA,
	}
}

// Counters aggregates medium-wide outcomes, one increment per (frame,
// receiver) pair except Sent, which counts transmissions.
type Counters struct {
	Sent       int64 // frames put on air
	Delivered  int64 // successful receptions
	Collided   int64 // receptions destroyed by overlapping transmissions
	HalfDuplex int64 // receptions missed because the receiver was transmitting
	RandomLoss int64 // receptions dropped by the loss model
	NotHeard   int64 // receiver down or not listening during the frame
	Backoffs   int64 // CSMA backoff events
	Corrupted  int64 // deliveries whose payload the fault model damaged
}

var (
	// ErrFrameTooLarge is returned by Send when the payload exceeds the MTU.
	ErrFrameTooLarge = errors.New("radio: frame exceeds MTU")
	// ErrRadioDown is returned by Send when the radio is powered off.
	ErrRadioDown = errors.New("radio: radio is down")
	// ErrDuplicateNode is returned by Attach for an already-attached ID.
	ErrDuplicateNode = errors.New("radio: node already attached")
)

// Frame is one on-air transmission unit.
type Frame struct {
	// From is the transmitting radio. It is simulation ground truth for
	// the harness and MAC bookkeeping; protocol code under test must not
	// read it (the AFF wire format carries no source).
	From NodeID
	// Payload is the frame body as produced by a wire-format encoder. In
	// a frame the medium hands out it is the medium's copy, valid only
	// during the callback: the medium reuses it once the transmission
	// completes, so a reader that keeps the bytes copies them.
	Payload []byte
	// Bits is the exact number of meaningful payload bits; it may be less
	// than 8*len(Payload) when a bit-packed header leaves padding in the
	// final byte. Airtime and energy accounting use Bits.
	Bits int
}

// FrameObserver watches raw frames from the simulator's privileged
// viewpoint: unlike trace.Tracer it sees payload bytes and the ground-truth
// sender, and each delivery carries the copy the receiver got, corruption
// included. Implementations must be passive — no randomness draws, no
// event scheduling, no mutation of the payload — so that attaching one
// cannot perturb the simulation.
type FrameObserver interface {
	// FrameSent fires once per transmission, when the frame is put on air.
	FrameSent(f Frame)
	// FrameDelivered fires once per successful reception, just before the
	// receiver's handler. corrupted reports whether a fault model damaged
	// this receiver's copy of the payload.
	FrameDelivered(to NodeID, f Frame, corrupted bool)
}

// Fate classifies the outcome of one (frame, receiver) pair — the
// per-receiver verdict the reception model reaches in Medium.deliver.
type Fate int

// Fates, in the order the reception model rules them out.
const (
	FateNotHeard Fate = iota + 1
	FateHalfDuplex
	FateCollided
	FateRandomLoss
	FateCorrupted // delivered, but the fault model damaged this copy
	FateDelivered
)

// String names a fate for ledgers and query output.
func (f Fate) String() string {
	switch f {
	case FateNotHeard:
		return "not-heard"
	case FateHalfDuplex:
		return "half-duplex"
	case FateCollided:
		return "collided"
	case FateRandomLoss:
		return "random-loss"
	case FateCorrupted:
		return "corrupted"
	case FateDelivered:
		return "delivered"
	default:
		return "unknown"
	}
}

// FateObserver watches every per-receiver reception outcome from the
// simulator's privileged viewpoint — the feed of the ground-truth tracker
// (internal/truth) that the conformance oracle and the span tracer read.
// Where FrameObserver reports only transmissions and successful
// deliveries, a FateObserver additionally hears about every loss and why.
// FrameFate always receives the sender's original payload, even when a
// corrupter damaged the delivered copy, so observers can attribute the
// outcome to the transaction that was actually sent. Implementations must
// be passive: no randomness, no scheduling, no payload mutation.
type FateObserver interface {
	// FrameSent fires once per transmission, when the frame is put on air.
	FrameSent(f Frame)
	// FrameFate fires once per (frame, receiver) pair when the reception
	// model reaches its verdict.
	FrameFate(to NodeID, f Frame, fate Fate)
}

// Medium is the shared broadcast channel.
type Medium struct {
	eng   *sim.Engine
	p     Params
	topo  Topology
	rng   *rand.Rand
	nodes map[NodeID]*Radio
	// radios lists attached radios in attachment order so delivery
	// iteration (and therefore random-loss draw order) is deterministic.
	radios  []*Radio
	onAir   []*transmission
	waiters []*Radio
	// maxAir is the airtime of an MTU-sized frame: no transmission lasts
	// longer.
	maxAir time.Duration
	// bufs is the free list of frame buffers, each of MTU capacity. Send
	// copies a frame into one; complete, or SetUp(false) for a dropped
	// queue, returns it once nothing reads the frame any more.
	bufs [][]byte
	// free recycles transmission records. A record is recycled only by
	// prune, which drops it only when its airtime ended strictly before a
	// later transmission's start — so its completion event has already
	// fired and no scheduled closure still holds it. This keeps the
	// per-frame hot path (begin) allocation-free in steady state.
	free     []*transmission
	ctr      Counters
	tracer   trace.Tracer
	observer FrameObserver
	fates    FateObserver
}

type transmission struct {
	from       NodeID
	sender     *Radio
	frame      Frame
	start, end time.Duration
	// complete is the record's completion event, bound once when the
	// record is first allocated and kept across freelist reuse.
	complete func()
}

// NewMedium creates a broadcast medium on the given engine, topology and
// random stream.
func NewMedium(eng *sim.Engine, topo Topology, p Params, rng *rand.Rand) *Medium {
	if p.MTU <= 0 {
		p.MTU = 27
	}
	if p.BitRate <= 0 {
		p.BitRate = 40e3
	}
	if p.Access == 0 {
		p.Access = CSMA
	}
	if p.Contention <= 0 {
		p.Contention = 4 * time.Millisecond
	}
	if p.SenseDelay <= 0 {
		p.SenseDelay = 25 * time.Microsecond
	}
	m := &Medium{
		eng:   eng,
		p:     p,
		topo:  topo,
		rng:   rng,
		nodes: make(map[NodeID]*Radio),
	}
	m.maxAir = m.AirtimeOf(8 * p.MTU)
	return m
}

// Params returns the medium's configuration.
func (m *Medium) Params() Params { return m.p }

// Counters returns a snapshot of medium-wide counters.
func (m *Medium) Counters() Counters { return m.ctr }

// SetTracer installs an event tracer; nil disables tracing.
func (m *Medium) SetTracer(t trace.Tracer) { m.tracer = t }

// SetFrameObserver installs a privileged frame observer; nil disables it.
func (m *Medium) SetFrameObserver(o FrameObserver) { m.observer = o }

// SetFateObserver installs a privileged per-receiver fate observer; nil
// disables it. One slot suffices: the ground-truth tracker installed here
// fans its decoded feed out to the oracle and the span tracer alike.
func (m *Medium) SetFateObserver(o FateObserver) { m.fates = o }

// fate reports one reception verdict when a fate observer is installed;
// like emit, the disabled path is a single nil check.
func (m *Medium) fate(to NodeID, f Frame, k Fate) {
	if m.fates == nil {
		return
	}
	m.fates.FrameFate(to, f, k)
}

// emit records a trace event when tracing is enabled.
func (m *Medium) emit(kind trace.Kind, node, peer NodeID, bits int) {
	if m.tracer == nil {
		return
	}
	m.tracer.Record(trace.Event{
		At:   m.eng.Now(),
		Kind: kind,
		Node: int(node),
		Peer: int(peer),
		Bits: bits,
	})
}

// Engine returns the simulation engine the medium schedules on.
func (m *Medium) Engine() *sim.Engine { return m.eng }

// Attach creates a radio for id. The radio starts up and listening.
func (m *Medium) Attach(id NodeID) (*Radio, error) {
	if _, ok := m.nodes[id]; ok {
		return nil, fmt.Errorf("%w: %d", ErrDuplicateNode, id)
	}
	r := &Radio{
		id:          id,
		m:           m,
		up:          true,
		listening:   true,
		listenSince: m.eng.Now(),
	}
	r.attemptFn = r.attempt
	m.nodes[id] = r
	m.radios = append(m.radios, r)
	return r, nil
}

// MustAttach is Attach for test and example setup paths where a duplicate
// ID is a programming error.
func (m *Medium) MustAttach(id NodeID) *Radio {
	r, err := m.Attach(id)
	if err != nil {
		panic(err)
	}
	return r
}

// Radio returns the radio attached as id, or nil.
func (m *Medium) Radio(id NodeID) *Radio { return m.nodes[id] }

// AirtimeOf returns the on-air duration of a frame with the given number of
// payload bits, including MAC framing overhead.
func (m *Medium) AirtimeOf(payloadBits int) time.Duration {
	return airtime(payloadBits+m.p.MAC.PerFrameOverhead, m.p.BitRate)
}

func airtime(bits int, rate float64) time.Duration {
	if bits <= 0 {
		bits = 1
	}
	return time.Duration(float64(bits) / rate * float64(time.Second))
}

// busyAt reports whether any on-air transmission audible at id overlaps the
// present instant. Used for carrier sense: a transmission younger than the
// sense delay is not yet detectable, which is how real RF collisions arise.
func (m *Medium) busyAt(id NodeID) bool {
	now := m.eng.Now()
	for _, tx := range m.onAir {
		if tx.end <= now {
			continue
		}
		if now-tx.start < m.p.SenseDelay && tx.from != id {
			continue // not yet detectable
		}
		if tx.from == id || m.topo.Connected(tx.from, id) {
			return true
		}
	}
	return false
}

// bufsPerBlock is how many frame buffers one allocation carves.
const bufsPerBlock = 16

// copyFrame returns a free frame buffer holding a copy of p, which fits
// the MTU.
func (m *Medium) copyFrame(p []byte) []byte {
	if len(m.bufs) == 0 {
		block := make([]byte, bufsPerBlock*m.p.MTU)
		m.bufs = slices.Grow(m.bufs, bufsPerBlock)
		for i := 0; i < bufsPerBlock; i++ {
			m.bufs = append(m.bufs, block[i*m.p.MTU:i*m.p.MTU:(i+1)*m.p.MTU])
		}
	}
	n := len(m.bufs) - 1
	b := m.bufs[n]
	m.bufs = m.bufs[:n]
	return append(b, p...)
}

// release returns a frame buffer to the free list.
func (m *Medium) release(b []byte) {
	poison.Fill(b)
	m.bufs = append(m.bufs, b[:0])
}

// addWaiter registers a radio to be re-kicked when a transmission
// completes (the channel may then be idle).
func (m *Medium) addWaiter(r *Radio) {
	for _, w := range m.waiters {
		if w == r {
			return
		}
	}
	m.waiters = append(m.waiters, r)
}

// kickWaiters wakes every waiting radio; each schedules a fresh contention
// attempt.
func (m *Medium) kickWaiters() {
	if len(m.waiters) == 0 {
		return
	}
	ws := m.waiters
	m.waiters = m.waiters[:0]
	for _, w := range ws {
		w.pump()
	}
}

// begin puts a frame on the air and schedules its delivery.
func (m *Medium) begin(r *Radio, f Frame) {
	now := m.eng.Now()
	var t *transmission
	if n := len(m.free); n > 0 {
		t = m.free[n-1]
		m.free[n-1] = nil
		m.free = m.free[:n-1]
	} else {
		t = new(transmission)
		t.complete = func() { m.complete(t) }
	}
	t.from, t.sender, t.frame = r.id, r, f
	t.start, t.end = now, now+m.AirtimeOf(f.Bits)
	m.onAir = append(m.onAir, t)
	m.ctr.Sent++
	onAirBits := f.Bits + m.p.MAC.PerFrameOverhead
	r.meter.AddTx(onAirBits)
	r.noteTx(t.start, t.end)
	m.emit(trace.FrameSent, r.id, r.id, onAirBits)
	if m.observer != nil {
		m.observer.FrameSent(f)
	}
	if m.fates != nil {
		m.fates.FrameSent(f)
	}
	m.eng.ScheduleAt(t.end, t.complete)
}

// complete ends a transmission: attempts delivery at every in-range
// radio, takes back the frame's buffer and prunes expired transmissions.
func (m *Medium) complete(t *transmission) {
	for _, v := range m.radios {
		if v == t.sender || !m.topo.Connected(t.from, v.id) {
			continue
		}
		m.deliver(t, v)
	}
	m.release(t.frame.Payload)
	t.frame.Payload = nil
	m.prune(t.start)
	t.sender.inFlight = false
	t.sender.pump()
	m.kickWaiters()
}

// deliver applies the reception model for one receiver.
func (m *Medium) deliver(t *transmission, v *Radio) {
	bits := t.frame.Bits + m.p.MAC.PerFrameOverhead
	if !v.up || !v.listening {
		m.ctr.NotHeard++
		m.emit(trace.FrameNotHeard, v.id, t.from, bits)
		m.fate(v.id, t.frame, FateNotHeard)
		return
	}
	if v.txOverlaps(t.start, t.end) {
		m.ctr.HalfDuplex++
		m.emit(trace.FrameHalfDuplex, v.id, t.from, bits)
		m.fate(v.id, t.frame, FateHalfDuplex)
		return
	}
	if m.collidedAt(t, v.id) {
		m.ctr.Collided++
		m.emit(trace.FrameCollided, v.id, t.from, bits)
		m.fate(v.id, t.frame, FateCollided)
		return
	}
	if m.p.Loss != nil {
		if m.p.Loss.Drop(t.from, v.id, m.eng.Now()) {
			m.ctr.RandomLoss++
			m.emit(trace.FrameRandomLoss, v.id, t.from, bits)
			m.fate(v.id, t.frame, FateRandomLoss)
			return
		}
	} else if m.p.FrameLoss > 0 && m.rng.Float64() < m.p.FrameLoss {
		m.ctr.RandomLoss++
		m.emit(trace.FrameRandomLoss, v.id, t.from, bits)
		m.fate(v.id, t.frame, FateRandomLoss)
		return
	}
	f := t.frame
	corrupted := false
	if m.p.Corrupt != nil {
		if damaged, ok := m.p.Corrupt.Corrupt(f.Payload); ok {
			f.Payload = damaged
			corrupted = true
			m.ctr.Corrupted++
			m.emit(trace.FrameCorrupted, v.id, t.from, bits)
		}
	}
	m.ctr.Delivered++
	m.emit(trace.FrameDelivered, v.id, t.from, bits)
	if corrupted {
		m.fate(v.id, t.frame, FateCorrupted)
	} else {
		m.fate(v.id, t.frame, FateDelivered)
	}
	if m.observer != nil {
		m.observer.FrameDelivered(v.id, f, corrupted)
	}
	v.meter.AddRx(bits)
	if v.handler != nil {
		v.handler(f)
	}
}

// collidedAt reports whether any other transmission audible at id
// overlapped t in time.
func (m *Medium) collidedAt(t *transmission, id NodeID) bool {
	for _, o := range m.onAir {
		if o == t || o.from == t.from {
			continue
		}
		if o.start >= t.end || o.end <= t.start {
			continue
		}
		if m.topo.Connected(o.from, id) {
			return true
		}
	}
	return false
}

// prune drops transmissions that can no longer overlap anything delivered
// at or after the given start time, recycling them onto the freelist.
// Dropped records are collected inside the in-place filter — the tail
// slots after compaction may alias kept entries, so they are only
// cleared, never recycled.
func (m *Medium) prune(before time.Duration) {
	kept := m.onAir[:0]
	for _, o := range m.onAir {
		if o.end > before {
			kept = append(kept, o)
		} else {
			o.frame = Frame{} // drop the payload reference before reuse
			m.free = append(m.free, o)
		}
	}
	for i := len(kept); i < len(m.onAir); i++ {
		m.onAir[i] = nil
	}
	m.onAir = kept
}
