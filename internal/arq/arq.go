// Package arq layers reliable delivery on top of the node drivers,
// turning the paper's thesis — identifier collisions surface as ordinary
// loss — into a testable claim: any recovery protocol that handles loss
// handles collisions for free.
//
// The endpoint is deliberately conventional: per-packet positive
// acknowledgements, NACKs for observed sequence gaps, exponential backoff
// with deterministic jitter, and a bounded retry budget. The one RETRI
// obligation is enforced in code, not by chance: every retransmission
// re-fragments under a freshly drawn identifier distinct from the
// previous attempt's (Fragmenter.FragmentAvoiding), because a retry is a
// new transaction (Section 3). The FreshIDs/RepeatedIDs counters prove
// the invariant held for a run.
//
// ARQ bookkeeping (sequence counters, outstanding packets) is modelled as
// durable node state: a crash takes the radio and the RAM-resident
// reassembly/selection state down, but the recovery layer resumes
// retrying after the restart, which is exactly the scenario the recovery
// experiment measures.
package arq

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand/v2"
	"slices"
	"time"

	"retri/internal/node"
	"retri/internal/poison"
	"retri/internal/radio"
	"retri/internal/sim"
)

// Packet kinds on the wire.
const (
	kindData = 1
	kindAck  = 2
	kindNack = 3
)

// headerLen is kind(1) + token(4) + seq(4).
const headerLen = 9

// noID is the "nothing to avoid" sentinel for a first transmission; it
// lies outside every identifier keyspace (raw identifiers are under 2^32
// because core.MaxBits is 32, and WidthKey composites under 2^38).
const noID = ^uint64(0)

// Config tunes one endpoint. The zero value plus Reliable/Ack gives the
// defaults below.
type Config struct {
	// RTO is the initial retransmission timeout (default 250ms).
	RTO time.Duration
	// MaxRTO caps exponential backoff (default 8s).
	MaxRTO time.Duration
	// Backoff multiplies the timeout after each retry (default 2).
	Backoff float64
	// Jitter spreads each timeout by ±Jitter fraction, drawn from the
	// endpoint's own random stream (default 0.1). Zero disables.
	Jitter float64
	// RetryBudget bounds retransmissions per packet; once exhausted the
	// packet is abandoned and counted, the graceful-degradation path
	// (default 8).
	RetryBudget int
	// Reliable enables the sender role: arm timers and retransmit. Off,
	// Send transmits once with the tracking header and never retries —
	// the measurement baseline the recovery experiment compares against.
	Reliable bool
	// Ack enables the receiver role: acknowledge every data packet heard
	// and NACK observed sequence gaps. Senders sharing a broadcast domain
	// must leave it off or they would acknowledge each other's traffic.
	Ack bool

	// LossAware enables graceful degradation under observed loss: the
	// endpoint keeps an EWMA of attempt outcomes (timeouts and NACKs are
	// losses, ACKs successes) and, while the estimate exceeds
	// LossThreshold, widens every armed retry timeout by OverloadBackoff
	// and sheds the retry budget to ShedBudget. Fresh-id-per-retry means
	// every retransmission is new keyspace pressure; backing off harder
	// and giving up sooner when the channel is drowning keeps retries
	// from amplifying congestion into collapse. Off (the default), none
	// of the machinery runs and behavior is byte-identical to before.
	LossAware bool
	// LossAlpha is the EWMA weight of each new outcome sample
	// (default 0.2).
	LossAlpha float64
	// LossThreshold is the loss-rate estimate above which the endpoint
	// treats the channel as overloaded (default 0.5).
	LossThreshold float64
	// ShedBudget is the effective retry budget while overloaded
	// (default RetryBudget/2, minimum 1).
	ShedBudget int
	// OverloadBackoff additionally multiplies each armed timeout while
	// overloaded (default 2).
	OverloadBackoff float64
}

func (c Config) withDefaults() Config {
	if c.RTO == 0 {
		c.RTO = 250 * time.Millisecond
	}
	if c.MaxRTO == 0 {
		c.MaxRTO = 8 * time.Second
	}
	if c.Backoff == 0 {
		c.Backoff = 2
	}
	if c.Jitter == 0 {
		c.Jitter = 0.1
	}
	if c.RetryBudget == 0 {
		c.RetryBudget = 8
	}
	if c.LossAware {
		if c.LossAlpha == 0 {
			c.LossAlpha = 0.2
		}
		if c.LossThreshold == 0 {
			c.LossThreshold = 0.5
		}
		if c.ShedBudget == 0 {
			c.ShedBudget = c.RetryBudget / 2
			if c.ShedBudget < 1 {
				c.ShedBudget = 1
			}
		}
		if c.OverloadBackoff == 0 {
			c.OverloadBackoff = 2
		}
	}
	return c
}

// Validate rejects unusable parameter combinations.
func (c Config) Validate() error {
	c = c.withDefaults()
	if c.RTO < 0 || c.MaxRTO < c.RTO {
		return fmt.Errorf("arq: want 0 <= RTO <= MaxRTO, got %v/%v", c.RTO, c.MaxRTO)
	}
	if c.Backoff < 1 {
		return fmt.Errorf("arq: backoff %v < 1 would shrink timeouts", c.Backoff)
	}
	if c.Jitter < 0 || c.Jitter >= 1 {
		return fmt.Errorf("arq: jitter %v out of [0, 1)", c.Jitter)
	}
	if c.RetryBudget < 0 {
		return fmt.Errorf("arq: negative retry budget %d", c.RetryBudget)
	}
	if c.LossAware {
		if c.LossAlpha <= 0 || c.LossAlpha > 1 {
			return fmt.Errorf("arq: loss EWMA weight %v out of (0, 1]", c.LossAlpha)
		}
		if c.LossThreshold <= 0 || c.LossThreshold >= 1 {
			return fmt.Errorf("arq: loss threshold %v out of (0, 1)", c.LossThreshold)
		}
		if c.ShedBudget < 0 || c.ShedBudget > c.RetryBudget {
			return fmt.Errorf("arq: shed budget %d out of [0, %d]", c.ShedBudget, c.RetryBudget)
		}
		if c.OverloadBackoff < 1 {
			return fmt.Errorf("arq: overload backoff %v would shrink timeouts", c.OverloadBackoff)
		}
	}
	return nil
}

// Counters tallies one endpoint's ARQ outcomes. All fields are plain
// sums, so per-trial counters fold by addition.
type Counters struct {
	// DataSent counts first transmissions of data packets.
	DataSent int64
	// Retransmits counts retry transmissions (timeout- or NACK-driven).
	Retransmits int64
	// Acked counts data packets confirmed delivered.
	Acked int64
	// Abandoned counts packets dropped after the retry budget.
	Abandoned int64
	// AcksSent and NacksSent count receiver-role control packets.
	AcksSent  int64
	NacksSent int64
	// Delivered counts unique data packets handed up; Duplicates counts
	// redundant arrivals of already-delivered packets (re-acknowledged,
	// not re-delivered).
	Delivered  int64
	Duplicates int64
	// FreshIDs counts retransmissions that drew a fresh RETRI identifier;
	// RepeatedIDs counts retransmissions that reused the previous
	// attempt's identifier. Over an AFF transport RepeatedIDs is zero by
	// construction — the run's proof of the fresh-identifier invariant.
	FreshIDs    int64
	RepeatedIDs int64
	// SendErrors counts attempts the stack refused (radio powered down
	// mid-crash); the retry timer is the recovery path.
	SendErrors int64
	// Malformed counts delivered packets too short to carry the header.
	Malformed int64
	// BudgetShed counts packets abandoned before the static RetryBudget
	// because loss-aware shedding cut the budget — the retry-storm
	// suppression tally.
	BudgetShed int64
}

// Add folds o into c field by field, for aggregating endpoints.
func (c *Counters) Add(o Counters) {
	c.DataSent += o.DataSent
	c.Retransmits += o.Retransmits
	c.Acked += o.Acked
	c.Abandoned += o.Abandoned
	c.AcksSent += o.AcksSent
	c.NacksSent += o.NacksSent
	c.Delivered += o.Delivered
	c.Duplicates += o.Duplicates
	c.FreshIDs += o.FreshIDs
	c.RepeatedIDs += o.RepeatedIDs
	c.SendErrors += o.SendErrors
	c.Malformed += o.Malformed
	c.BudgetShed += o.BudgetShed
}

// freshSender is the optional transport capability ARQ exploits: resend
// under an identifier guaranteed to differ from the previous attempt's.
// node.AFFDriver implements it; the static stack has no identifier to
// redraw. The returned/avoided values are opaque keys in the transport's
// reassembly keyspace (raw identifiers fixed-width, (width, id) composites
// adaptive-width) — ARQ only ever stores one and hands it back.
type freshSender interface {
	SendPacketAvoiding(p []byte, avoid uint64) (uint64, error)
}

// DeliverFunc receives unique data payloads with their origin token and
// sequence, so a harness can match deliveries to sends for latency.
type DeliverFunc func(token, seq uint32, payload []byte)

// AttemptObserver watches every transmission attempt of an ARQ data
// packet over a fresh-identifier transport — the span tracer's retry-link
// feed (span.Tracer satisfies it). attempt is the retransmission count so
// far (0 for the first transmission); prevKey is the previous attempt's
// identifier key when hasPrev is set, so an observer can join the fresh
// identifier newKey back to its parent attempt. Implementations must be
// passive measurement taps.
type AttemptObserver interface {
	ARQAttempt(sender radio.NodeID, seq uint32, attempt int, hasPrev bool, prevKey, newKey uint64)
}

// AbandonObserver is the optional extension of AttemptObserver fired
// when an outstanding packet's retry chain is given up — budget
// exhausted, or relinquished early under loss-aware shedding. attempts
// is the retransmission count at abandonment; lastKey is the final
// attempt's identifier key when hasKey is set. span.Tracer satisfies it.
type AbandonObserver interface {
	ARQAbandon(sender radio.NodeID, seq uint32, attempts int, hasKey bool, lastKey uint64)
}

// txState is one outstanding (unacknowledged) packet. The endpoint
// recycles it once the packet is acknowledged or abandoned, or, on an
// unreliable endpoint, sent.
type txState struct {
	seq uint32
	// pkt is the encoded data packet every attempt sends. Send fills it
	// with a copy of the caller's payload; it lives until the state is
	// recycled, when poison.Fill overwrites it.
	pkt      []byte
	lastID   uint64
	haveID   bool
	attempts int // retransmissions so far
	rto      time.Duration
	timer    sim.Timer
	// fire is the retry timer's callback, bound to this state once.
	fire func()
}

// rxState is the receiver's view of one sender token. Every sequence
// below next was delivered; the sets forget whole words below it, since
// the NACK scan starts at next, so a sender heard without gaps costs a
// word or two.
type rxState struct {
	next      uint32 // lowest sequence not yet delivered
	delivered seqSet
	nacked    seqSet
}

func (r *rxState) isDelivered(seq uint32) bool { return seq < r.next || r.delivered.has(seq) }

// deliver records seq and moves next past the delivered run.
func (r *rxState) deliver(seq uint32) {
	r.delivered.add(seq)
	for r.delivered.has(r.next) {
		r.next++
	}
	r.delivered.forget(r.next)
	r.nacked.forget(r.next)
}

// seqSpan bounds how far past its base a seqSet holds bits: 1,024 words.
const seqSpan = 1 << 16

// seqSet is a set of sequence numbers: one bit each from base, a multiple
// of 64, up to seqSpan past it, and any further out (only a damaged
// header names one) in far, made on first use.
type seqSet struct {
	base  uint32
	words []uint64
	far   map[uint32]bool
}

func (s *seqSet) has(seq uint32) bool {
	if i := seq - s.base; seq >= s.base && i < uint32(64*len(s.words)) && s.words[i/64]&(1<<(i%64)) != 0 {
		return true
	}
	return s.far[seq]
}

func (s *seqSet) add(seq uint32) {
	i := seq - s.base
	if seq < s.base || i >= seqSpan {
		if s.far == nil {
			s.far = make(map[uint32]bool)
		}
		s.far[seq] = true
		return
	}
	for int(i/64) >= len(s.words) {
		s.words = append(s.words, 0)
	}
	s.words[i/64] |= 1 << (i % 64)
}

// forget drops the whole words below floor, which is at least base.
func (s *seqSet) forget(floor uint32) {
	n := int(floor-s.base) / 64
	if n == 0 {
		return
	}
	if n >= len(s.words) {
		s.words = s.words[:0]
	} else {
		s.words = s.words[:copy(s.words, s.words[n:])]
	}
	s.base += uint32(n) * 64
}

// Endpoint is one node's ARQ half. A node runs exactly one endpoint; it
// takes over the driver's packet handler.
type Endpoint struct {
	eng   *sim.Engine
	drv   node.Driver
	cfg   Config
	rng   *rand.Rand
	token uint32

	nextSeq uint32
	out     map[uint32]*txState
	// spare holds recycled packet states for the next Send.
	spare []*txState
	// ctl is the ACK/NACK packet buffer, lent to the driver for one
	// SendPacket call and overwritten by poison.Fill after it.
	ctl     []byte
	rx      map[uint32]*rxState
	deliver DeliverFunc
	attObs  AttemptObserver
	ctr     Counters

	// lossEWMA is the loss-aware path's running loss-rate estimate,
	// only maintained when cfg.LossAware.
	lossEWMA float64
}

// NewEndpoint wires an endpoint over d, identified by token (a per-sender
// session id assigned by the experiment — it rides inside the payload, so
// the RETRI layer below stays address-free). rng supplies jitter and must
// be a labelled per-node stream; nil is allowed when Jitter is 0 or the
// endpoint is not Reliable.
func NewEndpoint(eng *sim.Engine, d node.Driver, token uint32, cfg Config, rng *rand.Rand) (*Endpoint, error) {
	if eng == nil {
		return nil, errors.New("arq: nil engine")
	}
	if d == nil {
		return nil, errors.New("arq: nil driver")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	if cfg.Reliable && cfg.Jitter > 0 && rng == nil {
		return nil, errors.New("arq: reliable endpoint with jitter needs a random stream")
	}
	e := &Endpoint{
		eng:   eng,
		drv:   d,
		cfg:   cfg,
		rng:   rng,
		token: token,
		out:   make(map[uint32]*txState),
		rx:    make(map[uint32]*rxState),
	}
	d.SetPacketHandler(e.onPacket)
	return e, nil
}

// SetDeliver installs the unique-delivery callback.
func (e *Endpoint) SetDeliver(fn DeliverFunc) { e.deliver = fn }

// SetAttemptObserver installs a per-attempt observer; nil disables it.
func (e *Endpoint) SetAttemptObserver(o AttemptObserver) { e.attObs = o }

// Counters returns a snapshot of the endpoint's tallies.
func (e *Endpoint) Counters() Counters { return e.ctr }

// Token returns the endpoint's session token.
func (e *Endpoint) Token() uint32 { return e.token }

// Outstanding reports packets sent but neither acknowledged nor
// abandoned.
func (e *Endpoint) Outstanding() int { return len(e.out) }

// Send transmits payload once and, when Reliable, keeps retransmitting —
// each retry under a fresh identifier — until acknowledgement or budget
// exhaustion. It returns the sequence number assigned, which deliveries
// report on the far side. Send copies payload, so the caller may reuse
// it once Send returns.
func (e *Endpoint) Send(payload []byte) (uint32, error) {
	if len(payload) == 0 {
		return 0, errors.New("arq: empty payload")
	}
	seq := e.nextSeq
	e.nextSeq++
	st := e.newTx()
	st.seq, st.rto = seq, e.cfg.RTO
	st.pkt = encode(st.pkt[:0], kindData, e.token, seq, payload)
	e.transmit(st)
	e.ctr.DataSent++
	if e.cfg.Reliable {
		e.out[seq] = st
		e.arm(st)
	} else {
		e.recycle(st)
	}
	return seq, nil
}

// newTx returns a cleared packet state, recycled when one is spare.
func (e *Endpoint) newTx() *txState {
	if n := len(e.spare); n > 0 {
		st := e.spare[n-1]
		e.spare = e.spare[:n-1]
		return st
	}
	st := &txState{}
	st.fire = func() { e.onTimeout(st) }
	return st
}

// recycle returns a packet state that left the outstanding set. Its
// timer has fired or been cancelled, so fire cannot run for it again.
func (e *Endpoint) recycle(st *txState) {
	poison.Fill(st.pkt)
	*st = txState{pkt: st.pkt[:0], fire: st.fire}
	e.spare = append(e.spare, st)
}

// transmit sends one attempt of st, drawing a fresh identifier distinct
// from the previous attempt's when the transport can.
func (e *Endpoint) transmit(st *txState) {
	fs, ok := e.drv.(freshSender)
	if !ok {
		if err := e.drv.SendPacket(st.pkt); err != nil {
			e.ctr.SendErrors++
		}
		return
	}
	avoid := noID
	if st.haveID {
		avoid = st.lastID
	}
	id, err := fs.SendPacketAvoiding(st.pkt, avoid)
	if err != nil {
		e.ctr.SendErrors++
		return
	}
	if st.haveID {
		if id == st.lastID {
			e.ctr.RepeatedIDs++
		} else {
			e.ctr.FreshIDs++
		}
	}
	if e.attObs != nil {
		e.attObs.ARQAttempt(e.drv.Radio().ID(), st.seq, st.attempts, st.haveID, avoid, id)
	}
	st.lastID, st.haveID = id, true
}

// arm schedules st's next timeout with the current RTO plus jitter,
// widened by the overload factor while the loss-aware path judges the
// channel saturated (wider gaps shed instantaneous retry pressure even
// before the budget is cut).
func (e *Endpoint) arm(st *txState) {
	d := st.rto
	if e.overloaded() {
		d = time.Duration(float64(d) * e.cfg.OverloadBackoff)
		if d > e.cfg.MaxRTO {
			d = e.cfg.MaxRTO
		}
	}
	if e.cfg.Jitter > 0 {
		spread := 1 + e.cfg.Jitter*(2*e.rng.Float64()-1)
		d = time.Duration(float64(d) * spread)
	}
	st.timer = e.eng.Schedule(d, st.fire)
}

// observeLoss folds one attempt outcome into the loss EWMA.
func (e *Endpoint) observeLoss(lost bool) {
	if !e.cfg.LossAware {
		return
	}
	sample := 0.0
	if lost {
		sample = 1
	}
	e.lossEWMA += e.cfg.LossAlpha * (sample - e.lossEWMA)
}

// overloaded reports whether loss-aware degradation is active.
func (e *Endpoint) overloaded() bool {
	return e.cfg.LossAware && e.lossEWMA > e.cfg.LossThreshold
}

// LossEstimate returns the loss-aware EWMA (0 when disabled), for
// instrumentation.
func (e *Endpoint) LossEstimate() float64 { return e.lossEWMA }

// budget is the effective retry budget: the configured one, cut to
// ShedBudget while overloaded.
func (e *Endpoint) budget() int {
	if e.overloaded() && e.cfg.ShedBudget < e.cfg.RetryBudget {
		return e.cfg.ShedBudget
	}
	return e.cfg.RetryBudget
}

// abandonTx drops an outstanding packet, counting early (shed) abandons
// separately and notifying the abandon observer.
func (e *Endpoint) abandonTx(st *txState) {
	delete(e.out, st.seq)
	e.ctr.Abandoned++
	if st.attempts < e.cfg.RetryBudget {
		e.ctr.BudgetShed++
	}
	if e.attObs != nil {
		if ab, ok := e.attObs.(AbandonObserver); ok {
			ab.ARQAbandon(e.drv.Radio().ID(), st.seq, st.attempts, st.haveID, st.lastID)
		}
	}
	e.recycle(st)
}

// onTimeout retries or abandons an outstanding packet.
func (e *Endpoint) onTimeout(st *txState) {
	if e.out[st.seq] != st {
		return // acknowledged in the meantime
	}
	e.observeLoss(true)
	if st.attempts >= e.budget() {
		e.abandonTx(st)
		return
	}
	st.attempts++
	e.ctr.Retransmits++
	e.transmit(st)
	st.rto = time.Duration(float64(st.rto) * e.cfg.Backoff)
	if st.rto > e.cfg.MaxRTO {
		st.rto = e.cfg.MaxRTO
	}
	e.arm(st)
}

// onPacket dispatches every packet the stack delivers to this node.
func (e *Endpoint) onPacket(data []byte) {
	kind, token, seq, payload, ok := decode(data)
	if !ok {
		e.ctr.Malformed++
		return
	}
	switch kind {
	case kindData:
		e.onData(token, seq, payload)
	case kindAck:
		e.onAck(token, seq)
	case kindNack:
		e.onNack(token, seq)
	default:
		e.ctr.Malformed++
	}
}

// onData handles a data packet in the receiver role: dedupe, deliver,
// acknowledge, and request obvious gaps.
func (e *Endpoint) onData(token, seq uint32, payload []byte) {
	// Every role dedupes and delivers — a sender overhearing a peer's
	// broadcast can still hand it up — but only the Ack role confirms.
	r := e.rx[token]
	if r == nil {
		r = &rxState{}
		e.rx[token] = r
	}
	if r.isDelivered(seq) {
		e.ctr.Duplicates++
	} else {
		r.deliver(seq)
		e.ctr.Delivered++
		if e.deliver != nil {
			e.deliver(token, seq, payload)
		}
	}
	if !e.cfg.Ack {
		return
	}
	// Re-acknowledge duplicates too: the first ACK may have been lost.
	e.sendControl(kindAck, token, seq)
	e.ctr.AcksSent++
	// One NACK ever per missing sequence below the newest arrival; the
	// sender's retry timer is the backstop if the NACK itself is lost.
	for miss := r.next; miss < seq; miss++ {
		if r.delivered.has(miss) || r.nacked.has(miss) {
			continue
		}
		r.nacked.add(miss)
		e.sendControl(kindNack, token, miss)
		e.ctr.NacksSent++
	}
}

// onAck resolves an outstanding packet (sender role).
func (e *Endpoint) onAck(token, seq uint32) {
	if token != e.token {
		return // confirms some other sender's packet
	}
	st, ok := e.out[seq]
	if !ok {
		return
	}
	st.timer.Cancel()
	delete(e.out, seq)
	e.recycle(st)
	e.ctr.Acked++
	e.observeLoss(false)
}

// onNack retransmits an outstanding packet immediately (sender role). The
// retry still counts against the budget and re-arms the timer at the
// current backoff.
func (e *Endpoint) onNack(token, seq uint32) {
	if token != e.token {
		return
	}
	st, ok := e.out[seq]
	if !ok {
		return
	}
	e.observeLoss(true)
	if st.attempts >= e.budget() {
		return // let the timer abandon it
	}
	st.timer.Cancel()
	st.attempts++
	e.ctr.Retransmits++
	e.transmit(st)
	e.arm(st)
}

// sendControl transmits an ACK or NACK. Best effort: a control packet
// the radio refuses (node crashed) is simply lost.
func (e *Endpoint) sendControl(kind byte, token, seq uint32) {
	e.ctl = encode(e.ctl[:0], kind, token, seq, nil)
	err := e.drv.SendPacket(e.ctl)
	poison.Fill(e.ctl)
	if err != nil {
		e.ctr.SendErrors++
	}
}

// encode appends the wire packet to dst: kind, token, sequence, payload.
func encode(dst []byte, kind byte, token, seq uint32, payload []byte) []byte {
	dst = slices.Grow(dst, headerLen+len(payload))
	dst = append(dst, kind)
	dst = binary.BigEndian.AppendUint32(dst, token)
	dst = binary.BigEndian.AppendUint32(dst, seq)
	return append(dst, payload...)
}

// decode splits a wire packet; control packets carry no payload.
func decode(b []byte) (kind byte, token, seq uint32, payload []byte, ok bool) {
	if len(b) < headerLen {
		return 0, 0, 0, nil, false
	}
	return b[0], binary.BigEndian.Uint32(b[1:5]), binary.BigEndian.Uint32(b[5:9]), b[headerLen:], true
}
