// Package node composes a radio with a fragmentation driver, forming one
// sensor node's network stack.
//
// Two drivers are provided, mirroring the paper's comparison:
//
//   - AFFDriver: the address-free stack. It wires the reassembler's
//     listening tap into the identifier selector and density estimator
//     (Section 3.2/5.1), and optionally implements the receiver-driven
//     "identifier collision notification" extension from Section 3.2's
//     footnote.
//   - StaticDriver: the statically addressed baseline stack.
//
// Both expose the same Driver interface so workloads and experiments can
// run against either without caring which.
package node

import (
	"errors"
	"fmt"

	"retri/internal/aff"
	"retri/internal/core"
	"retri/internal/density"
	"retri/internal/frame"
	"retri/internal/radio"
	"retri/internal/sim"
)

// PacketHandler receives reassembled packets. data is lent for the call:
// the driver reuses the buffer afterwards, so a handler that keeps the
// bytes copies them.
type PacketHandler func(data []byte)

// WidthPolicy decides the identifier width for each outgoing transaction.
// adapt.Controller (closed-loop, Eq. 4 set-point) and adapt.Fixed both
// satisfy it; the node layer depends on the interface so it never imports
// the controller.
type WidthPolicy interface {
	// Bits returns the width for the next transaction, in [1, Space.Bits()].
	Bits() int
}

// Driver is the packet-level service both stacks provide.
type Driver interface {
	// SendPacket fragments and queues a packet for broadcast. It copies
	// p, so the caller may reuse it once SendPacket returns.
	SendPacket(p []byte) error
	// SetPacketHandler installs the delivery callback.
	SetPacketHandler(h PacketHandler)
	// PacketsSent reports packets accepted for transmission.
	PacketsSent() int64
	// PacketsDelivered reports packets this node reassembled and
	// delivered.
	PacketsDelivered() int64
	// Radio exposes the underlying radio (for energy meters and churn).
	Radio() *radio.Radio
}

var errNilRadio = errors.New("node: nil radio")

// sendErrs wraps a radio's refusal of a fragment, formatting once per
// distinct radio error: a radio returns one value for every refusal while
// it is down, so a crashed node's sends build no new error.
type sendErrs struct{ of, wrapped error }

func (m *sendErrs) wrap(err error) error {
	if err != m.of {
		m.of, m.wrapped = err, fmt.Errorf("node: send fragment: %w", err)
	}
	return m.wrapped
}

// SpanSink receives the sender- and receiver-side lifecycle signals the
// span tracer assembles into causal chains (span.Tracer satisfies it).
// Implementations must be passive measurement taps — no randomness, no
// scheduling, no payload mutation — so wiring one cannot perturb a run.
type SpanSink interface {
	// TxOpen fires when a transaction's fragments are queued on the radio,
	// before any of them airs: the identifier draw (tx.ID at tx.IDBits,
	// after tx.Redraws avoid-redraws, by the named strategy, under
	// reassembly key tx.Key) is decided here.
	TxOpen(sender radio.NodeID, tx aff.Transaction, strategy string)
	// RxExpired fires when a receiver's reassembly timeout evicts the
	// partial state held under key.
	RxExpired(receiver radio.NodeID, key uint64)
	// RxEvicted fires when a receiver's MaxPartials cap evicts the
	// partial state held under key — memory-pressure degradation,
	// distinct from the idle timeout RxExpired reports.
	RxEvicted(receiver radio.NodeID, key uint64)
	// RxRejected fires when a receiver discards a transaction: checksum
	// reports a failed verification at completion, otherwise an internal
	// inconsistency (conflict) drop.
	RxRejected(receiver radio.NodeID, key uint64, checksum bool)
	// RxDelivered fires when a receiver's reassembler hands up a verified
	// packet, before OnDeliver and the packet handler.
	RxDelivered(receiver radio.NodeID, p aff.Packet)
}

// FragmentRelay is the multi-hop forwarding service AFFOptions.Relay
// plugs in (flood.Relay satisfies it). WrapOutgoing envelopes one
// outgoing fragment with the hop budget, in storage that may be reused
// by its next call; UnwrapIncoming strips a received frame's envelope,
// schedules any rebroadcast internally, and reports whether the inner
// fragment, valid as long as the frame, should be delivered up the local
// stack (false for duplicate copies already heard). Reset wipes the
// duplicate-suppression table — RAM state, gone on a crash.
type FragmentRelay interface {
	WrapOutgoing(payload []byte, bits int) ([]byte, int)
	UnwrapIncoming(f radio.Frame) (inner []byte, deliver bool)
	Reset()
}

// AFFOptions tunes the address-free driver beyond its aff.Config.
type AFFOptions struct {
	// Estimator, when set, is fed every heard identifier and can drive an
	// adaptive listening window. Both density estimators satisfy the
	// interface.
	Estimator density.TEstimator
	// ObserveOwn also feeds the node's own chosen identifiers to the
	// selector and estimator, preventing immediate self-reuse.
	ObserveOwn bool
	// NotifyCollisions enables the Section 3.2 extension: when this
	// node's reassembler detects an identifier conflict it broadcasts a
	// small notification, and senders hearing one treat the identifier as
	// recently used. Enabling it prefixes every frame with one
	// discriminator bit, which is charged to the efficiency accounting
	// like any other header bit.
	NotifyCollisions bool
	// Truth, when set, runs a ground-truth reassembler alongside the one
	// under test (Section 5.1 methodology). Each frame is decoded once for
	// both, so the truth reassembler must speak the driver's wire format:
	// built from the same config, which must set cfg.Instrument.
	Truth *aff.TruthReassembler
	// Engine, when set, drives reassembly-timeout eviction from engine
	// timers, so an idle node sheds stale partial-packet state instead of
	// retaining it until its next reception. Without it, eviction happens
	// only inside Ingest, exactly as before.
	Engine *sim.Engine
	// Width, when set, chooses a per-transaction identifier width
	// (requires cfg.AdaptiveWidth — the in-band-width wire format). Nil
	// keeps the fixed-width format, bit-for-bit today's behaviour.
	Width WidthPolicy
	// OnDeliver, when set, is invoked with every packet the reassembler
	// under test delivers, before the packet handler. Measurement-harness
	// tap (the oracle's never-misdeliver audit reads the Truth trailer);
	// protocol code must not use it.
	OnDeliver func(p aff.Packet)
	// Span, when set, receives transaction-lifecycle signals for span
	// tracing: every outgoing transaction's identifier draw and this
	// receiver's reassembly expiries, rejections and deliveries. Like
	// OnDeliver it is a passive measurement tap.
	Span SpanSink
	// Relay, when set, extends the stack across multiple hops: outgoing
	// fragments are wrapped in the relay's hop-scope envelope, and
	// received frames pass through its unwrap/dedup/rebroadcast path
	// before reassembly. The envelope costs one byte per frame, charged
	// against the MTU like the collision-notification discriminator.
	// Not combinable with NotifyCollisions (two competing prefixes).
	Relay FragmentRelay
}

// AFFDriver is the address-free fragmentation stack on one radio.
type AFFDriver struct {
	r     *radio.Radio
	frag  *aff.Fragmenter
	reasm *aff.Reassembler
	sel   core.Selector
	opts  AFFOptions

	// prefix is the discriminator bit's scratch, set only with
	// NotifyCollisions.
	prefix *prefixScratch

	handler PacketHandler
	sent    int64
	sendErr sendErrs

	// lastOwnKey is the most recent own-transaction key observed into the
	// estimator (ObserveOwn). A node never hears its own frames, so a
	// turnover-aware estimator can't see its own final fragments; instead
	// the previous own transaction is completed when the next one is sent.
	lastOwnKey uint64
	hasOwnKey  bool

	sweep sim.Timer // pending reassembly-timeout sweep, when opts.Engine is set
	// sweepFn is the sweep's callback, bound once so re-arming schedules
	// without allocating.
	sweepFn func()
}

var _ Driver = (*AFFDriver)(nil)

// NewAFF builds the address-free stack on r. The selector's space must
// match cfg.Space. The radio's handler is taken over by the driver.
func NewAFF(r *radio.Radio, cfg aff.Config, sel core.Selector, opts AFFOptions) (*AFFDriver, error) {
	if r == nil {
		return nil, errNilRadio
	}
	if opts.Width != nil && !cfg.AdaptiveWidth {
		return nil, errors.New("node: Width policy requires aff.Config.AdaptiveWidth")
	}
	if cfg.AdaptiveWidth && opts.NotifyCollisions {
		// Notification frames carry a raw Space.Bits()-wide identifier;
		// adaptive transactions are keyed by (width, id), which that format
		// cannot express. Nobody has needed the combination yet.
		return nil, errors.New("node: NotifyCollisions is not supported with AdaptiveWidth")
	}
	if opts.Relay != nil && opts.NotifyCollisions {
		return nil, errors.New("node: Relay is not supported with NotifyCollisions")
	}
	if opts.Truth != nil && opts.Truth.Codec() != cfg.Codec() {
		return nil, fmt.Errorf("node: Truth reassembler speaks %+v, the driver %+v: it needs the driver's config with Instrument set",
			opts.Truth.Codec(), cfg.Codec())
	}
	if opts.NotifyCollisions {
		// The discriminator bit rides in front of every fragment; the
		// fragmenter must leave it room within the radio MTU.
		if cfg.MTU == 0 {
			cfg.MTU = 27
		}
		cfg.MTU--
	}
	if opts.Relay != nil {
		// The relay envelope rides in front of every fragment.
		if cfg.MTU == 0 {
			cfg.MTU = 27
		}
		cfg.MTU--
	}
	frag, err := aff.NewFragmenter(cfg, sel, uint32(r.ID()))
	if err != nil {
		return nil, err
	}
	d := &AFFDriver{
		r:    r,
		frag: frag,
		sel:  sel,
		opts: opts,
	}
	if opts.NotifyCollisions {
		d.prefix = new(prefixScratch)
	}
	d.sweepFn = func() {
		d.reasm.Sweep()
		d.armSweep()
	}
	d.reasm = aff.NewReassembler(cfg, r.Now, func(p aff.Packet) {
		if opts.Span != nil {
			opts.Span.RxDelivered(r.ID(), p)
		}
		if opts.OnDeliver != nil {
			opts.OnDeliver(p)
		}
		if d.handler != nil {
			d.handler(p.Data)
		}
	})
	d.reasm.SetObserver(func(key uint64, intro bool) {
		// The paper's listening window is the most recent 2T
		// *transactions*, so the selector only counts transaction starts;
		// the density estimator keeps identifiers alive on every
		// fragment.
		//
		// The reassembler reports raw identifiers in fixed-width mode and
		// WidthKey composites in adaptive mode; the selector contract
		// (core.Selector) wants the (width, id) pair, so split before
		// observing — feeding composites through Observe would fill the
		// learned state with keys no future draw can ever match. The
		// estimator counts distinct concurrent *transactions*, for which
		// the composite is exactly the right key, so it takes key as is.
		if intro {
			if cfg.AdaptiveWidth {
				sel.ObserveWidth(aff.SplitWidthKey(key))
			} else {
				sel.Observe(key)
			}
		}
		if opts.Estimator != nil {
			opts.Estimator.Observe(key)
		}
	})
	co, isCO := opts.Estimator.(density.CompletionObserver)
	if isCO {
		// Turnover-aware estimators discount an identifier the moment its
		// transaction is known over instead of holding it a full idle gap.
		d.reasm.SetCompleteHandler(co.ObserveComplete)
	}
	if opts.Span != nil || (cfg.MaxPartials > 0 && isCO) {
		// Cap eviction fires onCapEvict then onExpire for the same
		// identifier; the latch below collapses the pair into the one
		// distinct span signal. A turnover estimator also discounts the
		// identifier — its partial state is gone, so holding it active
		// would overcount density exactly when memory is scarcest.
		capEvicting := false
		d.reasm.SetCapEvictHandler(func(id uint64) {
			if isCO {
				co.ObserveComplete(id)
			}
			if opts.Span != nil {
				capEvicting = true
				opts.Span.RxEvicted(r.ID(), id)
			}
		})
		if opts.Span != nil {
			d.reasm.SetExpiryHandler(func(id uint64) {
				if capEvicting {
					capEvicting = false
					return
				}
				opts.Span.RxExpired(r.ID(), id)
			})
		}
	}
	if opts.NotifyCollisions || opts.Span != nil {
		d.reasm.SetConflictHandler(func(id uint64) {
			if opts.Span != nil {
				opts.Span.RxRejected(r.ID(), id, false)
			}
			if opts.NotifyCollisions {
				d.sendNotification(id)
			}
		})
	}
	if opts.Span != nil {
		d.reasm.SetChecksumFailHandler(func(id uint64) { opts.Span.RxRejected(r.ID(), id, true) })
	}
	r.SetHandler(d.onFrame)
	return d, nil
}

// Reassembler exposes the reassembler under test (stats, pending counts).
func (d *AFFDriver) Reassembler() *aff.Reassembler { return d.reasm }

// Selector returns the identifier selector.
func (d *AFFDriver) Selector() core.Selector { return d.sel }

// Radio returns the underlying radio.
func (d *AFFDriver) Radio() *radio.Radio { return d.r }

// SetPacketHandler installs the delivery callback.
func (d *AFFDriver) SetPacketHandler(h PacketHandler) { d.handler = h }

// PacketsSent reports packets accepted for transmission.
func (d *AFFDriver) PacketsSent() int64 { return d.sent }

// PacketsDelivered reports packets delivered by the reassembler under test.
func (d *AFFDriver) PacketsDelivered() int64 { return d.reasm.Stats().Delivered }

// SendPacket fragments p under a fresh RETRI identifier and queues every
// fragment for broadcast. With a Width policy installed, each transaction
// is encoded at the width the policy chooses.
func (d *AFFDriver) SendPacket(p []byte) error {
	var tx aff.Transaction
	var err error
	if d.opts.Width != nil {
		tx, err = d.frag.FragmentWidth(p, d.opts.Width.Bits())
	} else {
		tx, err = d.frag.Fragment(p)
	}
	if err != nil {
		return err
	}
	return d.sendTx(tx)
}

// SendPacketAvoiding fragments p under a fresh identifier guaranteed to
// differ from avoid — the retransmission path: an ARQ layer passes the
// previous attempt's identifier so a retry is, on air, a brand-new
// transaction. It returns the identifier drawn so the caller can avoid it
// on the next retry. Both values live in the driver's reassembly keyspace:
// raw identifiers in fixed-width mode, aff.WidthKey composites in
// adaptive-width mode — callers treat them as opaque.
//
// With a Width policy installed, the retry is encoded at the width the
// policy chooses right now, exactly like a first attempt: a retransmission
// is a brand-new transaction, and an adaptive node must never silently
// fall back to the full-width codec for it.
func (d *AFFDriver) SendPacketAvoiding(p []byte, avoid uint64) (uint64, error) {
	var tx aff.Transaction
	var err error
	if d.opts.Width != nil {
		tx, err = d.frag.FragmentWidthAvoiding(p, d.opts.Width.Bits(), avoid)
	} else {
		tx, err = d.frag.FragmentAvoiding(p, avoid)
	}
	if err != nil {
		return 0, err
	}
	return tx.Key, d.sendTx(tx)
}

func (d *AFFDriver) sendTx(tx aff.Transaction) error {
	if d.opts.Span != nil {
		// Announce the transaction before any fragment is queued: the
		// fragments air later (CSMA contention), and the span tracer must
		// already know the draw when the first FrameSent arrives.
		d.opts.Span.TxOpen(d.r.ID(), tx, d.sel.Name())
	}
	if d.opts.ObserveOwn {
		// Observe under the same key a receiver would use, so the node's
		// own transactions and overheard ones share one namespace: the
		// selector gets the (width, id) pair per its keyspace contract
		// (in fixed-width mode IDBits is the space width, so this is the
		// plain Observe path), the estimator the composite key.
		d.sel.ObserveWidth(tx.IDBits, tx.ID)
		if d.opts.Estimator != nil {
			if co, ok := d.opts.Estimator.(density.CompletionObserver); ok {
				// Half-duplex: this node never hears its own final fragments,
				// so approximate — enqueueing a new transaction means the
				// previous one has drained from the FIFO transmit queue (or
				// died with the radio). Off by at most the one in-flight
				// transaction, on the conservative (over-estimating) side.
				if d.hasOwnKey {
					co.ObserveComplete(d.lastOwnKey)
				}
				d.lastOwnKey, d.hasOwnKey = tx.Key, true
			}
			d.opts.Estimator.Observe(tx.Key)
		}
	}
	for _, fr := range tx.Fragments {
		payload, bits := fr.Bytes, fr.Bits
		if d.opts.NotifyCollisions {
			d.prefix.wrapped, bits = frame.WrapBit(d.prefix.wrapped[:0], discFragment, payload, bits)
			payload = d.prefix.wrapped
		}
		if d.opts.Relay != nil {
			payload, bits = d.opts.Relay.WrapOutgoing(payload, bits)
		}
		if err := d.r.Send(payload, bits); err != nil {
			return d.sendErr.wrap(err)
		}
	}
	d.sent++
	return nil
}

// Crash models a node failure: the radio goes down (dropping its transmit
// queue) and all RAM-resident protocol state — partial reassemblies, the
// selector's listening window, the density estimator — is wiped.
func (d *AFFDriver) Crash() {
	d.r.SetUp(false)
	d.reasm.Reset()
	if rs, ok := d.sel.(interface{ Reset() }); ok {
		rs.Reset()
	}
	if rs, ok := d.opts.Estimator.(interface{ Reset() }); ok {
		rs.Reset()
	}
	if rs, ok := d.opts.Width.(interface{ Reset() }); ok {
		rs.Reset()
	}
	if d.opts.Relay != nil {
		d.opts.Relay.Reset()
	}
	d.hasOwnKey = false
	d.sweep.Cancel()
}

// Restart powers the radio back up after a Crash. State stays empty; the
// node relearns the channel by listening, exactly like a fresh boot.
func (d *AFFDriver) Restart() {
	d.r.SetUp(true)
}

// armSweep schedules the next timeout sweep from the reassembler's expiry
// queue. One-shot and self-re-arming only while partial state exists, so
// an otherwise-finished simulation still terminates.
func (d *AFFDriver) armSweep() {
	if d.opts.Engine == nil {
		return
	}
	next, ok := d.reasm.NextExpiry()
	if !ok {
		return
	}
	// Expiry requires strictly exceeding the timeout, so fire 1ns after.
	at := next + 1
	if !d.sweep.Stopped() {
		return // head activity times are monotone: the pending sweep is due first
	}
	d.sweep = d.opts.Engine.ScheduleAt(at, d.sweepFn)
}

// onFrame dispatches a received frame to the reassembler(s), unwrapping the
// discriminator bit when the notification extension is active. The frame
// is decoded once for both reassemblers.
func (d *AFFDriver) onFrame(f radio.Frame) {
	payload := f.Payload
	if d.opts.Relay != nil {
		inner, deliver := d.opts.Relay.UnwrapIncoming(f)
		if !deliver {
			return
		}
		payload = inner
	}
	if d.opts.NotifyCollisions {
		kind, inner, ok := frame.UnwrapBit(d.prefix.unwrapped[:0], payload)
		if !ok {
			return
		}
		d.prefix.unwrapped = inner
		if kind == discNotification {
			if id, ok := decodeNotification(inner, d.frag.Config().Space.Bits()); ok {
				// Treat the collided identifier as recently used.
				d.sel.Observe(id)
			}
			return
		}
		payload = inner
	}
	fr := d.reasm.Decode(payload)
	d.reasm.IngestDecoded(fr)
	if d.opts.Truth != nil {
		d.opts.Truth.IngestDecoded(fr)
	}
	d.armSweep()
}

// sendNotification broadcasts a collision notification for id.
func (d *AFFDriver) sendNotification(id uint64) {
	payload, bits := encodeNotification(id, d.frag.Config().Space.Bits())
	// Best effort: a notification that cannot be sent (radio down) is
	// simply lost, like any other heuristic signal.
	_ = d.r.Send(payload, bits)
}
