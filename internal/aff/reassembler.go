package aff

import (
	"time"

	"retri/internal/frame"
	"retri/internal/reasm"
)

// Stats counts reassembler outcomes; see reasm.Stats.
type Stats = reasm.Stats

// Packet is a reassembled, verified packet.
type Packet struct {
	// ID is the AFF identifier the packet was reassembled under. In
	// adaptive-width mode it is the composite WidthKey(bits, id); use
	// SplitWidthKey to recover the raw identifier.
	ID uint64
	// Data is the packet payload. It is lent for the delivery callback:
	// the reassembler reuses the buffer afterwards, so copy it to keep it.
	Data []byte
	// Truth is the instrumentation ground truth from the introduction
	// fragment, nil when the codec is uninstrumented. It exists for the
	// measurement harness only, and like Data it points at reassembler
	// memory that is valid only during the delivery callback.
	Truth *frame.Truth
}

// Reassembler rebuilds packets from address-free fragments, keyed solely by
// the AFF identifier — the system under test. Identifiers are shared, so a
// fragment that disagrees with held state (a second introduction, an
// overlap with different bytes, an offset past the announced length) is
// evidence of a collision and drops the transaction.
type Reassembler struct {
	codec frame.Codec
	t     *reasm.Table[uint64]
	// frag is the decode scratch: one fragment at a time, by value.
	frag frame.Fragment

	// observer, when set, is told each identifier heard and whether the
	// fragment was an introduction (a transaction start). The node layer
	// wires introductions to a listening selector — the paper's window is
	// the most recent 2T *transactions* — and every fragment to the
	// density estimator.
	observer func(id uint64, intro bool)
}

// NewReassembler returns a reassembler that calls deliver for each verified
// packet. now supplies virtual time for timeout eviction (pass the engine's
// clock); a nil now disables timeouts.
func NewReassembler(cfg Config, now func() time.Duration, deliver func(Packet)) *Reassembler {
	cfg = cfg.withDefaults()
	r := &Reassembler{
		codec: cfg.Codec(),
		t: reasm.New[uint64](reasm.Config{
			Checksum:    cfg.Checksum,
			Timeout:     cfg.ReassemblyTimeout,
			MaxPartials: cfg.MaxPartials,
			SharedKeys:  true,
		}, now),
	}
	if deliver != nil {
		r.t.OnDeliver = func(id uint64, data []byte, truth *frame.Truth) {
			deliver(Packet{ID: id, Data: data, Truth: truth})
		}
	}
	return r
}

// Stats returns a snapshot of the reassembler's counters.
func (r *Reassembler) Stats() Stats { return *r.t.Stats() }

// PendingCount reports identifiers with partial state, for tests and
// leak checks.
func (r *Reassembler) PendingCount() int { return r.t.Len() }

// SetObserver installs a callback invoked with the identifier of every
// well-formed fragment heard and whether it was a transaction-starting
// introduction. This is the "listening" tap of Section 3.2.
func (r *Reassembler) SetObserver(fn func(id uint64, intro bool)) { r.observer = fn }

// SetConflictHandler installs a callback invoked with each identifier
// dropped for internal inconsistency — the receiver-side trigger for the
// paper's optional collision-notification heuristic (Section 3.2's
// "explicit identifier collision notification").
func (r *Reassembler) SetConflictHandler(fn func(id uint64)) { r.t.OnConflict = fn }

// SetCompleteHandler installs a callback invoked with each identifier
// whose final fragment was observed — the transaction is known over,
// whether or not the packet verifies. This is the turnover signal for
// density estimation (density.CompletionObserver): an identifier the
// sender has finished with need not be held active for the full idle gap.
func (r *Reassembler) SetCompleteHandler(fn func(id uint64)) { r.t.OnComplete = fn }

// SetExpiryHandler installs a callback invoked with each identifier whose
// partial state was evicted — the span tracer's receiver-side "this
// transaction died incomplete" signal.
func (r *Reassembler) SetExpiryHandler(fn func(id uint64)) { r.t.OnExpire = fn }

// SetChecksumFailHandler installs a callback invoked with each identifier
// rejected at completion because its checksum failed — how an identifier
// collision most often surfaces at a receiver.
func (r *Reassembler) SetChecksumFailHandler(fn func(id uint64)) { r.t.OnBadSum = fn }

// SetCapEvictHandler installs a callback invoked with each identifier the
// MaxPartials cap evicted, fired immediately before the expiry handler
// for the same identifier. The node layer uses the pairing to tell
// memory-pressure eviction from idle timeout.
func (r *Reassembler) SetCapEvictHandler(fn func(id uint64)) { r.t.OnCapEvict = fn }

// Ingest processes one received frame.
func (r *Reassembler) Ingest(frameBytes []byte) { r.IngestDecoded(r.Decode(frameBytes)) }

// Decode decodes one received frame with the configuration's codec
// (Config.Codec) into the reassembler's scratch fragment, for
// IngestDecoded here and in any other reassembler of that codec, so a
// caller feeding several decodes each frame once. It returns nil for a
// frame that does not decode. The fragment is valid until the next
// Decode or Ingest, and its payload as long as frameBytes.
func (r *Reassembler) Decode(frameBytes []byte) *frame.Fragment {
	var err error
	if r.frag, err = r.codec.Decode(frameBytes); err != nil {
		return nil
	}
	return &r.frag
}

// IngestDecoded processes one received frame decoded by Decode; fr is
// nil for a frame that did not decode. Its payload need only stay valid
// for the call.
func (r *Reassembler) IngestDecoded(fr *frame.Fragment) {
	r.t.Sweep()
	if fr == nil {
		r.t.Stats().Malformed++
		return
	}
	r.t.Stats().FragmentsIn++
	key := FragmentKey(fr)
	if r.observer != nil {
		r.observer(key, fr.Intro)
	}
	if !fr.Intro {
		r.t.Data(key, fr.Offset, fr.Payload)
		return
	}
	var truth *frame.Truth
	if fr.HasTruth {
		truth = &fr.Truth
	}
	r.t.Intro(key, fr.TotalLen, fr.Checksum, truth)
}

// Sweep runs timeout eviction at the present instant without ingesting a
// frame. Wire it to an engine timer (node.AFFOptions.Engine) so idle
// nodes shed stale partial-packet state instead of retaining it until the
// next reception.
func (r *Reassembler) Sweep() { r.t.Sweep() }

// NextExpiry reports the earliest virtual time at which a pending
// identifier could expire, and whether any timeout is outstanding. The
// returned time is when eviction becomes possible, not a promise that
// state will still be stale then.
func (r *Reassembler) NextExpiry() (time.Duration, bool) { return r.t.NextExpiry() }

// Reset discards all partial-packet state, modelling a node crash: RAM is
// gone, counters (which belong to the measurement harness, not the node)
// survive.
func (r *Reassembler) Reset() { r.t.Reset() }
