// Relay is the second flood application: where Router floods whole
// opaque messages under its own wire format, Relay extends an *existing*
// stack (AFF fragments, dynaddr frames) across multiple hops. Every
// outgoing frame is wrapped in a one-byte hop-scope envelope (4-bit TTL +
// 4 pad bits); every relay that hears a copy it has not seen before hands
// the inner frame up its own stack and rebroadcasts it with the TTL
// decremented, after a small desynchronizing jitter.
//
// Duplicate suppression is the RETRI discipline again: the dedup key is
// extracted from the inner frame by a pluggable Keyer. The AFF keyer uses
// the fragment's (width, id) composite reassembly key plus its position,
// so fragments of transactions at *different* widths never suppress each
// other even when their raw identifiers coincide — and an identifier
// collision within the dedup window suppresses a distinct transaction's
// fragments as if they were duplicates, a silent loss exactly as the
// paper prescribes.

package flood

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"time"

	"retri/internal/aff"
	"retri/internal/bitio"
	"retri/internal/poison"
	"retri/internal/radio"
	"retri/internal/sim"
)

// envelopeBits is the hop-scope header: 4 TTL bits padded to one byte, so
// the inner frame stays byte-aligned and observers can strip it cheaply.
const envelopeBits = 8

// introMark distinguishes an introduction from a data fragment in the
// AFF keyer's position slot; offsets are packet-sized and never reach it.
const introMark = uint64(1) << 63

// RelayKey is a dedup key extracted from an inner frame.
type RelayKey struct{ A, B uint64 }

// Keyer extracts the duplicate-suppression key for one inner frame.
// ok=false means the frame is unreadable under this keyer: it is still
// delivered up the local stack but never forwarded.
type Keyer func(inner []byte) (RelayKey, bool)

// AFFKeyer keys AFF fragments by their (width, id) composite reassembly
// key and position: the introduction under a sentinel mark, each data
// fragment under its byte offset. Distinct widths map to distinct
// composites (aff.WidthKey), so a relay carrying mixed-width traffic
// never suppresses across widths.
func AFFKeyer(cfg aff.Config) Keyer {
	codec := cfg.Codec()
	return func(inner []byte) (RelayKey, bool) {
		fr, err := codec.Decode(inner)
		if err != nil {
			return RelayKey{}, false
		}
		if fr.Intro {
			return RelayKey{A: aff.FragmentKey(&fr), B: introMark}, true
		}
		return RelayKey{A: aff.FragmentKey(&fr), B: uint64(fr.Offset)}, true
	}
}

// DigestKeyer keys opaque inner frames by an FNV-1a digest of their
// bytes — for stacks whose wire format the relay has no business reading
// (the dynaddr baseline). Identical frames suppress; that is the point.
func DigestKeyer() Keyer {
	return func(inner []byte) (RelayKey, bool) {
		const offset64, prime64 = uint64(14695981039346656037), uint64(1099511628211)
		h := offset64
		for _, b := range inner {
			h ^= uint64(b)
			h *= prime64
		}
		return RelayKey{A: h, B: uint64(len(inner))}, true
	}
}

// RelayConfig parameterizes a Relay.
type RelayConfig struct {
	// TTL is the hop budget stamped on originated frames, in [1, MaxTTL].
	TTL int
	// DedupWindow bounds how long a seen key suppresses copies.
	DedupWindow time.Duration
	// ForwardJitter bounds the random delay before a rebroadcast.
	ForwardJitter time.Duration
	// MaxQueue is congestion control: a rebroadcast is dropped (not
	// queued) when the radio's transmit queue is at least this deep at
	// fire time, so flood amplification on a saturated channel cannot
	// grow queues without bound. Zero selects DefaultRelayMaxQueue;
	// negative disables the guard.
	MaxQueue int
	// Keyer extracts dedup keys from inner frames.
	Keyer Keyer
}

// DefaultRelayMaxQueue bounds the transmit queue a relay will add a
// forward to: deep enough to ride out a burst, shallow enough that
// forwarded traffic tracks the virtual clock instead of piling into an
// ever-longer backlog.
const DefaultRelayMaxQueue = 8

func (c RelayConfig) withDefaults() RelayConfig {
	if c.TTL == 0 {
		c.TTL = 3
	}
	if c.DedupWindow == 0 {
		c.DedupWindow = 10 * time.Second
	}
	if c.ForwardJitter == 0 {
		c.ForwardJitter = 20 * time.Millisecond
	}
	if c.MaxQueue == 0 {
		c.MaxQueue = DefaultRelayMaxQueue
	}
	return c
}

// RelayStats counts one relay's activity.
type RelayStats struct {
	Originated    int64 // own frames wrapped for multi-hop origination
	Forwarded     int64 // copies rebroadcast with the TTL decremented
	ForwardedBits int64 // meaningful bits across forwarded copies
	Suppressed    int64 // duplicate copies (or key collisions!) dropped
	Expired       int64 // copies delivered locally with the hop budget spent
	Malformed     int64 // envelope undecodable
	Unkeyed       int64 // inner frame unreadable: delivered, never forwarded
	Congested     int64 // rebroadcasts dropped by the MaxQueue guard
}

// Merge folds another snapshot into this one.
func (s *RelayStats) Merge(o RelayStats) {
	s.Originated += o.Originated
	s.Forwarded += o.Forwarded
	s.ForwardedBits += o.ForwardedBits
	s.Suppressed += o.Suppressed
	s.Expired += o.Expired
	s.Malformed += o.Malformed
	s.Unkeyed += o.Unkeyed
	s.Congested += o.Congested
}

// Relay is one node's multi-hop forwarding service. It satisfies the
// relay hooks of both stacks (node.AFFOptions.Relay, dynaddr's Relay):
// the driver wraps outgoing frames through it and routes every received
// frame through UnwrapIncoming, which dedups, schedules the rebroadcast,
// and says whether the local stack should see the inner frame.
type Relay struct {
	cfg RelayConfig
	eng *sim.Engine
	r   *radio.Radio
	rng *rand.Rand

	seen  window[RelayKey]
	gen   int // bumped by Reset so pre-crash forwards die with the RAM
	stats RelayStats
	// wrapped holds the frame the last WrapOutgoing returned.
	wrapped []byte
	// spare holds forward records whose callback has run.
	spare []*forward
}

// forward is one rebroadcast waiting out its jitter. Its frame is the
// relay's from UnwrapIncoming until the callback runs; the record then
// goes back to the relay, its frame overwritten by poison.Fill, and the
// next forward reuses both, with the callback bound once.
type forward struct {
	rl    *Relay
	gen   int
	frame []byte
	bits  int
	fire  func()
}

// NewRelay builds a relay on r. Unlike Router it does not take over the
// radio handler: the owning driver calls UnwrapIncoming from its own.
func NewRelay(cfg RelayConfig, eng *sim.Engine, r *radio.Radio, rng *rand.Rand) (*Relay, error) {
	if eng == nil || r == nil || rng == nil {
		return nil, errors.New("flood: relay nil dependency")
	}
	cfg = cfg.withDefaults()
	if cfg.TTL < 1 || cfg.TTL > MaxTTL {
		return nil, fmt.Errorf("%w: %d", ErrBadTTL, cfg.TTL)
	}
	if cfg.Keyer == nil {
		return nil, errors.New("flood: relay needs a Keyer")
	}
	return &Relay{
		cfg:  cfg,
		eng:  eng,
		r:    r,
		rng:  rng,
		seen: newWindow[RelayKey](cfg.DedupWindow),
	}, nil
}

// Stats returns a snapshot of the relay's counters.
func (rl *Relay) Stats() RelayStats { return rl.stats }

// Reset wipes the dedup table and orphans pending forwards — the crash
// semantics every other RAM-resident protocol state follows.
func (rl *Relay) Reset() {
	rl.seen.reset()
	rl.gen++
}

// WrapOutgoing envelopes one of this node's own frames with the full hop
// budget, marking its key seen so echoes from neighbours are neither
// re-forwarded nor self-delivered. The envelope costs one byte; callers
// must leave it room within the radio MTU. The returned frame is the
// relay's scratch, valid until the next call: send it (Send copies) or
// copy it.
func (rl *Relay) WrapOutgoing(payload []byte, bits int) ([]byte, int) {
	if k, ok := rl.cfg.Keyer(payload); ok {
		rl.seen.mark(k, rl.eng.Now())
	}
	rl.stats.Originated++
	rl.wrapped = appendEnvelope(rl.wrapped[:0], rl.cfg.TTL, payload)
	return rl.wrapped, envelopeBits + bits
}

// UnwrapIncoming strips a received frame's envelope. First copies are
// delivered (deliver=true) and, while the hop budget lasts, rebroadcast
// with the TTL decremented after a desynchronizing jitter; duplicates
// and undecodable envelopes are swallowed.
func (rl *Relay) UnwrapIncoming(f radio.Frame) (inner []byte, deliver bool) {
	inner, ttl, ok := stripEnvelope(f.Payload)
	if !ok {
		rl.stats.Malformed++
		return nil, false
	}
	k, keyed := rl.cfg.Keyer(inner)
	if !keyed {
		// Unreadable inner frame: the local stack's own robustness layers
		// get to judge it, but garbage is never amplified across hops.
		rl.stats.Unkeyed++
		return inner, true
	}
	if rl.seen.has(k, rl.eng.Now()) {
		rl.stats.Suppressed++
		return nil, false
	}
	rl.seen.mark(k, rl.eng.Now())
	if ttl <= 0 {
		rl.stats.Expired++
		return inner, true
	}
	ib := f.Bits - envelopeBits
	if ib < 0 {
		ib = len(inner) * 8
	}
	// The copy waits out its jitter, so it needs storage of its own.
	fw := rl.newForward()
	fw.frame = appendEnvelope(fw.frame[:0], ttl-1, inner)
	fw.bits = envelopeBits + ib
	fw.gen = rl.gen
	delay := time.Duration(rl.rng.Int64N(int64(rl.cfg.ForwardJitter)))
	rl.eng.Schedule(delay, fw.fire)
	return inner, true
}

// newForward returns a spare forward record, or a new one with its
// callback bound.
func (rl *Relay) newForward() *forward {
	if n := len(rl.spare); n > 0 {
		fw := rl.spare[n-1]
		rl.spare = rl.spare[:n-1]
		return fw
	}
	fw := &forward{rl: rl}
	fw.fire = fw.run
	return fw
}

// run rebroadcasts the copy unless the node crashed since, or its queue
// is congested, then hands the record back.
func (fw *forward) run() {
	rl := fw.rl
	switch {
	case rl.gen != fw.gen:
		// The node crashed in between: the copy died with its RAM.
	case rl.cfg.MaxQueue > 0 && rl.r.QueueLen() >= rl.cfg.MaxQueue:
		rl.stats.Congested++
	case rl.r.Send(fw.frame, fw.bits) == nil:
		rl.stats.Forwarded++
		rl.stats.ForwardedBits += int64(fw.bits)
	}
	poison.Fill(fw.frame)
	rl.spare = append(rl.spare, fw)
}

// appendEnvelope appends inner behind the one-byte hop-scope header: the
// TTL in the top ttlBits bits, the rest padding.
func appendEnvelope(dst []byte, ttl int, inner []byte) []byte {
	dst = append(dst, byte(ttl)<<(envelopeBits-ttlBits))
	return append(dst, inner...)
}

// StripEnvelope removes the relay envelope without dedup or forwarding —
// the hook passive observers (oracle, span tracer) use to read the inner
// AFF frame. The returned slice aliases p.
func StripEnvelope(p []byte) ([]byte, bool) {
	inner, _, ok := stripEnvelope(p)
	return inner, ok
}

func stripEnvelope(p []byte) ([]byte, int, bool) {
	if len(p) < 1 {
		return nil, 0, false
	}
	r := bitio.NewReader(p)
	ttl, err := r.ReadBits(ttlBits)
	if err != nil {
		return nil, 0, false
	}
	// The header is exactly one byte, so the inner frame is the rest.
	return p[1:], int(ttl), true
}
