// Package flood implements scoped flooding with RETRI-keyed duplicate
// suppression — a third application of the paper's idea, in the spirit of
// its Section 6 catalogue ("these applications all have in common a need
// to reference some state that has meaning over some time period and in
// some location").
//
// Flooding needs a per-message identity so relays can suppress duplicates.
// The traditional choice is (source address, sequence number); the RETRI
// choice is a short random identifier drawn fresh per message. The
// suppression state is the transaction: it must be unique only among
// messages circulating in the same neighbourhood within the dedup window.
// An identifier collision suppresses a distinct message as if it were a
// duplicate — a loss, detected by nothing and recovered by nothing, which
// is exactly the paper's discipline. TTL scoping bounds how far a flood
// travels (the spatial-reuse lever the paper credits to SDR's multicast
// scopes).
package flood

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"time"

	"retri/internal/bitio"
	"retri/internal/core"
	"retri/internal/radio"
	"retri/internal/sim"
)

const ttlBits = 4

// MaxTTL is the widest hop scope the wire format carries.
const MaxTTL = 1<<ttlBits - 1

var (
	// ErrBadMessage is returned for undecodable flood frames.
	ErrBadMessage = errors.New("flood: malformed message")
	// ErrTooLarge is returned when a payload cannot fit one frame.
	ErrTooLarge = errors.New("flood: payload exceeds frame capacity")
	// ErrBadTTL is returned for out-of-range hop scopes.
	ErrBadTTL = errors.New("flood: ttl out of range")
)

// Message is one flood frame: an ephemeral identifier, a hop budget, and
// an opaque payload that must fit a single radio frame.
type Message struct {
	ID      uint64
	TTL     int
	Payload []byte
}

// Encode packs a message, returning bytes and meaningful bits.
func Encode(space core.Space, m Message) ([]byte, int, error) {
	if !space.Contains(m.ID) {
		return nil, 0, fmt.Errorf("%w: id %d", ErrBadMessage, m.ID)
	}
	if m.TTL < 0 || m.TTL > MaxTTL {
		return nil, 0, fmt.Errorf("%w: %d", ErrBadTTL, m.TTL)
	}
	w := bitio.NewWriter()
	if err := w.WriteBits(m.ID, space.Bits()); err != nil {
		return nil, 0, err
	}
	if err := w.WriteBits(uint64(m.TTL), ttlBits); err != nil {
		return nil, 0, err
	}
	w.Align()
	w.WriteBytes(m.Payload)
	return w.Bytes(), w.Len(), nil
}

// Decode unpacks a message.
func Decode(space core.Space, p []byte) (Message, error) {
	r := bitio.NewReader(p)
	id, err := r.ReadBits(space.Bits())
	if err != nil {
		return Message{}, fmt.Errorf("%w: %v", ErrBadMessage, err)
	}
	ttl, err := r.ReadBits(ttlBits)
	if err != nil {
		return Message{}, fmt.Errorf("%w: %v", ErrBadMessage, err)
	}
	r.Align()
	payload := make([]byte, r.Remaining()/8)
	if err := r.ReadBytes(payload); err != nil {
		return Message{}, fmt.Errorf("%w: %v", ErrBadMessage, err)
	}
	return Message{ID: id, TTL: int(ttl), Payload: payload}, nil
}

// Config parameterizes a flood router.
type Config struct {
	// Space is the flood-identifier pool.
	Space core.Space
	// TTL is the default hop scope for originated messages.
	TTL int
	// DedupWindow is how long a seen identifier suppresses re-forwarding.
	// It bounds the transaction: after it lapses the identifier is free
	// for reuse (temporal locality).
	DedupWindow time.Duration
	// ForwardJitter bounds the random delay before a relay rebroadcasts,
	// desynchronizing neighbours that all heard the same frame.
	ForwardJitter time.Duration
}

func (c Config) withDefaults() Config {
	if c.TTL == 0 {
		c.TTL = 4
	}
	if c.DedupWindow == 0 {
		c.DedupWindow = 10 * time.Second
	}
	if c.ForwardJitter == 0 {
		c.ForwardJitter = 20 * time.Millisecond
	}
	return c
}

// Stats counts a router's activity.
type Stats struct {
	Originated int64
	Delivered  int64 // messages handed to the application (first copy)
	Forwarded  int64
	Suppressed int64 // duplicates (or collisions!) dropped
	Expired    int64 // ttl exhausted on arrival
	Malformed  int64
}

// Router floods messages over one radio with duplicate suppression.
type Router struct {
	cfg   Config
	eng   *sim.Engine
	r     *radio.Radio
	sel   core.Selector
	rng   *rand.Rand
	seen  window[uint64]
	stats Stats

	handler func(payload []byte)
}

// NewRouter builds a flood router on r. The radio's handler is taken over.
func NewRouter(cfg Config, eng *sim.Engine, r *radio.Radio, sel core.Selector, rng *rand.Rand) (*Router, error) {
	if eng == nil || r == nil || sel == nil || rng == nil {
		return nil, errors.New("flood: nil dependency")
	}
	cfg = cfg.withDefaults()
	if cfg.TTL < 1 || cfg.TTL > MaxTTL {
		return nil, fmt.Errorf("%w: %d", ErrBadTTL, cfg.TTL)
	}
	if sel.Space() != cfg.Space {
		return nil, errors.New("flood: selector space mismatch")
	}
	rt := &Router{
		cfg:  cfg,
		eng:  eng,
		r:    r,
		sel:  sel,
		rng:  rng,
		seen: newWindow[uint64](cfg.DedupWindow),
	}
	r.SetHandler(rt.onFrame)
	return rt, nil
}

// OnMessage installs the application delivery callback.
func (rt *Router) OnMessage(fn func(payload []byte)) { rt.handler = fn }

// Stats returns a snapshot of the router's counters.
func (rt *Router) Stats() Stats { return rt.stats }

// Radio returns the underlying radio.
func (rt *Router) Radio() *radio.Radio { return rt.r }

// Originate floods a payload under a fresh ephemeral identifier with the
// configured hop scope.
func (rt *Router) Originate(payload []byte) error {
	id := rt.sel.Next()
	buf, bits, err := Encode(rt.cfg.Space, Message{ID: id, TTL: rt.cfg.TTL, Payload: payload})
	if err != nil {
		return err
	}
	if len(buf) > rt.r.MTU() {
		return fmt.Errorf("%w: %d bytes", ErrTooLarge, len(buf))
	}
	// The originator marks its own identifier seen so echoes from
	// neighbours are not re-forwarded (and not self-delivered).
	rt.seen.mark(id, rt.eng.Now())
	if err := rt.r.Send(buf, bits); err != nil {
		return err
	}
	rt.stats.Originated++
	return nil
}

// onFrame handles a received flood frame: deliver first copies, forward
// within scope, suppress the rest.
func (rt *Router) onFrame(f radio.Frame) {
	msg, err := Decode(rt.cfg.Space, f.Payload)
	if err != nil {
		rt.stats.Malformed++
		return
	}
	if rt.seen.has(msg.ID, rt.eng.Now()) {
		rt.stats.Suppressed++
		return
	}
	rt.seen.mark(msg.ID, rt.eng.Now())
	rt.sel.Observe(msg.ID)
	rt.stats.Delivered++
	if rt.handler != nil {
		rt.handler(msg.Payload)
	}
	if msg.TTL <= 0 {
		rt.stats.Expired++
		return
	}
	// Relay after a short random delay so the neighbourhood does not
	// rebroadcast in lockstep.
	fwd := msg
	fwd.TTL--
	buf, bits, err := Encode(rt.cfg.Space, fwd)
	if err != nil {
		return
	}
	delay := time.Duration(rt.rng.Int64N(int64(rt.cfg.ForwardJitter)))
	rt.eng.Schedule(delay, func() {
		if rt.r.Send(buf, bits) == nil {
			rt.stats.Forwarded++
		}
	})
}

// window is a duplicate-suppression table: a key marked within the last
// span suppresses copies. Lookups check a key's age, so a lapsed entry is
// dead whether or not it has been reclaimed; the sweep that reclaims
// lapsed entries runs at most once per span, keeping mark O(1) amortized.
type window[K comparable] struct {
	span  time.Duration
	seen  map[K]time.Duration
	swept time.Duration
}

func newWindow[K comparable](span time.Duration) window[K] {
	return window[K]{span: span, seen: make(map[K]time.Duration)}
}

// reset forgets every key, keeping the table's storage.
func (w *window[K]) reset() {
	clear(w.seen)
	w.swept = 0
}

// has reports whether k was marked within the span before now.
func (w *window[K]) has(k K, now time.Duration) bool {
	at, ok := w.seen[k]
	if !ok {
		return false
	}
	if now-at > w.span {
		delete(w.seen, k)
		return false
	}
	return true
}

// mark records k as seen at now.
func (w *window[K]) mark(k K, now time.Duration) {
	if now-w.swept >= w.span {
		for old, at := range w.seen {
			if now-at > w.span {
				delete(w.seen, old)
			}
		}
		w.swept = now
	}
	w.seen[k] = now
}
