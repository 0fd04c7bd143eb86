// Package trace provides structured event tracing for the simulator.
//
// The experiment harness works from aggregate counters; debugging a
// protocol or auditing one run's behaviour needs the event stream itself.
// Components emit Events into a Tracer; tracers compose (ring buffers for
// post-mortems, writers for live logs, counters for assertions, filters
// and fan-out for routing). Tracing is optional everywhere and free when
// disabled.
//
// # Ownership
//
// Tracers are not safe for concurrent use. Like the sim.Engine they run
// inside, every tracer — Ring, Counter, Buffer, a Multi fan-out and
// whatever it fans out to — belongs to exactly one simulation trial and
// must only be Recorded into from that trial's goroutine. Do NOT share one
// tracer between parallel trials (runner.Map with Parallelism > 1): Ring
// and Counter mutate unguarded state and the race detector will rightly
// object. The sanctioned cross-trial pattern is capture-then-merge: give
// each trial its own tracer (typically a Buffer and/or a metrics.FromTrace
// bridge composed with Multi), then after the runner returns fold the
// per-trial captures in trial-index order — metrics registries via
// metrics.Registry.Merge, buffered events via Buffer.Replay — so a
// parallel run aggregates byte-identically to a sequential one (see
// experiment.Obs).
package trace

import (
	"fmt"
	"io"
	"time"
)

// Kind classifies an event.
type Kind int

// Event kinds. Frame* events are emitted by the radio medium; higher
// layers may define additional tracers of their own on top of Custom.
const (
	// FrameSent: a frame was put on the air by Node.
	FrameSent Kind = iota + 1
	// FrameDelivered: Node received a frame from Peer.
	FrameDelivered
	// FrameCollided: a frame from Peer was destroyed at Node by an
	// overlapping transmission.
	FrameCollided
	// FrameHalfDuplex: Node missed a frame from Peer because it was
	// transmitting.
	FrameHalfDuplex
	// FrameRandomLoss: the loss model dropped a frame from Peer at Node.
	FrameRandomLoss
	// FrameNotHeard: Node was down or not listening.
	FrameNotHeard
	// FrameCorrupted: the fault model damaged a frame's payload on the way
	// to Node; the frame is still delivered (the checksum layer must catch
	// it).
	FrameCorrupted
	// NodeCrash: the fault engine crashed Node (radio down, soft state
	// wiped).
	NodeCrash
	// NodeRestart: the fault engine restarted Node.
	NodeRestart
	// LinkDown: the fault engine severed the Node—Peer link.
	LinkDown
	// LinkUp: the fault engine restored the Node—Peer link.
	LinkUp
	// Custom: anything a higher layer wants to record; see Note.
	Custom
)

var kindNames = map[Kind]string{
	FrameSent:       "sent",
	FrameDelivered:  "delivered",
	FrameCollided:   "collided",
	FrameHalfDuplex: "half-duplex",
	FrameRandomLoss: "random-loss",
	FrameNotHeard:   "not-heard",
	FrameCorrupted:  "corrupted",
	NodeCrash:       "node-crash",
	NodeRestart:     "node-restart",
	LinkDown:        "link-down",
	LinkUp:          "link-up",
	Custom:          "custom",
}

// String names the kind.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Event is one simulation occurrence.
type Event struct {
	// At is the virtual time of the event.
	At time.Duration
	// Kind classifies it.
	Kind Kind
	// Node is the primary party (receiver for reception outcomes,
	// transmitter for FrameSent).
	Node int
	// Peer is the counterpart (the transmitter for reception outcomes).
	Peer int
	// Bits is the on-air size where applicable.
	Bits int
	// Note carries free-form context for Custom events.
	Note string
}

// String renders one event as a log line.
func (e Event) String() string {
	switch e.Kind {
	case FrameSent:
		return fmt.Sprintf("%12v node %d %s (%d bits)", e.At, e.Node, e.Kind, e.Bits)
	case NodeCrash, NodeRestart:
		return fmt.Sprintf("%12v node %d %s", e.At, e.Node, e.Kind)
	case LinkDown, LinkUp:
		return fmt.Sprintf("%12v link %d—%d %s", e.At, e.Node, e.Peer, e.Kind)
	case Custom:
		return fmt.Sprintf("%12v node %d %s: %s", e.At, e.Node, e.Kind, e.Note)
	default:
		return fmt.Sprintf("%12v node %d %s from %d (%d bits)", e.At, e.Node, e.Kind, e.Peer, e.Bits)
	}
}

// Tracer consumes events. Implementations must be cheap; they run inside
// simulation events.
type Tracer interface {
	Record(Event)
}

// Ring is a fixed-capacity ring buffer of the most recent events — the
// flight recorder.
type Ring struct {
	buf     []Event
	next    int
	full    bool
	dropped int64
}

var _ Tracer = (*Ring)(nil)

// NewRing returns a ring holding the last capacity events (min 1).
func NewRing(capacity int) *Ring {
	if capacity < 1 {
		capacity = 1
	}
	return &Ring{buf: make([]Event, capacity)}
}

// Record stores the event, evicting the oldest when full.
func (r *Ring) Record(e Event) {
	if r.full {
		r.dropped++
	}
	r.buf[r.next] = e
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
		r.full = true
	}
}

// Events returns the retained events, oldest first.
func (r *Ring) Events() []Event {
	if !r.full {
		out := make([]Event, r.next)
		copy(out, r.buf[:r.next])
		return out
	}
	out := make([]Event, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	out = append(out, r.buf[:r.next]...)
	return out
}

// Len reports the number of retained events.
func (r *Ring) Len() int {
	if r.full {
		return len(r.buf)
	}
	return r.next
}

// Dropped reports events evicted to make room.
func (r *Ring) Dropped() int64 { return r.dropped }

// Dump writes the retained events to w, one line each.
func (r *Ring) Dump(w io.Writer) error {
	for _, e := range r.Events() {
		if _, err := fmt.Fprintln(w, e); err != nil {
			return err
		}
	}
	return nil
}

// Counter tallies events by kind.
type Counter struct {
	counts map[Kind]int64
}

var _ Tracer = (*Counter)(nil)

// NewCounter returns an empty tally.
func NewCounter() *Counter { return &Counter{counts: make(map[Kind]int64)} }

// Record increments the kind's tally.
func (c *Counter) Record(e Event) { c.counts[e.Kind]++ }

// Count reports the tally for a kind.
func (c *Counter) Count(k Kind) int64 { return c.counts[k] }

// Multi fans events out to several tracers.
func Multi(ts ...Tracer) Tracer { return multi(ts) }

type multi []Tracer

func (m multi) Record(e Event) {
	for _, t := range m {
		if t != nil {
			t.Record(e)
		}
	}
}
